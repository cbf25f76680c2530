package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/oo7"
	"quickstore/internal/shard"
)

// oo7Base is what the five single-node workloads share: one page server
// over the generated OO7 database, the values the oracle compares against,
// and the crash-and-recover check at the end.
type oo7Base struct {
	n *node

	t1Want int     // T1's visit count on this database
	parts  int     // atomic parts in the database
	x0     []int32 // x of every atomic part right after generation, by part id
	sumX0  int64
	acked  int64 // Σ increments of x acknowledged by a commit since generation
}

// build generates the database (seeded by the run's seed, bulk-load mode, one
// checkpoint), records the oracle values through a full-size session, and
// opens nSessions runtime sessions with clientPool frames each. oneMux puts
// them all on one connection.
func (b *oo7Base) build(r *run, clientPool, serverPool, nSessions int, mvcc, oneMux bool) error {
	var err error
	if b.n, err = r.st.singleNode(esm.ServerConfig{BufferPages: serverPool, MVCC: mvcc}); err != nil {
		return err
	}
	ctl, err := r.st.dial(b.n.addr(), nil)
	if err != nil {
		return err
	}
	gen, err := openSession(ctl, nil, -1, esm.DefaultClientBufferPages, true)
	if err != nil {
		return err
	}
	p := r.cfg.params
	p.Seed = r.cfg.seed
	if err := oo7.Generate(gen.db, p); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if err := gen.client.Checkpoint(); err != nil {
		return err
	}
	if err := b.calibrate(r, ctl, p); err != nil {
		return err
	}

	var first esm.Transport
	for slot := 0; slot < nSessions; slot++ {
		sc := r.sessionCtx(slot)
		var tr esm.Transport
		switch {
		case !oneMux || slot == 0:
			if tr, err = r.st.dial(b.n.addr(), sc); err != nil {
				return err
			}
			first = tr
		case r.t == nil:
			tr = first
		default:
			// Same socket, but each session's calls carry its own trace context.
			ft := first.(*tracedTransport)
			tr = &tracedTransport{Transport: ft.Transport, t: r.t, sc: sc, layer: "wire", node: ft.node}
		}
		start := time.Now()
		s, err := openSession(tr, sc, slot, clientPool, false)
		if err != nil {
			return err
		}
		r.note("session.open", time.Since(start))
		r.sessions = append(r.sessions, s)
	}
	return nil
}

// calibrate runs T1 twice in a session whose pool holds the whole database:
// the first run gives the visit count every later T1 must repeat, the second
// (hot) the cost of a mapped access with no fault in it. It then reads x of
// every atomic part through the part-id index.
func (b *oo7Base) calibrate(r *run, tr esm.Transport, p oo7.Params) error {
	s, err := openSession(tr, nil, -1, esm.DefaultClientBufferPages, false)
	if err != nil {
		return err
	}
	if b.t1Want, err = oo7.T1(s.db); err != nil {
		return fmt.Errorf("warm-up T1: %w", err)
	}
	c0 := s.counters()
	start := time.Now()
	if n, err := oo7.T1(s.db); err != nil || n != b.t1Want {
		return fmt.Errorf("hot T1 = %d, %v; want %d", n, err, b.t1Want)
	}
	took := time.Since(start)
	r.hotAccessNs = float64(took) / float64(s.counters().accesses-c0.accesses)

	b.parts = p.NumAtomicParts()
	b.x0 = make([]int32, b.parts+1)
	sum, err := sumX(s, b.parts, b.x0)
	b.sumX0 = sum
	return err
}

// sumX reads x of every atomic part through the part-id index in one
// transaction. into, when not nil, receives each part's x by id.
func sumX(s *session, parts int, into []int32) (int64, error) {
	var sum int64
	err := s.txn(func() error {
		idx := s.db.Index(oo7.IdxPartID)
		for id := 1; id <= parts; id++ {
			refs := idx.LookupInt(int64(id))
			if len(refs) != 1 {
				return fmt.Errorf("part %d: %d index entries", id, len(refs))
			}
			x := s.db.GetI32(refs[0], oo7.TAtomicPart, oo7.APartX)
			if into != nil {
				into[id] = x
			}
			sum += int64(x)
		}
		return nil
	})
	return sum, err
}

// txn runs fn inside a transaction the way the oo7 operations do: accessor
// errors are latched in the DB and checked once before commit.
func (s *session) txn(fn func() error) error {
	if err := s.db.Begin(); err != nil {
		return err
	}
	err := fn()
	if err == nil {
		err = s.db.Err()
	}
	if err != nil {
		s.db.ClearErr()
		if aerr := s.db.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return err
	}
	return s.db.Commit()
}

// t1 runs one T1 and checks its result.
func (b *oo7Base) t1(s *session) error {
	n, err := oo7.T1(s.db)
	if err == nil && n != b.t1Want {
		err = fmt.Errorf("T1 visited %d parts, warm-up visited %d", n, b.t1Want)
	}
	return err
}

// op, unless a workload says otherwise, is t1 as a measured, traced operation.
func (b *oo7Base) op(r *run, s *session, i int) (string, error) {
	return "t1", s.sc.op("t1", func() error { return b.t1(s) })
}

// finish, unless a workload has a tail of updates to add, is the bare
// durability oracle.
func (b *oo7Base) finish(r *run) error { return b.crashCheck(r, nil) }

// crashCheck is the durability oracle every single-node workload ends with:
// checkpoint, a fixed tail of acknowledged work, then a crash seen from
// outside — unflushed log discarded, volume abandoned, no pool flush — and a
// restart. Σx over all atomic parts must equal its value after generation
// plus every acknowledged increment, and T1 must still visit what it did.
func (b *oo7Base) crashCheck(r *run, tail func() error) error {
	if err := r.finalCheckpoint(); err != nil {
		return err
	}
	if tail != nil {
		if err := tail(); err != nil {
			return fmt.Errorf("tail: %w", err)
		}
	}
	r.st.closeMuxes()
	b.n.stop()
	b.n.crash()
	took, err := b.n.recoverNode()
	if err != nil {
		return fmt.Errorf("restart recovery: %w", err)
	}
	r.note("wal.recover", took)

	tr, err := r.st.dial(b.n.addr(), nil)
	if err != nil {
		return err
	}
	s, err := openSession(tr, nil, -1, esm.DefaultClientBufferPages, false)
	if err != nil {
		return err
	}
	sum, err := sumX(s, b.parts, nil)
	if err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if want := b.sumX0 + b.acked; sum != want {
		return fmt.Errorf("after recovery Σx = %d, want %d (%d generated + %d acknowledged)", sum, want, b.sumX0, b.acked)
	}
	if n, err := oo7.T1(s.db); err != nil || n != b.t1Want {
		return fmt.Errorf("after recovery T1 = %d, %v; want %d", n, err, b.t1Want)
	}
	return nil
}

func (b *oo7Base) between(*run, *session, int) func() error { return nil }

func (b *oo7Base) base() *oo7Base { return b }

// warm runs T1 twice: once to fill the pools, once in the state the window
// will measure.
func (b *oo7Base) warm(r *run) error {
	for i := 0; i < 2; i++ {
		if err := b.t1(r.sessions[0]); err != nil {
			return err
		}
	}
	return nil
}

// t1Hot: T1 on a session whose pool already holds the whole database.
type t1Hot struct{ oo7Base }

func (w *t1Hot) setup(r *run) error {
	if err := w.build(r, esm.DefaultClientBufferPages, esm.DefaultServerBufferPages, 1, false, false); err != nil {
		return err
	}
	return w.warm(r)
}

// t1Cold: both caches are emptied before every T1 (Server.DropCaches and a
// fresh session), so each op takes every first-touch fault down to the file.
// A hot T1 follows untimed in the same session: cold minus hot over the
// fault count is the paper's Table 5 per-fault cost.
type t1Cold struct{ oo7Base }

func (w *t1Cold) setup(r *run) error {
	if err := w.build(r, esm.DefaultClientBufferPages, esm.DefaultServerBufferPages, 1, false, false); err != nil {
		return err
	}
	return w.n.srv.DropCaches()
}

func (w *t1Cold) between(r *run, s *session, i int) func() error {
	return func() error { return w.refresh(r, s) }
}

func (w *t1Cold) refresh(r *run, s *session) error {
	start := time.Now()
	if err := s.sc.in("aside.hot", func() error { return w.t1(s) }); err != nil {
		return err
	}
	r.note("t1.hot", time.Since(start))
	if err := w.n.srv.DropCaches(); err != nil {
		return err
	}
	start = time.Now()
	var fresh *session
	err := s.sc.in("session.open", func() (err error) {
		fresh, err = openSession(s.tr, s.sc, s.slot, esm.DefaultClientBufferPages, false)
		return err
	})
	if err != nil {
		return err
	}
	r.note("session.open", time.Since(start))
	r.sessions[s.slot] = fresh
	return nil
}

// t1Paging: the database is 5.6x the client pool and 2.8x the server pool,
// so T1 runs in steady-state replacement at both.
type t1Paging struct{ oo7Base }

func (w *t1Paging) setup(r *run) error {
	if err := w.build(r, r.cfg.pagingClient, r.cfg.pagingServer, 1, false, false); err != nil {
		return err
	}
	return w.warm(r)
}

// t2bUpdate: T2 variant B increments x and y of every atomic part T1 visits.
// The log is cut by a checkpoint after every 16th op, timed apart.
type t2bUpdate struct{ oo7Base }

const t2bCheckpointEvery = 16

func (w *t2bUpdate) t2b(s *session) error {
	n, err := oo7.T2(s.db, oo7.VariantB)
	if err != nil {
		return err
	}
	w.acked += int64(n)
	if n != w.t1Want {
		return fmt.Errorf("T2B made %d updates, T1 visits %d parts", n, w.t1Want)
	}
	return nil
}

func (w *t2bUpdate) setup(r *run) error {
	if err := w.build(r, esm.DefaultClientBufferPages, esm.DefaultServerBufferPages, 1, false, false); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := w.t2b(r.sessions[0]); err != nil {
			return err
		}
	}
	return r.sessions[0].client.Checkpoint()
}

func (w *t2bUpdate) op(r *run, s *session, i int) (string, error) {
	return "t2b", s.sc.op("t2b", func() error { return w.t2b(s) })
}

func (w *t2bUpdate) between(r *run, s *session, i int) func() error {
	if (i+1)%t2bCheckpointEvery != 0 {
		return nil
	}
	return s.checkpoint
}

func (w *t2bUpdate) finish(r *run) error {
	return w.crashCheck(r, func() error {
		for i := 0; i < 2; i++ {
			if err := w.t2b(r.sessions[0]); err != nil {
				return err
			}
		}
		return nil
	})
}

// mcMix: two sessions share one mux connection to an MVCC server. A
// session's t-th transaction is, by t%4: 0 and 1 a locked read of four
// random composite-part graphs, 2 the same read inside a snapshot, 3 x++ on
// all parts of one composite part the session owns (comp ≡ slot mod 2, so
// writers never conflict). Everyone takes page locks in ascending page
// order within a composite part and writers hold locks on one composite
// part only, so no wait-for cycle can form. Slot 0 checkpoints after every
// 500th transaction.
type mcMix struct {
	oo7Base
	perComp   int
	comps     int
	compPages [][]uint32 // by composite id: pages of the part graph, ascending
	rngs      []*rand.Rand
	ackedBy   [2]int64 // per session, so the two never share a counter
}

const (
	mcReadsPerTxn     = 4
	mcCheckpointEvery = 500
	mcTailUpdates     = 8
)

func (w *mcMix) setup(r *run) error {
	if err := w.build(r, r.cfg.pagingClient, r.cfg.pagingServer, 2, true, true); err != nil {
		return err
	}
	w.perComp = r.cfg.params.NumAtomicPerComp
	w.comps = r.cfg.params.NumCompPerModule
	for slot := range r.sessions {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(r.cfg.seed*7919+int64(slot))))
	}
	if err := w.mapPages(r.sessions[0]); err != nil {
		return err
	}
	// Warm both sessions with a few transactions of every class.
	for i := 0; i < 8; i++ {
		for _, s := range r.sessions {
			if _, err := w.op(r, s, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// mapPages records which pages hold each composite part's graph.
func (w *mcMix) mapPages(s *session) error {
	w.compPages = make([][]uint32, w.comps+1)
	return s.txn(func() error {
		idx := s.db.Index(oo7.IdxPartID)
		for c := 1; c <= w.comps; c++ {
			seen := map[uint32]bool{}
			for k := 0; k < w.perComp; k++ {
				refs := idx.LookupInt(int64((c-1)*w.perComp + 1 + k))
				if len(refs) != 1 {
					return fmt.Errorf("composite %d part %d: %d index entries", c, k, len(refs))
				}
				for _, ref := range []oo7.Ref{refs[0], s.db.GetRef(refs[0], oo7.TAtomicPart, oo7.APartPartOf)} {
					pid, _, err := s.store.PageOf(core.Ref(ref))
					if err != nil {
						return err
					}
					seen[uint32(pid)] = true
				}
			}
			for pid := range seen {
				w.compPages[c] = append(w.compPages[c], pid)
			}
			sort.Slice(w.compPages[c], func(a, b int) bool { return w.compPages[c][a] < w.compPages[c][b] })
		}
		return nil
	})
}

// visit walks composite part comp's atomic-part graph from a part found
// through the part-id index (index -> part -> partOf -> root part -> DFS),
// locking the graph's pages in mode first (0 = no locks: a snapshot read).
// bump adds one to every part's x. It checks that the walk reaches every
// part and that all parts show the same number of increments since
// generation — an update transaction changes all of them or none.
func (w *mcMix) visit(s *session, comp int, mode lock.Mode, bump bool) error {
	db := s.db
	entry := int64((comp-1)*w.perComp + 1 + w.rngs[s.slot].Intn(w.perComp))
	refs := db.Index(oo7.IdxPartID).LookupInt(entry)
	if len(refs) != 1 {
		return fmt.Errorf("part %d: %d index entries", entry, len(refs))
	}
	if mode != 0 {
		for _, pid := range w.compPages[comp] {
			if err := s.client.Lock(lock.KindPage, pid, mode); err != nil {
				return err
			}
		}
	}
	compRef := db.GetRef(refs[0], oo7.TAtomicPart, oo7.APartPartOf)
	visited := make(map[int32]bool, w.perComp)
	delta, first := int32(0), true
	var bad error
	var dfs func(part oo7.Ref)
	dfs = func(part oo7.Ref) {
		id := db.GetI32(part, oo7.TAtomicPart, oo7.APartID)
		if visited[id] || id < 1 || int(id) > w.parts {
			return
		}
		visited[id] = true
		x := db.GetI32(part, oo7.TAtomicPart, oo7.APartX)
		if d := x - w.x0[id]; first {
			delta, first = d, false
		} else if d != delta && bad == nil {
			bad = fmt.Errorf("composite %d: part %d shows %d increments, another part %d", comp, id, d, delta)
		}
		if bump {
			db.SetI32(part, oo7.TAtomicPart, oo7.APartX, x+1)
		}
		for _, f := range [3]int{oo7.APartConn0, oo7.APartConn1, oo7.APartConn2} {
			if conn := db.GetRef(part, oo7.TAtomicPart, f); conn != oo7.NilRef {
				dfs(db.GetRef(conn, oo7.TConnection, oo7.ConnTo))
			}
		}
	}
	dfs(db.GetRef(compRef, oo7.TCompositePart, oo7.CompRootPart))
	if bad == nil && len(visited) != w.perComp {
		bad = fmt.Errorf("composite %d: walk reached %d of %d parts", comp, len(visited), w.perComp)
	}
	return bad
}

func (w *mcMix) read(s *session, mode lock.Mode) error {
	rng := w.rngs[s.slot]
	for k := 0; k < mcReadsPerTxn; k++ {
		if err := w.visit(s, 1+rng.Intn(w.comps), mode, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *mcMix) update(s *session) error {
	// Slot 0 owns the even composite ids (2, 4, ...), slot 1 the odd ones.
	rng := w.rngs[s.slot]
	comp := 2 * (1 + rng.Intn(w.comps/2))
	if s.slot == 1 {
		comp = 2*rng.Intn((w.comps+1)/2) + 1
	}
	err := s.txn(func() error { return w.visit(s, comp, lock.Exclusive, true) })
	if err == nil {
		w.ackedBy[s.slot] += int64(w.perComp)
	}
	return err
}

func (w *mcMix) op(r *run, s *session, i int) (string, error) {
	switch i % 4 {
	case 2:
		return "snap", s.sc.op("snap", func() error {
			if err := s.sc.in("session.begin", s.store.BeginSnapshot); err != nil {
				return err
			}
			err := w.read(s, 0)
			if err == nil {
				err = s.db.Err()
			}
			s.db.ClearErr()
			if eerr := s.sc.in("session.commit", s.store.EndSnapshot); err == nil {
				err = eerr
			}
			return err
		})
	case 3:
		return "update", s.sc.op("update", func() error { return w.update(s) })
	}
	return "read", s.sc.op("read", func() error {
		return s.txn(func() error { return w.read(s, lock.Shared) })
	})
}

func (w *mcMix) between(r *run, s *session, i int) func() error {
	if s.slot != 0 || (i+1)%mcCheckpointEvery != 0 {
		return nil
	}
	return s.checkpoint
}

func (w *mcMix) finish(r *run) error {
	return w.crashCheck(r, func() error {
		for i := 0; i < mcTailUpdates; i++ {
			if err := w.update(r.sessions[i%2]); err != nil {
				return err
			}
		}
		w.acked = w.ackedBy[0] + w.ackedBy[1]
		return nil
	})
}

// clusterCommit: two sessions, each a shard.Router over two replica groups
// of three file-backed nodes. A transaction reads, increments and writes a
// private 128-byte object on the session's home shard; every fifth one also
// updates the session's object on the other shard, which turns its commit
// into presumed-abort two-phase commit.
type clusterCommit struct {
	objs  [2][2]esm.OID // [session][shard]
	acked [2][2]uint64  // last acknowledged value
}

const (
	clusterShards     = 2
	clusterReplicas   = 3
	clusterCrossEvery = 5
	clusterObjBytes   = 128
	clusterPool       = 8
)

func (w *clusterCommit) between(*run, *session, int) func() error { return nil }

func (w *clusterCommit) openSession(r *run, slot int, sc *sessionCtx) (*session, error) {
	tr, rt, err := r.st.router(slot%clusterShards, sc)
	if err != nil {
		return nil, err
	}
	r.routers = append(r.routers, rt)
	return &session{slot: slot, sc: sc, tr: tr,
		client: esm.NewClient(tr, esm.ClientConfig{BufferPages: clusterPool})}, nil
}

func (w *clusterCommit) setup(r *run) error {
	if err := r.st.cluster(clusterShards, clusterReplicas, esm.ServerConfig{}); err != nil {
		return err
	}
	// Each private object is created through a Router whose allocation
	// affinity is the shard it should live on.
	for slot := 0; slot < 2; slot++ {
		for sh := 0; sh < clusterShards; sh++ {
			tr, _, err := r.st.router(sh, nil)
			if err != nil {
				return err
			}
			c := esm.NewClient(tr, esm.ClientConfig{BufferPages: clusterPool})
			if err := c.Begin(); err != nil {
				return err
			}
			fid, err := c.CreateFile(shard.NameOnShard(fmt.Sprintf("bench.%d.%d", slot, sh), sh, clusterShards))
			if err != nil {
				return err
			}
			oid, _, err := c.CreateObject(c.NewCluster(fid), clusterObjBytes)
			if err != nil {
				return err
			}
			if err := c.Commit(); err != nil {
				return err
			}
			if got := shard.ShardOfPage(uint32(oid.Page)); got != sh {
				return fmt.Errorf("object for session %d landed on shard %d, want %d", slot, got, sh)
			}
			w.objs[slot][sh] = oid
		}
	}
	for slot := 0; slot < 2; slot++ {
		start := time.Now()
		s, err := w.openSession(r, slot, r.sessionCtx(slot))
		if err != nil {
			return err
		}
		r.note("session.open", time.Since(start))
		r.sessions = append(r.sessions, s)
	}
	for i := 0; i < 2*clusterCrossEvery; i++ {
		for _, s := range r.sessions {
			if _, err := w.op(r, s, i); err != nil {
				return err
			}
		}
	}
	return r.st.waitCaughtUp(clusterReplicas - 1)
}

// bump reads the counter in oid's first eight bytes, checks it against the
// last acknowledged value, and writes and logs the increment.
func (w *clusterCommit) bump(s *session, sh int) (uint64, error) {
	oid := w.objs[s.slot][sh]
	data, off, frame, err := s.client.ReadObjectAt(oid)
	if err != nil {
		return 0, err
	}
	old := append([]byte(nil), data[:8]...)
	v := binary.LittleEndian.Uint64(old)
	if want := w.acked[s.slot][sh]; v != want {
		return 0, fmt.Errorf("object on shard %d reads %d, last acknowledged %d", sh, v, want)
	}
	binary.LittleEndian.PutUint64(data[:8], v+1)
	s.client.Pool().MarkDirty(frame)
	s.client.LogUpdate(oid.Page, off, old, append([]byte(nil), data[:8]...))
	return v + 1, nil
}

func (w *clusterCommit) op(r *run, s *session, i int) (string, error) {
	home := s.slot % clusterShards
	class := "update"
	touch := []int{home}
	if (i+1)%clusterCrossEvery == 0 {
		class = "cross"
		touch = append(touch, (home+1)%clusterShards)
	}
	return class, s.sc.op(class, func() error {
		if err := s.sc.in("session.begin", s.client.Begin); err != nil {
			return err
		}
		var vals [clusterShards]uint64
		for _, sh := range touch {
			v, err := w.bump(s, sh)
			if err != nil {
				if aerr := s.client.Abort(); aerr != nil {
					return fmt.Errorf("%w (abort: %v)", err, aerr)
				}
				return err
			}
			vals[sh] = v
		}
		if err := s.sc.in("session.commit", s.client.Commit); err != nil {
			return err
		}
		for _, sh := range touch {
			w.acked[s.slot][sh] = vals[sh]
		}
		return nil
	})
}

// finish re-reads every private object through a fresh Router and requires
// the last acknowledged value, with no commit left unresolved anywhere.
func (w *clusterCommit) finish(r *run) error {
	if err := r.finalCheckpoint(); err != nil {
		return err
	}
	for _, rt := range r.routers {
		if u := rt.Stats().Unresolved; u != 0 {
			return fmt.Errorf("%d commits left a participant unresolved", u)
		}
	}
	tr, rt, err := r.st.router(0, nil)
	if err != nil {
		return err
	}
	out, err := rt.ResolveInDoubt()
	if err != nil {
		return err
	}
	if out.InDoubt != 0 {
		return fmt.Errorf("%d transactions in doubt after a clean run", out.InDoubt)
	}
	c := esm.NewClient(tr, esm.ClientConfig{BufferPages: clusterPool})
	if err := c.Begin(); err != nil {
		return err
	}
	for slot := range w.objs {
		for sh, oid := range w.objs[slot] {
			data, _, err := c.ReadObject(oid)
			if err != nil {
				return err
			}
			if v, want := binary.LittleEndian.Uint64(data[:8]), w.acked[slot][sh]; v != want {
				return fmt.Errorf("session %d shard %d: fresh router reads %d, last acknowledged %d", slot, sh, v, want)
			}
		}
	}
	return c.Commit()
}
