package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
)

// DrillOpts configures one crash drill: a seeded update workload over a
// file-backed store, a fault plane armed at one named point, a simulated
// process kill, and an invariant sweep over the recovered store.
type DrillOpts struct {
	Seed  int64             // drives the workload, the fault plane, and the values
	Point faultinject.Point // crash point to arm; zero = no crash
	HitN  int               // fire the crash on the n-th hit of Point; 0 = first

	TornWrite  bool // sub-page torn page write at the crash (detection mode)
	ShortFlush bool // the crashing log flush persists only a prefix
	Transient  int  // transient read faults injected before any crash

	Txns       int    // update transactions to attempt (per worker); 0 = 12
	AbortEvery int    // every n-th transaction aborts instead; 0 = never
	Objects    int    // oracle objects; 0 = 16
	Dir        string // scratch directory for the volume and log files

	// Workers > 1 runs that many concurrent client sessions against the
	// server, each updating its own contiguous slice of the oracle objects
	// (neighbors on boundary pages still collide, exercising the lock
	// manager). The crash then cuts off up to one in-flight transaction per
	// worker, and recovery must resolve each one atomically on its own.
	Workers int

	// Checkpointer runs fuzzy checkpoints in a loop concurrent with the
	// workload, so the checkpoint.* crash points fire while commits are in
	// flight and the log cut races transaction resolution. This is the
	// drill for the truncation boundary: a commit that lands anywhere in
	// the checkpoint window must survive the crash.
	Checkpointer bool

	// Roots makes each workload transaction also name a root after its
	// writes, which must commit and abort with them: present after restart
	// if the commit was acknowledged, absent if it aborted, and, for a commit
	// cut off by the crash, present exactly when its values survived. The
	// last transaction is killed in flight between its SetRoot and its
	// commit. For a single workload session.
	Roots bool
}

// drillRoot is a root a workload transaction named: the object of its first
// key, and the value it wrote there.
type drillRoot struct {
	name       string
	oid        esm.OID
	key        int
	val        uint64
	acked, cut bool // the transaction's commit was acknowledged; cut off
}

// payloadSize is the object size used by the drill: four objects to a
// page, so the default sixteen objects spread over more pages than the
// workload client's three frames — updates steal dirty pages to the
// server mid-transaction, and neighbors on a stolen page carry each
// other's uncommitted bytes.
const payloadSize = 2000

// drillCohFrame is one clean, tokened client frame captured right before
// the kill: what a warm client cache would still hold when it reconnects
// to the recovered server. The post-restart sweep presents the token back
// and checks the staleness invariant: "not modified" only if the cached
// bytes equal the committed image (modulo the 8-byte header LSN).
type drillCohFrame struct {
	pid   disk.PageID
	token uint64
	img   []byte
}

// captureCohFrames snapshots a client pool's clean versioned frames.
func captureCohFrames(c *esm.Client) []drillCohFrame {
	var out []drillCohFrame
	pool := c.Pool()
	for i := 0; i < pool.Len(); i++ {
		f := pool.Frame(i)
		if f.Page == disk.InvalidPage || f.Dirty || f.LSN == 0 {
			continue
		}
		out = append(out, drillCohFrame{
			pid:   f.Page,
			token: f.LSN,
			img:   append([]byte(nil), f.Data...),
		})
	}
	return out
}

// RunCrashDrill executes one drill: build a committed baseline on a
// file-backed volume and log, arm the fault plane, run seeded update
// transactions through steal-prone clients until the crash fires (or the
// workload ends), kill the server without any orderly shutdown, reopen
// the files the way restart would find them, and verify every recovery
// invariant. The returned error reports harness problems (unusable
// scratch dir); invariant breaks go in the report instead.
func RunCrashDrill(opts DrillOpts) (*DrillReport, error) {
	if opts.Txns == 0 {
		opts.Txns = 12
	}
	if opts.Objects == 0 {
		opts.Objects = 16
	}
	if opts.HitN == 0 {
		opts.HitN = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &DrillReport{}

	// A two-frame server pool keeps the write-back (steal) path hot: most
	// installs and reads evict a dirty page to the volume, so the
	// pool.steal.* and disk.write points fire inside ordinary traffic.
	scfg := esm.ServerConfig{BufferPages: 2}
	if opts.Workers > 1 {
		// Concurrent drills keep the pool smaller than the working set (the
		// steal path stays hot) but give the extra sessions a little room,
		// shorten the lock timeout so cross-worker page conflicts on
		// boundary pages resolve quickly, and turn on group commit so the
		// crash points fire inside batched log forces too.
		scfg.BufferPages = 4
		scfg.LockTimeout = 300 * time.Millisecond
		scfg.CommitWindow = 500 * time.Microsecond
	}
	plane := faultinject.New(opts.Seed)
	node, err := newDrillNode(opts.Dir, plane, scfg)
	if err != nil {
		return nil, err
	}
	srv := node.srv

	// Baseline: the oracle objects, committed and checkpointed before any
	// fault is armed. Worker wk owns the contiguous keys [wk*per,
	// (wk+1)*per), so most pages stay within one worker and only boundary
	// pages carry cross-worker lock conflicts.
	workers := max(opts.Workers, 1)
	per := (opts.Objects + workers - 1) / workers
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 3})
	if err := c.Begin(); err != nil {
		return nil, err
	}
	fid, err := c.CreateFile("drill")
	if err != nil {
		return nil, err
	}
	cl := c.NewCluster(fid)
	oids := make([]esm.OID, opts.Objects)
	keys := make(oracle, opts.Objects)
	for i := range oids {
		oid, data, err := c.CreateObject(cl, payloadSize)
		if err != nil {
			return nil, err
		}
		v := rng.Uint64()
		putValue(data, v)
		oids[i], keys[i] = oid, oracleKey{committed: v, group: i / per}
		if err := c.SetRoot(fmt.Sprintf("drill.obj.%d", i), oid, uint64(i)); err != nil {
			return nil, err
		}
	}
	if err := c.Commit(); err != nil {
		return nil, err
	}
	if err := srv.Checkpoint(); err != nil {
		return nil, err
	}

	// Arm the plane and run the workload until the crash.
	if opts.TornWrite {
		plane.SetTornWrite(1, disk.PageSize-1)
	}
	plane.SetShortFlush(opts.ShortFlush)
	if opts.Transient > 0 {
		plane.ArmTransient(faultinject.PtDiskRead, opts.Transient)
	}
	if opts.Point != 0 {
		plane.ArmCrash(opts.Point, opts.HitN)
	}

	// The checkpointer races fuzzy checkpoints against the workload: the
	// log cut, volume sync, and truncation all happen while commits are in
	// flight. It stops on its own once the crash latch drops (every
	// checkpoint then fails fast) and is joined before verification so no
	// I/O races the handle teardown.
	stopCk := make(chan struct{})
	var ckWG sync.WaitGroup
	if opts.Checkpointer {
		ckWG.Add(1)
		go func() {
			defer ckWG.Done()
			for {
				select {
				case <-stopCk:
					return
				default:
				}
				if err := srv.Checkpoint(); err != nil {
					return
				}
			}
		}()
	}

	// The single-session drill is worker 0 on the baseline's random stream;
	// each concurrent worker seeds its own.
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo, hi := wk*per, min((wk+1)*per, len(oids))
		if lo >= hi {
			continue
		}
		wrng := rng
		if workers > 1 {
			wrng = rand.New(rand.NewSource(opts.Seed + 7919*int64(wk+1)))
		}
		wg.Add(1)
		go func(wk, lo, hi int, wrng *rand.Rand) {
			defer wg.Done()
			results[wk] = drillWorker(srv, keys, oids, lo, hi, wrng, opts)
		}(wk, lo, hi, wrng)
	}
	wg.Wait()
	close(stopCk)
	ckWG.Wait()

	var attempts int64
	var warm []drillCohFrame
	var roots []drillRoot
	for _, r := range results {
		roots = append(roots, r.roots...)
		rep.Committed += r.Committed
		rep.Aborted += r.Aborted
		rep.InDoubt = rep.InDoubt || r.InDoubt
		rep.Retries += r.Retries
		attempts += r.attempts
		warm = append(warm, r.warm...)
	}
	rep.Crashed = plane.Crashed()
	rep.Trace = plane.Trace()
	rep.WarmFrames = len(warm)
	return crashVerify(rep, node, keys, oids, attempts, warm, roots)
}

// workerResult is one workload session's share of the report.
type workerResult struct {
	DrillReport                 // Committed, Aborted, InDoubt, Retries
	attempts    int64           // transactions that reached their counter increment
	warm        []drillCohFrame // the client's warm cache at the kill
	roots       []drillRoot     // the roots its transactions named (DrillOpts.Roots)
}

// drillWorker is one workload session: seeded update transactions over
// keys [lo, hi) until the crash (or an abandoned transaction) stops it. Any
// error short of a commit ack leaves the transaction for recovery to roll
// back; a commit cut off mid-protocol leaves its keys in doubt.
func drillWorker(srv *esm.Server, keys oracle, oids []esm.OID, lo, hi int, rng *rand.Rand, opts DrillOpts) (r workerResult) {
	w := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{
		BufferPages: 3, // steal-prone: dirty pages ship mid-transaction
		Retry:       esm.RetryPolicy{MaxAttempts: 4},
	})
	defer func() {
		r.Retries = w.Retries()
		// Clean frames and the coherence tokens the server handed out
		// before the kill: the verify sweep presents them to the recovered
		// server.
		r.warm = captureCohFrames(w)
	}()
	for t := 1; t <= opts.Txns; t++ {
		if err := w.Begin(); err != nil {
			return r
		}
		// Update 1-3 distinct keys with fresh seeded values.
		picked := rng.Perm(hi - lo)
		picked = picked[:min(1+rng.Intn(3), len(picked))]
		vals := map[int]uint64{}
		for _, i := range picked {
			v := rng.Uint64()
			if err := writeValue(w, oids[lo+i], v); err != nil {
				return r
			}
			vals[lo+i] = v
		}
		if opts.Roots {
			i := lo + picked[0]
			r.roots = append(r.roots, drillRoot{name: fmt.Sprintf("drill.tx.%d.%d", lo, t), oid: oids[i], key: i, val: vals[i]})
			if err := w.SetRoot(r.roots[len(r.roots)-1].name, oids[i], uint64(t)); err != nil || t == opts.Txns {
				return r // in flight at the kill: its values and its root must be gone
			}
		}
		r.attempts++
		if _, err := w.Counter("drill.count", 1); err != nil {
			return r
		}
		if opts.AbortEvery > 0 && t%opts.AbortEvery == 0 {
			// Acked or not, an abort leaves only committed values behind.
			if err := w.Abort(); err != nil {
				return r
			}
			r.Aborted++
			continue
		}
		if err := w.Commit(); err != nil {
			// Cut off mid-commit: recovery decides whether this session's
			// transaction happened, independently of the other sessions'.
			keys.cutOff(vals)
			r.InDoubt = true
			if opts.Roots {
				r.roots[len(r.roots)-1].cut = true
			}
			return r
		}
		keys.acked(vals)
		r.Committed++
		if opts.Roots {
			r.roots[len(r.roots)-1].acked = true
		}
	}
	return r
}

// crashVerify kills the node, restarts it the way a fresh process would,
// and sweeps every recovery invariant.
func crashVerify(rep *DrillReport, node *drillNode, keys oracle, oids []esm.OID,
	attempts int64, warm []drillCohFrame, roots []drillRoot) (*DrillReport, error) {
	if err := node.kill(); err != nil {
		return nil, err
	}
	srv, err := node.restart(esm.ServerConfig{BufferPages: 64})
	if err != nil {
		rep.violate("%v", err)
		return rep, nil
	}
	defer node.close()

	// Invariant: coherence across the crash. For every clean tokened frame
	// the pre-crash clients still held, a versioned read against the
	// recovered server may answer "not modified" ONLY if the cached bytes
	// are byte-identical to the committed image (modulo the 8-byte header
	// LSN clients never read) — a too-old "not modified" after recovery is
	// a silent stale read. A delta answer must reconstruct exactly the
	// committed image when applied over the cached bytes.
	for _, f := range warm {
		// One request: the page with nothing held (the committed image),
		// then the page presenting the frame's token.
		entries := esm.AppendPageEntry(esm.AppendPageEntry(nil, uint32(f.pid), 0), uint32(f.pid), f.token)
		resp := srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(f.pid), Data: entries})
		a := esm.ReadAnswers(entries, resp.Data)
		full := make([]byte, disk.PageSize)
		whole := resp.Err == "" && a.Next() && a.Kind == esm.PageFull && a.Apply(full) == nil
		if !whole || !a.Next() || a.Stale && !a.Answered {
			rep.violate("coherence sweep: page %d unreadable after restart: %s %v", f.pid, resp.Err, a.Err())
			continue
		}
		got, how := f.img, "not-modified" // what the cached copy becomes
		if a.Stale {
			got, how = bytes.Clone(f.img), "full"
			if a.Kind == esm.PageDelta {
				how = "delta"
			}
			if err := a.Apply(got); err != nil {
				rep.violate("coherence sweep: %s repair of page %d unappliable: %v", how, f.pid, err)
				continue
			}
		}
		if !bytes.Equal(got[8:], full[8:]) {
			rep.violate("coherence sweep: recovery served %s for page %d (token %#x) but the result is not the committed image", how, f.pid, f.token)
		}
	}

	v := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		rep.violate("post-recovery begin: %v", err)
		return rep, nil
	}

	// Invariant: catalog roots still resolve to the same objects.
	for i, want := range oids {
		oid, aux, err := v.GetRoot(fmt.Sprintf("drill.obj.%d", i))
		if err != nil {
			rep.violate("root drill.obj.%d lost: %v", i, err)
			continue
		}
		if oid != want || aux != uint64(i) {
			rep.violate("root drill.obj.%d points at %v/%d, want %v/%d", i, oid, aux, want, i)
		}
	}

	keys.verify(rep, func(i int) ([]byte, error) {
		data, _, err := v.ReadObject(oids[i])
		return data, err
	})

	// Invariant: a transaction's root went the way of its writes.
	for _, rt := range roots {
		oid, _, err := v.GetRoot(rt.name)
		present, want := err == nil && oid == rt.oid, rt.acked
		if rt.cut {
			data, _, err := v.ReadObject(oids[rt.key])
			got, _ := getValue(data)
			want = err == nil && got == rt.val
		}
		if present != want {
			rep.violate("root %s present=%v after restart, want %v (acked %v, cut off %v)", rt.name, present, want, rt.acked, rt.cut)
		}
	}

	// Invariant: the attempts counter survived within its bounds — every
	// acked commit carried it to the catalog, and nothing can exceed the
	// attempted increments.
	if count, err := v.Counter("drill.count", 0); err != nil {
		rep.violate("counter lost: %v", err)
	} else if int64(count) < int64(rep.Committed) || int64(count) > attempts {
		rep.violate("counter %d outside [%d committed, %d attempted]", count, rep.Committed, attempts)
	}

	// Invariant: the recovered store still takes transactions end to end.
	if err := writeValue(v, oids[0], 0xD0D0D0D0D0D0D0D0); err != nil {
		rep.violate("post-recovery write: %v", err)
		return rep, nil
	}
	if err := v.Commit(); err != nil {
		rep.violate("post-recovery commit: %v", err)
		return rep, nil
	}
	if err := v.Begin(); err == nil {
		if data, _, err := v.ReadObject(oids[0]); err != nil {
			rep.violate("post-recovery reread: %v", err)
		} else if got, ok := getValue(data); !ok || got != 0xD0D0D0D0D0D0D0D0 {
			rep.violate("post-recovery write lost (%#x, checksum %v)", got, ok)
		}
		if err := v.Commit(); err != nil {
			rep.violate("post-recovery reread commit: %v", err)
		}
	}
	return rep, nil
}
