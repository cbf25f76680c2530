package shard

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
)

// Config tunes a Router.
type Config struct {
	// Affinity, when >= 0, is the shard that receives this session's page
	// allocations. Partitionable workloads pin each session to its home
	// shard so single-shard commits stay on the one-phase fast path.
	// -1 (and the zero value via NewRouter's normalization) rotates
	// allocations round-robin.
	Affinity int
}

// Router is a client-side sharding transport: it implements esm.Transport
// over N per-shard transports, routing every request by the shard map's
// deterministic rules and rewriting page/file ids between the global
// (client) and local (server) id spaces. Transactions are begun lazily on
// each shard at first touch; a commit that touched one shard forwards the
// ordinary one-phase OpCommit (beginning the transaction there itself,
// esm.TxBegin, when nothing else did), while a cross-shard commit runs the
// presumed-abort two-phase protocol with the first-touched shard as
// coordinator.
//
// A Router carries one session's transaction state but is safe for
// concurrent calls from that session.
type Router struct {
	trs      []esm.Transport
	affinity int
	rr       atomic.Uint32
	nextTx   atomic.Uint64

	mu  sync.Mutex
	txs map[uint64]*routedTx

	stats struct {
		singleCommits atomic.Int64
		crossCommits  atomic.Int64
		prepares      atomic.Int64
		aborts        atomic.Int64
		prepareFails  atomic.Int64
		unresolved    atomic.Int64
		forgets       atomic.Int64
	}
}

// routedTx tracks one global transaction's footprint: the lazily-begun
// local transaction per touched shard (order preserves first touch — the
// first shard is the commit coordinator).
type routedTx struct {
	mu    sync.Mutex
	local map[int]uint64
	order []int
}

// RouterStats is a snapshot of the Router's protocol counters.
type RouterStats struct {
	SingleCommits int64 // one-phase fast-path commits
	CrossCommits  int64 // two-phase cross-shard commits
	Prepares      int64 // participant prepares sent (phase 1)
	Aborts        int64 // transaction aborts fanned out
	PrepareFails  int64 // phase-1 failures and refused coordinator parts (aborted everywhere)
	Unresolved    int64 // committed, but a participant missed its verdict
	Forgets       int64 // decisions forgotten after full acknowledgement
}

// NewRouter builds a Router over one transport per shard (index = shard
// id). The Router owns the transports: Close closes them.
func NewRouter(trs []esm.Transport, cfg Config) (*Router, error) {
	if len(trs) == 0 || len(trs) > MaxShards {
		return nil, fmt.Errorf("shard: router needs 1..%d transports, got %d", MaxShards, len(trs))
	}
	if cfg.Affinity >= len(trs) {
		return nil, fmt.Errorf("shard: affinity %d out of range for %d shards", cfg.Affinity, len(trs))
	}
	return &Router{
		trs:      trs,
		affinity: cfg.Affinity,
		txs:      map[uint64]*routedTx{},
	}, nil
}

// Dial builds a Router straight from a shard map (CLI path): transports
// are opened with m.DialTransports, replica groups behind Directors.
func Dial(m Map, dial Dialer, cfg Config) (*Router, error) {
	trs, err := m.DialTransports(dial)
	if err != nil {
		return nil, err
	}
	return NewRouter(trs, cfg)
}

// NumShards returns the cluster width.
func (r *Router) NumShards() int { return len(r.trs) }

// Stats returns a snapshot of the Router's protocol counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		SingleCommits: r.stats.singleCommits.Load(),
		CrossCommits:  r.stats.crossCommits.Load(),
		Prepares:      r.stats.prepares.Load(),
		Aborts:        r.stats.aborts.Load(),
		PrepareFails:  r.stats.prepareFails.Load(),
		Unresolved:    r.stats.unresolved.Load(),
		Forgets:       r.stats.forgets.Load(),
	}
}

// Close implements esm.Transport.
func (r *Router) Close() error {
	var first error
	for _, tr := range r.trs {
		if err := tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// call forwards one request to a shard and surfaces remote errors.
func (r *Router) call(shard int, req *esm.Request) (*esm.Response, error) {
	if shard < 0 || shard >= len(r.trs) {
		return nil, fmt.Errorf("shard: id routes to shard %d of %d (foreign-map identifier?)", shard, len(r.trs))
	}
	return r.trs[shard].Call(req)
}

// CallShard sends a raw request to one shard — the sanctioned per-shard
// access path for observability (the qsstore stats per-shard view).
func (r *Router) CallShard(shard int, req *esm.Request) (*esm.Response, error) {
	return r.call(shard, req)
}

func (r *Router) tx(gid uint64) (*routedTx, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.txs[gid]
	if t == nil {
		return nil, fmt.Errorf("shard: unknown transaction %d", gid)
	}
	return t, nil
}

// footprint copies the shards the transaction has begun on, in the order it
// touched them, and its local id on each.
func (t *routedTx) footprint() (order []int, locals map[int]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.order), maps.Clone(t.local)
}

// localFor returns the shard-local transaction id for t on shard,
// beginning one lazily at first touch. The first shard touched becomes
// the transaction's commit coordinator.
func (r *Router) localFor(t *routedTx, shard int) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.local[shard]; ok {
		return id, nil
	}
	resp, err := r.call(shard, &esm.Request{Op: esm.OpBegin})
	if err != nil {
		return 0, err
	}
	id, refused := resp.N, resp.Err
	resp.Release()
	if refused != "" {
		return 0, fmt.Errorf("shard %d: begin: %s", shard, refused)
	}
	t.local[shard] = id
	t.order = append(t.order, shard)
	return id, nil
}

// beginOn begins t on each of shards it has not begun on yet, with one
// concurrent OpBegin each (a steal's log batch, a cross-shard commit), and
// records them in shards' order, as localFor would have one after another.
// A shard whose begin failed is left out, so an abort reaches exactly the
// begun ones.
func (r *Router) beginOn(t *routedTx, shards []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var begins map[int]*esm.Request // nil while every shard is begun
	for _, shard := range shards {
		if _, ok := t.local[shard]; !ok {
			if begins == nil {
				begins = map[int]*esm.Request{}
			}
			begins[shard] = &esm.Request{Op: esm.OpBegin}
		}
	}
	if begins == nil {
		return nil
	}
	resps, err := r.fanOut(begins)
	for _, shard := range shards {
		if resp := resps[shard]; resp != nil {
			t.local[shard] = resp.N
			t.order = append(t.order, shard)
		}
	}
	releaseAll(resps)
	if err != nil {
		return fmt.Errorf("shard: begin: %w", err)
	}
	return nil
}

// answerN returns a pooled answer carrying n, for a Router that answers a
// request itself: its caller releases it, as it does a shard's.
func answerN(n uint64) *esm.Response {
	resp := esm.PooledResponse()
	resp.N = n
	return resp
}

// Call implements esm.Transport: the full per-op routing table.
func (r *Router) Call(req *esm.Request) (*esm.Response, error) {
	switch req.Op {
	case esm.OpBegin:
		gid := r.nextTx.Add(1)
		r.mu.Lock()
		r.txs[gid] = &routedTx{local: map[int]uint64{}}
		r.mu.Unlock()
		return answerN(gid), nil

	case esm.OpCommit:
		return r.commit(req)

	case esm.OpAbort:
		return r.abort(req.Tx)

	case esm.OpFreePages:
		return r.pageOp(req, ShardOfPage(req.Page), LocalPage(req.Page))

	case esm.OpLock:
		kind := lock.Kind(req.Mode >> 4)
		switch kind {
		case lock.KindPage:
			return r.lockPages(req)
		case lock.KindFile:
			return r.pageOp(req, ShardOfFile(req.Page), LocalFile(req.Page))
		}
		return nil, fmt.Errorf("shard: lock on unroutable resource kind %d", kind)

	case esm.OpAllocPages:
		return r.alloc(req)

	case esm.OpLog:
		return r.logBatch(req)

	case esm.OpReadPages:
		return r.readPages(req)

	case esm.OpCreateFile, esm.OpOpenFile:
		shard := ShardOfName(req.Name, len(r.trs))
		resp, err := r.call(shard, req)
		if err != nil || resp.Err != "" {
			return resp, err
		}
		if resp.N > localMask {
			return nil, fmt.Errorf("shard %d: local file id %d overflows the %d-bit local space", shard, resp.N, localBits)
		}
		out := *resp
		out.N = uint64(GlobalFile(shard, uint32(resp.N)))
		return &out, nil

	case esm.OpCounter:
		return r.call(ShardOfName(req.Name, len(r.trs)), req)

	case esm.OpCheckpoint:
		for shard := range r.trs {
			resp, err := r.call(shard, req)
			if err != nil {
				return nil, err
			}
			if resp.Err != "" {
				return resp, nil
			}
			resp.Release()
		}
		return esm.PooledResponse(), nil

	case esm.OpStats:
		return r.aggregateStats(req)

	case esm.OpBeginSnapshot, esm.OpEndSnapshot:
		// Shard 0's prefix is zero, so on a one-shard cluster global and
		// local ids coincide and snapshots pass straight through. A
		// cross-shard consistent snapshot needs a coordinated LSN vector;
		// until then sharded deployments read through transactions.
		if len(r.trs) == 1 {
			return r.call(0, req)
		}
		return nil, fmt.Errorf("shard: %v not supported on a %d-shard cluster (snapshots are per-shard)", req.Op, len(r.trs))
	}
	return nil, fmt.Errorf("shard: unroutable op %v", req.Op)
}

// pageOp forwards a page-addressed request to its shard with the id
// localized, beginning the transaction there if need be.
func (r *Router) pageOp(req *esm.Request, shard int, local uint32) (*esm.Response, error) {
	fwd := *req
	fwd.Page = local
	if req.Tx != 0 {
		t, err := r.tx(req.Tx)
		if err != nil {
			return nil, err
		}
		fwd.Tx, err = r.localFor(t, shard)
		if err != nil {
			return nil, err
		}
	}
	return r.call(shard, &fwd)
}

// alloc routes a page allocation: to the session's affinity shard when
// configured, round-robin otherwise. The returned run is re-globalized;
// a shard whose local space cannot hold the run fails loudly rather than
// handing out ids that alias another shard's pages.
func (r *Router) alloc(req *esm.Request) (*esm.Response, error) {
	shard := r.affinity
	if shard < 0 {
		shard = int(r.rr.Add(1)-1) % len(r.trs)
	}
	resp, err := r.pageOp(req, shard, req.Page)
	if err != nil || resp.Err != "" {
		return resp, err
	}
	if uint64(resp.Page)+req.N-1 > localMask {
		return nil, fmt.Errorf("shard %d: allocated run [%d,+%d) overflows the %d-bit local page space", shard, resp.Page, req.N, localBits)
	}
	out := *resp
	out.Page = GlobalPage(shard, resp.Page)
	return &out, nil
}

// splitPayload splits transaction gid's commit payload by page shard, ids
// made local. It returns the transaction, the parts and the shards the
// payload reaches, in the order it reaches them; it begins nothing.
func (r *Router) splitPayload(gid uint64, data []byte) (t *routedTx, parts map[int][]byte, reached []int, err error) {
	t, err = r.tx(gid)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, reached, err = esm.SplitPayload(data, ShardOfPage, LocalPage)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: %w", err)
	}
	return t, parts, reached, nil
}

// logBatch splits a steal's OpLog payload by shard, begins the transaction
// on the shards it reaches first, and fans the parts out concurrently.
func (r *Router) logBatch(req *esm.Request) (*esm.Response, error) {
	t, parts, reached, err := r.splitPayload(req.Tx, req.Data)
	if err != nil {
		return nil, err
	}
	if err := r.beginOn(t, reached); err != nil {
		return nil, err
	}
	_, locals := t.footprint()
	reqs := make(map[int]*esm.Request, len(parts))
	for shard, data := range parts {
		reqs[shard] = &esm.Request{Op: esm.OpLog, Tx: locals[shard], Data: data}
	}
	resps, err := r.fanOut(reqs)
	releaseAll(resps)
	if err != nil {
		return nil, err
	}
	return esm.PooledResponse(), nil
}

// fanOut sends reqs[shard] to every shard in reqs concurrently. It returns
// the responses of the shards that answered without error, which the caller
// releases, and the first error, a remote one included (its response is
// released here).
func (r *Router) fanOut(reqs map[int]*esm.Request) (map[int]*esm.Response, error) {
	type result struct {
		shard int
		resp  *esm.Response
		err   error
	}
	results := make(chan result, len(reqs))
	for shard, req := range reqs {
		go func(shard int, req *esm.Request) {
			resp, err := r.call(shard, req)
			if err == nil && resp.Err != "" {
				err = fmt.Errorf("shard %d: %s", shard, resp.Err)
				resp.Release()
				resp = nil
			}
			results <- result{shard: shard, resp: resp, err: err}
		}(shard, req)
	}
	resps := make(map[int]*esm.Response, len(reqs))
	var first error
	for range reqs {
		res := <-results
		if res.err == nil {
			resps[res.shard] = res.resp
		} else if first == nil {
			first = res.err
		}
	}
	return resps, first
}

// splitEntries partitions a page entry list of n entries by each entry's
// shard: per shard, the request indexes of its entries, in order, and a
// request of kind op carrying them with page ids made local. keep, if not
// nil, picks the shards that get one.
func splitEntries(op esm.Op, data []byte, n int, keep func(shard int) bool) (map[int][]int, map[int]*esm.Request) {
	idx := map[int][]int{}
	reqs := map[int]*esm.Request{}
	for i := 0; i < n; i++ {
		pid, token := esm.PageEntry(data, i)
		shard := ShardOfPage(pid)
		if keep != nil && !keep(shard) {
			continue
		}
		fwd := reqs[shard]
		if fwd == nil {
			fwd = &esm.Request{Op: op, Page: LocalPage(pid)}
			reqs[shard] = fwd
		}
		idx[shard] = append(idx[shard], i)
		fwd.Data = esm.AppendPageEntry(fwd.Data, LocalPage(pid), token)
	}
	return idx, reqs
}

// lockPages routes a page lock and its lock-ahead list, if any. The demanded
// page goes to its shard as in pageOp, with the entries that shard owns. The
// entries of every other shard the transaction has already begun on go there
// in a request that demands nothing (page disk.InvalidPage), so the caller
// waits for the demanded page alone; the verdicts come back in request order.
// Entries of a shard the transaction has not touched are refused here: a lock
// taken on a guess must not enlist a participant and turn a one-phase commit
// into two-phase commit.
func (r *Router) lockPages(req *esm.Request) (*esm.Response, error) {
	n, err := esm.PageEntryCount(req.Data)
	if err != nil {
		return nil, err
	}
	t, err := r.tx(req.Tx)
	if err != nil {
		return nil, err
	}
	home := ShardOfPage(req.Page)
	if _, err := r.localFor(t, home); err != nil {
		return nil, err
	}
	_, locals := t.footprint()
	idx, reqs := splitEntries(esm.OpLock, req.Data, n, func(shard int) bool { return locals[shard] != 0 })
	if reqs[home] == nil {
		reqs[home] = &esm.Request{Op: esm.OpLock}
	}
	for shard, fwd := range reqs {
		fwd.Tx, fwd.Page, fwd.Mode = locals[shard], uint32(disk.InvalidPage), req.Mode
	}
	reqs[home].Page, reqs[home].N = LocalPage(req.Page), req.N
	resps, err := r.fanOut(reqs)
	if err != nil {
		return nil, err
	}
	out := &esm.Response{Mode: resps[home].Mode, Data: make([]byte, n)} // esm.LockAheadRefused unless a shard says otherwise
	for shard, resp := range resps {
		if len(resp.Data) != len(idx[shard]) {
			return nil, fmt.Errorf("shard %d: lock response has %d verdicts for %d entries", shard, len(resp.Data), len(idx[shard]))
		}
		for k, i := range idx[shard] {
			out.Data[i] = resp.Data[k]
		}
	}
	releaseAll(resps)
	return out, nil
}

// readPages splits an OpReadPages request by each entry's page shard, fans
// the parts out concurrently, and reassembles one answer in request order
// with page ids made global again. A part carries the transaction's local id
// only to a shard the transaction has already begun on: a read never
// enlists a shard, since reading alone gives a shard nothing to commit, and
// enlisting it would only widen the commit. Snapshot reads (N != 0) pass
// through only on a one-shard cluster, as BeginSnapshot does. A root
// directory read (Name set) goes whole to the shard that owns the name, and
// its answer names that shard's directory page globally in Page.
func (r *Router) readPages(req *esm.Request) (*esm.Response, error) {
	if req.N != 0 && len(r.trs) != 1 {
		return nil, fmt.Errorf("shard: snapshot reads not supported on a %d-shard cluster (snapshots are per-shard)", len(r.trs))
	}
	n, err := esm.PageEntryCount(req.Data)
	if err != nil {
		return nil, err
	}
	var locals map[int]uint64
	if req.Tx != 0 {
		t, err := r.tx(req.Tx)
		if err != nil {
			return nil, err
		}
		_, locals = t.footprint()
	}
	if req.Name != "" {
		shard := ShardOfName(req.Name, len(r.trs))
		fwd := *req
		fwd.Tx = locals[shard]
		resp, err := r.call(shard, &fwd)
		if err == nil {
			resp.Page = GlobalPage(shard, req.Page)
		}
		return resp, err
	}
	_, reqs := splitEntries(esm.OpReadPages, req.Data, n, nil)
	for shard, fwd := range reqs {
		fwd.Tx, fwd.N, fwd.Mode = locals[shard], req.N, req.Mode
	}
	resps, err := r.fanOut(reqs)
	if err != nil {
		return nil, err
	}
	parts := make(map[int]*esm.PageAnswers, len(resps))
	for shard, resp := range resps {
		a := esm.ReadAnswers(reqs[shard].Data, resp.Data)
		parts[shard] = &a
	}
	out, bitmap := esm.AppendAnswerHead(nil, n)
	for i := 0; i < n; i++ {
		pid, _ := esm.PageEntry(req.Data, i)
		a := parts[ShardOfPage(pid)]
		if !a.Next() {
			return nil, fmt.Errorf("shard %d: %v", ShardOfPage(pid), a.Err())
		}
		if a.Stale {
			esm.MarkStale(out, bitmap, i)
		}
		if a.Answered {
			out = esm.AppendAnswer(out, pid, a.Kind, a.Token, a.Data)
		}
	}
	for shard, a := range parts {
		if a.Next() || a.Err() != nil {
			return nil, fmt.Errorf("shard %d: read answer past its request: %v", shard, a.Err())
		}
	}
	releaseAll(resps)
	return &esm.Response{Data: out}, nil
}

// releaseAll releases the shard answers a reassembled answer was copied from.
func releaseAll(resps map[int]*esm.Response) {
	for _, resp := range resps {
		resp.Release()
	}
}

// StampLSN implements esm.ShardStamper: servers stamp what they install.
func (r *Router) StampLSN(uint64, disk.PageID) uint64 { return 0 }

// commit resolves a transaction: one-phase when a single shard was
// touched, presumed-abort two-phase otherwise. The first-touched shard
// coordinates: every other participant prepares (votes durably), then the
// coordinator commits its own part under its single decision record and
// the verdict fans out. A participant that misses its verdict is left
// prepared — in doubt — for the resolver (ResolveAll / OpResolveTx).
func (r *Router) commit(req *esm.Request) (*esm.Response, error) {
	defer func() {
		r.mu.Lock()
		delete(r.txs, req.Tx)
		r.mu.Unlock()
	}()
	// Every shard the payload reaches is a participant, after the shards
	// the transaction already began on (the payload may reach one first:
	// a page logged without a lock on its shard).
	t, parts, reached, err := r.splitPayload(req.Tx, req.Data)
	if err != nil {
		return nil, err
	}
	participants, locals := t.footprint()
	for _, shard := range reached {
		if _, ok := locals[shard]; !ok {
			participants = append(participants, shard)
		}
	}

	if len(participants) == 0 {
		return esm.PooledResponse(), nil // touched nothing; nothing to resolve
	}
	if len(participants) == 1 {
		// One-phase fast path: the ordinary commit, carrying the shard's
		// part of the payload. On a shard the transaction never began on
		// (it wrote there without a lock), the commit begins it: one round
		// trip, and a refused commit leaves nothing behind there.
		shard := participants[0]
		tx, begun := locals[shard]
		if !begun {
			tx = esm.TxBegin
		}
		resp, err := r.call(shard, &esm.Request{Op: esm.OpCommit, Tx: tx, Data: parts[shard]})
		if err == nil && resp.Err == "" {
			r.stats.singleCommits.Add(1)
		}
		return resp, err
	}

	// Two-phase: every participant needs its local id first. The begins
	// the transaction still lacks go out in one fan-out; if one fails, the
	// transaction ends on the shards it did begin on.
	err = r.beginOn(t, participants)
	participants, locals = t.footprint()
	if err != nil {
		_ = r.abortAll(participants, locals)
		return nil, err
	}

	coord := participants[0]
	coordLocal := locals[coord]

	// Phase 1: prepare every participant but the coordinator, concurrently.
	// Any failure aborts the transaction everywhere — no decision record is
	// ever written, so abort is the presumed outcome at every participant.
	prepares := make(map[int]*esm.Request, len(participants)-1)
	for _, shard := range participants[1:] {
		prepares[shard] = &esm.Request{Op: esm.OpPrepare, Tx: locals[shard], Page: uint32(coord), N: coordLocal, Data: parts[shard]}
	}
	r.stats.prepares.Add(int64(len(prepares)))
	votes, prepareErr := r.fanOut(prepares)
	releaseAll(votes)
	if prepareErr != nil {
		r.stats.prepareFails.Add(1)
		_ = r.abortAll(participants, locals)
		return nil, fmt.Errorf("shard: prepare failed, transaction aborted: %w", prepareErr)
	}

	// Phase 2, decision point: the coordinator applies its own part and
	// appends its RecDecision, the transaction's one durable commit record.
	// Until it is forced the whole transaction can still abort; after it,
	// the outcome is commit no matter who crashes.
	resp, err := r.call(coord, &esm.Request{
		Op:   esm.OpCommitDecision,
		Tx:   coordLocal,
		Mode: esm.DecisionCommit | esm.DecisionCoord,
		Data: parts[coord],
	})
	if err != nil {
		// The decision may or may not have been logged: the transaction is
		// in doubt from this session's point of view. Participants stay
		// prepared; the resolver settles them against the coordinator's
		// log once it is back. Inquiring now would race a decision that may
		// still be being appended.
		return nil, fmt.Errorf("shard: commit outcome in doubt (coordinator decision failed): %w", err)
	}
	decisionLSN, refused := resp.N, resp.Err
	resp.Release()
	if refused != "" {
		// The coordinator finished with the request and refused it. If it
		// appended no decision record (its part was refused, say), the
		// transaction ends here, everywhere: no participant is left
		// prepared. Otherwise the decision is logged and only its ack was
		// lost: in doubt, as above.
		err := fmt.Errorf("shard %d: %s", coord, refused)
		if !r.decisionAbsent(coord, coordLocal) {
			return nil, fmt.Errorf("shard: commit outcome in doubt (coordinator decision failed): %w", err)
		}
		r.stats.prepareFails.Add(1)
		_ = r.abortAll(participants, locals)
		return nil, fmt.Errorf("shard: coordinator refused its part, transaction aborted: %w", err)
	}

	// Phase 2, fan-out: deliver the verdict to the other participants.
	verdicts := make(map[int]*esm.Request, len(participants)-1)
	for _, shard := range participants[1:] {
		verdicts[shard] = &esm.Request{Op: esm.OpCommitDecision, Tx: locals[shard], Mode: esm.DecisionCommit}
	}
	acks, _ := r.fanOut(verdicts)
	missed := len(verdicts) - len(acks)
	releaseAll(acks)
	r.stats.crossCommits.Add(1)
	if missed > 0 {
		// Still a successful commit — the decision is durable. The missed
		// participants are in doubt until resolved, and the coordinator
		// keeps the decision remembered for their inquiry.
		r.stats.unresolved.Add(int64(missed))
		return answerN(decisionLSN), nil
	}
	// Phase 2.5: every participant holds the outcome; the coordinator may
	// forget the decision (and unpin its checkpoint cut). Best-effort — a
	// lost forget only delays truncation until the sweep resolver's next
	// round.
	if fresp, ferr := r.call(coord, &esm.Request{Op: esm.OpResolveTx, Tx: coordLocal, Mode: esm.ResolveModeForget}); ferr == nil {
		fresp.Release()
		r.stats.forgets.Add(1)
	}
	return answerN(decisionLSN), nil
}

// decisionAbsent asks coordinator shard coord whether it appended a
// decision record for its transaction tx. Only a clean pending or aborted
// answer says it did not; a committed answer, or an inquiry that fails,
// leaves the outcome open.
func (r *Router) decisionAbsent(coord int, tx uint64) bool {
	resp, err := r.call(coord, &esm.Request{Op: esm.OpResolveTx, Tx: tx, Mode: esm.ResolveModeInquire})
	if err != nil {
		return false
	}
	defer resp.Release()
	return resp.Err == "" && (resp.N == esm.ResolvePending || resp.N == esm.ResolveAborted)
}

// abort rolls the transaction back on every touched shard, concurrently.
func (r *Router) abort(gid uint64) (*esm.Response, error) {
	t, err := r.tx(gid)
	if err != nil {
		return nil, err
	}
	defer func() {
		r.mu.Lock()
		delete(r.txs, gid)
		r.mu.Unlock()
	}()
	participants, locals := t.footprint()
	r.stats.aborts.Add(1)
	if err := r.abortAll(participants, locals); err != nil {
		return nil, err
	}
	return esm.PooledResponse(), nil
}

// abortAll sends OpAbort to every shard in participants, concurrently, and
// returns the first error.
func (r *Router) abortAll(participants []int, locals map[int]uint64) error {
	aborts := make(map[int]*esm.Request, len(participants))
	for _, shard := range participants {
		aborts[shard] = &esm.Request{Op: esm.OpAbort, Tx: locals[shard]}
	}
	resps, err := r.fanOut(aborts)
	releaseAll(resps)
	return err
}

// aggregateStats sums the per-shard ServerStats into one cluster view.
// Per-shard detail stays available through CallShard.
func (r *Router) aggregateStats(req *esm.Request) (*esm.Response, error) {
	var agg esm.ServerStats
	shards := make([]int, 0, len(r.trs))
	for shard := range r.trs {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		resp, err := r.call(shard, req)
		if err != nil {
			return nil, err
		}
		if resp.Err != "" {
			return resp, nil
		}
		var st esm.ServerStats
		err = json.Unmarshal(resp.Data, &st)
		resp.Release()
		if err != nil {
			return nil, fmt.Errorf("shard %d: stats: %w", shard, err)
		}
		agg.BufferPages += st.BufferPages
		agg.Resident += st.Resident
		agg.PoolAllocatedPages += st.PoolAllocatedPages
		agg.PoolHits += st.PoolHits
		agg.PoolMisses += st.PoolMisses
		agg.PoolEvicted += st.PoolEvicted
		agg.AllocatedPages += st.AllocatedPages
		agg.LogRecords += st.LogRecords
		agg.LogBytes += st.LogBytes
		agg.DiskReads += st.DiskReads
		agg.DiskWrites += st.DiskWrites
		agg.PrefetchPages += st.PrefetchPages
		agg.Commits += st.Commits
		agg.LogForces += st.LogForces
		agg.LogPiggybacks += st.LogPiggybacks
		agg.PagesLogApplied += st.PagesLogApplied
		agg.PagesInstalled += st.PagesInstalled
		agg.LockGrants += st.LockGrants
		agg.LockWaits += st.LockWaits
		agg.LockAheadGranted += st.LockAheadGranted
		agg.LockAheadRefused += st.LockAheadRefused
		agg.SnapBegins += st.SnapBegins
		agg.SnapReads += st.SnapReads
		agg.NetInFlightHW += st.NetInFlightHW
		agg.NetFlushes += st.NetFlushes
		agg.NetFrames += st.NetFrames
		agg.NetBytesOut += st.NetBytesOut
		agg.CohValidates += st.CohValidates
		agg.CohFeedStale += st.CohFeedStale
		agg.CohNotModified += st.CohNotModified
		agg.CohDeltas += st.CohDeltas
		agg.CohDeltaBytes += st.CohDeltaBytes
		agg.CohFulls += st.CohFulls
		agg.CohFullBytes += st.CohFullBytes
		agg.CohIndexEntries += st.CohIndexEntries
	}
	blob, err := json.Marshal(&agg)
	if err != nil {
		return nil, err
	}
	return &esm.Response{N: uint64(agg.Resident), Data: blob}, nil
}
