package esm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"quickstore/internal/buffer"
	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/lock"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// DefaultClientBufferPages is the client pool's capacity, the paper's 12 MB.
// It bounds the pool's memory; what the pool holds is the high-water mark of
// its resident pages in 64-frame slabs, since a frame gets its image on
// first use.
const DefaultClientBufferPages = 1536

// ErrNoTx is returned for page operations outside a transaction.
var ErrNoTx = errors.New("esm: no transaction in progress")

// remoteError wraps a server-reported error string.
type remoteError string

// Error implements the error interface.
func (e remoteError) Error() string { return "esm server: " + string(e) }

// RetryPolicy bounds the client's automatic retry of transient server
// faults (injected or real I/O hiccups that heal on their own).
type RetryPolicy struct {
	MaxAttempts int           // total tries per request; 0 or 1 disables retry
	Backoff     time.Duration // sleep before each retry, doubled every attempt
}

// ClientConfig tunes a client session.
type ClientConfig struct {
	BufferPages int           // client pool size; 0 = DefaultClientBufferPages
	Policy      buffer.Policy // replacement policy; nil = traditional clock
	Clock       *sim.Clock    // cost-model clock; nil = free clock
	Retry       RetryPolicy   // transient-fault retry; zero value disables
}

// Client is one application session against the page server. It owns the
// client buffer pool; pages are accessed in place in pool frames, exactly
// as ESM clients do in the paper. A Client is not safe for concurrent use:
// it models one application process. The Transport underneath, however, is
// shared freely: several sessions may ride one multiplexed TCP connection —
// transports pipeline concurrent calls instead of serializing them.
type Client struct {
	tr    Transport
	clock *sim.Clock
	pool  *buffer.Pool

	// req is the scratch Request every call is built in (request). No
	// transport touches a Request once its Call has returned, even with a
	// transport error, so the next call may reuse it.
	req *Request

	retry   RetryPolicy
	retries atomic.Int64 // requests re-sent after a transient fault

	tx      uint64
	pending []byte // serialized log batch (count in first 4 bytes), reused up to maxPooledBuf
	nrecs   uint32 // records in the batch, the open one included

	// open is the update record LogUpdate is folding regions into, not yet
	// in pending, in the wire form (no before-images): a LogUpdate for the
	// same page at or past openEnd (the end of its last region) joins it,
	// anything else closes it. Its first region's after-image is a copy in
	// openImg; its More is scratch too.
	open    wal.WireUpdate
	openImg []byte
	openEnd int
	isOpen  bool

	// held is the open transaction's lock table: what the server has granted
	// it, at the strongest mode asked for. Locks live until transaction end
	// (strict 2PL), so asking again for one of them needs no round trip. A
	// lock that arrived on another's lock-ahead list is marked ahead until
	// something asks for it: aheadOut counts the marked ones, aheadUsed and
	// aheadWasted how many were later asked for and how many reached
	// transaction end unasked. endTx empties the table.
	held                   map[lock.Resource]heldLock
	aheadOut               int
	aheadUsed, aheadWasted int64

	// Scratch reused across calls: a lock-ahead list (lock), an OpReadPages
	// request's entries (readPages), the frames a Begin's ReadCheck names
	// (queueCheck), the frames a commit cleaned (Commit).
	lockEntries []byte
	readEntries []byte
	checkIdxs   []int
	cleaned     []int

	// horizon is the change-feed position the last Begin was told (all zero
	// for none); stalePids names the frames a Begin's ReadCheck left Stale
	// because they were pinned, which the next Begin checks again.
	horizon   [HorizonBytes]byte
	stalePids []disk.PageID

	// dir is the session's copy of the root directory (GetRoot, SetRoot).
	dir rootDir

	// snap, when nonzero, is the LSN of the open read-only snapshot
	// session (BeginSnapshot): page faults read as of it and bypass the
	// lock manager entirely. Mutually exclusive with tx.
	// snapFetched tracks pages fetched as of snap, so residency from an
	// earlier transaction (possibly newer than the snapshot) is refetched
	// and snapshot-time images are dropped when the session ends.
	// lastSeen is the newest commit LSN this session has observed — its
	// read-your-writes floor for snapshot begins, which matters after a
	// replication failover lands it on a node with an older applied LSN.
	snap        wal.LSN
	snapFetched map[disk.PageID]bool
	lastSeen    uint64

	uniqueNext uint64
	uniqueEnd  uint64

	sharded  bool                 // the transport shards (ShardStamper): no commit LSN is every page's token
	rawPages map[disk.PageID]bool // large-object data pages: never LSN-stamped

	// pinLeaks counts frames Abort found still pinned — an object-layer bug
	// Abort used to paper over.
	pinLeaks int64

	// BeforeSteal, if set, runs before a dirty page leaves the pool
	// mid-transaction (buffer-pool steal). QuickStore hooks this to diff
	// the page and emit its log records first, preserving WAL order.
	BeforeSteal func(pid disk.PageID, data []byte) error

	// OnRefresh, if set, runs after the coherence protocol rewrites a
	// resident frame's bytes in place (a delta or full repair). QuickStore
	// hooks it to unmap the page and discard its swizzle state: the frame
	// now holds the committed disk image, not this session's swizzled
	// view, so the next access must re-fault and re-process the mapping.
	OnRefresh func(pid disk.PageID, frame int)

	// LogStructure makes the client WAL-log its own structural page edits —
	// the headers and slot directories it writes in CreateObject,
	// DeleteObject, and cluster-page formatting. Callers that log by
	// diffing mapped data pages (QuickStore) never see these bytes, and a
	// session that redoes the log onto a cold store — restart recovery, a
	// replication follower at promotion — finds slotless pages without
	// them. Sessions that checkpoint instead can leave this off.
	LogStructure bool
}

// heldLock is one entry of the transaction's lock table.
type heldLock struct {
	mode  lock.Mode
	ahead bool // granted on a lock-ahead list and not asked for since
}

// NewClient opens a session over tr.
func NewClient(tr Transport, cfg ClientConfig) *Client {
	if cfg.BufferPages == 0 {
		cfg.BufferPages = DefaultClientBufferPages
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewClock(sim.CostModel{})
	}
	c := &Client{tr: tr, clock: cfg.Clock, retry: cfg.Retry, req: new(Request),
		rawPages: map[disk.PageID]bool{}, held: map[lock.Resource]heldLock{}}
	_, c.sharded = tr.(ShardStamper)
	c.pool = buffer.New(cfg.BufferPages, cfg.Policy)
	c.pool.FlushFn = c.stealPage
	c.pool.OnPrefetchDrop = func(disk.PageID) { c.clock.Charge(sim.CtrPrefetchWasted, 1) }
	c.pending = make([]byte, 4)
	return c
}

// Pool exposes the client buffer pool so QuickStore can install its
// simplified-clock policy hooks (OnEvict) and inspect residency.
func (c *Client) Pool() *buffer.Pool { return c.pool }

// Clock returns the session's cost-model clock.
func (c *Client) Clock() *sim.Clock { return c.clock }

// RetryableOp reports whether op may be re-sent verbatim after a transient
// fault or a transport failure: the client's own retry and the replication
// Director's failover between cluster nodes both ask. Only requests with no
// server-side effects qualify: re-reading a page or re-acquiring an
// already-held lock is harmless, but replaying OpLog, OpCounter, or a page
// install would double-apply it (the first attempt may have taken effect
// before the fault surfaced).
func RetryableOp(op Op) bool {
	switch op {
	case OpReadPages, OpOpenFile, OpStats, OpLock, OpBeginSnapshot:
		// The snapshot ops are read-only; re-beginning pins the same (or a
		// newer) snapshot and re-reading a page at a pinned LSN is stable.
		// OpEndSnapshot is deliberately absent: replaying it would unpin a
		// snapshot someone else still holds.
		return true
	}
	return false
}

// request returns the session's scratch Request, zeroed but for op, for the
// next call. Nothing may call the server between request and call.
func (c *Client) request(op Op) *Request {
	*c.req = Request{Op: op}
	return c.req
}

// call sends a request and surfaces server errors as Go errors. Idempotent
// requests that fail with a transient fault are retried under the
// session's RetryPolicy with doubling backoff; crashes and every other
// error surface immediately. The caller releases the answer once done with
// it (Response.Release).
func (c *Client) call(req *Request) (*Response, error) {
	attempts := 1
	if c.retry.MaxAttempts > 1 && RetryableOp(req.Op) {
		attempts = c.retry.MaxAttempts
	}
	backoff := c.retry.Backoff
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.retries.Add(1)
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		resp, err := c.tr.Call(req)
		if err != nil {
			return nil, err // transport failure: the session is gone
		}
		if resp.Err == "" {
			return resp, nil
		}
		lastErr = remoteError(resp.Err)
		resp.Release()
		if !faultinject.IsTransient(lastErr) {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// callN sends req and returns the N of its answer, which it releases.
func (c *Client) callN(req *Request) (uint64, error) {
	resp, err := c.call(req)
	if err != nil {
		return 0, err
	}
	n := resp.N
	resp.Release()
	return n, nil
}

// Retries reports how many requests were re-sent after transient faults.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Begin starts a transaction and brings the resident set up to date with the
// server's version table. The request carries the change-feed horizon the
// previous Begin was told, and the answer lists the pages whose version moved
// since (DESIGN.md §18, "Change feed"): one ReadCheck OpReadPages round trip
// then checks just the listed frames whose token differs, plus any frame an
// earlier Begin left Stale because it was pinned — and with none of those,
// Begin is one round trip. An answer without a usable feed (a session's first
// Begin, another server, a trimmed ring, a shard router, a malformed answer)
// falls back to checking every clean tokened frame. Either way current frames
// are kept as-is and stale ones are repaired in place (delta patch or full
// image) or evicted, so every tokened frame still resident afterwards is the
// last committed image.
func (c *Client) Begin() error {
	if c.tx != 0 {
		return fmt.Errorf("esm: transaction %d already active", c.tx)
	}
	if c.snap != 0 {
		return fmt.Errorf("esm: snapshot session at %d open; end it before writing", c.snap)
	}
	req := c.request(OpBegin)
	req.Data = c.horizon[:]
	resp, err := c.call(req)
	if err != nil {
		return err
	}
	c.tx = resp.N
	err = c.validate(resp)
	resp.Release()
	if err != nil {
		return fmt.Errorf("esm: revalidating warm cache: %w", err)
	}
	return nil
}

// validateChunk caps the entries in one ReadCheck request so a huge
// resident set cannot produce an unbounded frame. It also caps the pages a
// change-feed answer lists: past it the server answers "too old".
const validateChunk = 512

// validate brings the resident set up to date after the Begin answered by
// resp. No sim-clock time is charged anywhere on this path — warm hits were
// free in the uncoherent model too, and the protocol's cost is measured in
// wire bytes (TestWarmCacheShipsFewerBytes), not simulated I/O.
func (c *Client) validate(resp *Response) error {
	list, ok := feedList(resp)
	// The answer's horizon — a "too old" one too: the full check below runs
	// after the server read it — becomes the session's only once the check
	// succeeds. Until then the next Begin presents none.
	var next [HorizonBytes]byte
	if ok || resp.Mode&RespStale != 0 && len(resp.Data) == HorizonBytes {
		copy(next[:], resp.Data)
	}
	c.horizon = [HorizonBytes]byte{}
	stale := c.stalePids
	c.stalePids = nil
	c.dir.valid = c.dir.token != 0
	var err error
	if ok {
		err = c.checkFeed(list, stale)
	} else {
		err = c.validateResident()
	}
	if err != nil {
		c.dir.drop()
		return err
	}
	c.horizon = next
	return nil
}

// checkFeed checks the frames a change-feed list names whose token differs
// from the listed one, and the frames of stale still flagged Stale, in one
// ReadCheck; every other frame kept its version since the last horizon.
func (c *Client) checkFeed(list []byte, stale []disk.PageID) error {
	for _, pid := range stale {
		if i, ok := c.pool.Lookup(pid); ok {
			if f := c.pool.Frame(i); f.Stale && !f.Dirty && f.LSN != 0 {
				if err := c.queueCheck(i); err != nil {
					return err
				}
			}
		}
	}
	for k := 0; k < len(list)/PageEntryBytes; k++ {
		pid, token := PageEntry(list, k)
		if disk.PageID(pid) == c.dir.pid {
			if c.dir.token != 0 && c.dir.token != token {
				if err := c.queueCheck(dirSlot); err != nil {
					return err
				}
			}
			continue
		}
		i, ok := c.pool.Lookup(disk.PageID(pid))
		if !ok {
			continue
		}
		// A Stale frame was queued above; a token-0 frame is never vouched
		// for at Begin (validateResident).
		if f := c.pool.Frame(i); !f.Stale && !f.Dirty && f.LSN != 0 && f.LSN != token {
			if err := c.queueCheck(i); err != nil {
				return err
			}
		}
	}
	return c.flushCheck()
}

// feedList returns the change-feed entries of a Begin answer, and whether
// the answer carries a usable feed: a horizon, then a whole list of at most
// validateChunk page entries, none naming an invalid page. Anything else —
// "too old", a bare answer, a malformed one — is not used.
func feedList(resp *Response) ([]byte, bool) {
	if resp.Mode&RespStale != 0 || len(resp.Data) < HorizonBytes {
		return nil, false
	}
	list := resp.Data[HorizonBytes:]
	n, err := PageEntryCount(list)
	if err != nil || n > validateChunk {
		return nil, false
	}
	for k := 0; k < n; k++ {
		if pid, _ := PageEntry(list, k); disk.PageID(pid) == disk.InvalidPage {
			return nil, false
		}
	}
	return list, true
}

// validateResident checks every clean tokened resident frame at Begin, and
// the directory slot.
func (c *Client) validateResident() error {
	if c.dir.token != 0 {
		if err := c.queueCheck(dirSlot); err != nil {
			return err
		}
	}
	for i := 0; i < c.pool.Len(); i++ {
		// A frame with token 0 is unversioned (a sharded commit, a read that
		// overlapped another transaction's pending write). The server can
		// never prove such a frame current, so shipping it would force a
		// full repair every Begin. An unlocked read still trusts it; a lock
		// grant revalidates it first (granted).
		f := c.pool.Frame(i)
		if f.Page == disk.InvalidPage || f.Dirty || f.LSN == 0 {
			continue
		}
		if err := c.queueCheck(i); err != nil {
			return err
		}
	}
	return c.flushCheck()
}

// queueCheck adds frame i, or the directory slot (dirSlot), to the Begin's
// ReadCheck batch, shipping the batch once it holds validateChunk entries.
func (c *Client) queueCheck(i int) error {
	if len(c.checkIdxs) == 0 {
		c.readEntries = c.readEntries[:0] // the last read's entries
	}
	if i == dirSlot {
		c.readEntries = AppendPageEntry(c.readEntries, uint32(c.dir.pid), c.dir.token)
	} else {
		f := c.pool.Frame(i)
		c.readEntries = AppendPageEntry(c.readEntries, uint32(f.Page), f.LSN)
	}
	c.checkIdxs = append(c.checkIdxs, i)
	if len(c.checkIdxs) < validateChunk {
		return nil
	}
	return c.flushCheck()
}

// flushCheck ships the queued ReadCheck batch, if any — the frames
// checkIdxs, whose entries are in readEntries — empties the queue, and
// applies the verdicts: answers land in the frames in place, stale frames
// without a usable answer are evicted.
func (c *Client) flushCheck() error {
	idxs := c.checkIdxs
	if len(idxs) == 0 {
		return nil
	}
	c.checkIdxs = idxs[:0]
	a, resp, err := c.readPages(0, ReadCheck, "")
	defer resp.Release()
	if err != nil {
		return err
	}
	for a.Next() {
		i := idxs[a.Index]
		if i == dirSlot {
			if a.Stale && a.Apply(c.dir.data) != nil {
				c.dir.drop()
			} else {
				c.dir.token = a.Token
			}
			continue
		}
		f := c.pool.Frame(i)
		if !a.Stale {
			f.Stale = false
			continue
		}
		if a.Apply(f.Data) == nil {
			f.LSN = a.Token
			f.Stale = false
			if c.OnRefresh != nil {
				c.OnRefresh(f.Page, i)
			}
			continue
		}
		// No answer (or a malformed one): drop the frame; the next access
		// refetches the committed image.
		if f.Pin != 0 {
			// Pinned across Begin: revalidated on the next fetch, and
			// checked again by the next Begin.
			f.Stale = true
			c.stalePids = append(c.stalePids, f.Page)
			continue
		}
		if err := c.pool.Evict(i); err != nil {
			return err
		}
	}
	return a.Err()
}

// BeginSnapshot opens a read-only snapshot session: every page fault until
// EndSnapshot is served as of one consistent commit LSN, and the server
// never consults the lock manager for them — writers proceed untouched.
// The session's last-seen commit LSN rides along so a node that has not
// caught up to this client's own writes refuses rather than time-travels.
func (c *Client) BeginSnapshot() error {
	if c.tx != 0 {
		return fmt.Errorf("esm: transaction %d active; snapshot sessions are read-only", c.tx)
	}
	if c.snap != 0 {
		return fmt.Errorf("esm: snapshot %d already open", c.snap)
	}
	req := c.request(OpBeginSnapshot)
	req.N = c.lastSeen
	snap, err := c.callN(req)
	if err != nil {
		return err
	}
	c.snap = wal.LSN(snap)
	if snap > c.lastSeen {
		c.lastSeen = snap
	}
	c.snapFetched = map[disk.PageID]bool{}
	return nil
}

// Snapshot returns the open snapshot session's LSN (0 when none).
func (c *Client) Snapshot() wal.LSN { return c.snap }

// LastSeenLSN returns the newest commit LSN this session has observed.
func (c *Client) LastSeenLSN() uint64 { return c.lastSeen }

// EndSnapshot closes the snapshot session. Pages fetched as of the
// snapshot are evicted — they are stale for any later transaction — and
// the server's pin is released. The unpin is best-effort by design (see
// RetryableOp): if the server became unreachable, the local session still
// closes and the error reports why reclamation may lag.
func (c *Client) EndSnapshot() error {
	if c.snap == 0 {
		return errors.New("esm: no snapshot in progress")
	}
	snap := c.snap
	c.snap = 0
	if c.dir.snap != 0 {
		c.dir.drop()
	}
	for pid := range c.snapFetched {
		if i, ok := c.pool.Lookup(pid); ok {
			if err := c.pool.Evict(i); err != nil {
				return err
			}
		}
	}
	c.snapFetched = nil
	req := c.request(OpEndSnapshot)
	req.N = uint64(snap)
	_, err := c.callN(req)
	return err
}

// Tx returns the current transaction id (0 when none).
func (c *Client) Tx() uint64 { return c.tx }

// endTx forgets the transaction and its locks: the server releases them all
// when it commits or aborts, and a commit whose outcome is unknown must not
// leave the next transaction believing it holds anything. Locks taken ahead
// that nothing asked for were wasted. The directory slot is vouched for only
// until then; a sharded session's copy is never checked at Begin (its next
// read goes by name), so it keeps no token.
func (c *Client) endTx() {
	c.tx = 0
	c.aheadWasted += int64(c.aheadOut)
	c.aheadOut = 0
	clear(c.held)
	c.dir.valid = false
	c.dir.edits = c.dir.edits[:0]
	if c.sharded {
		c.dir.token = 0
	}
}

// FetchPage brings pid into the client pool (a page-shipping request to the
// server on a miss) and returns its frame index. The frame data may be
// mutated in place; call MarkDirty afterwards. Inside a snapshot session the
// page is read as of the snapshot: a resident frame left over from an
// earlier transaction may be NEWER than the snapshot, so anything not
// fetched under this snapshot is dropped and refetched as of it.
//
// A miss in a transaction may carry read-ahead: the pages of ahead are asked
// for in the same request, after pid, and land as ReadAhead's do. pid is
// installed first, as the demand frame it is, and stays pinned while they go
// in. A snapshot session reads pid alone.
func (c *Client) FetchPage(pid disk.PageID, ahead ...disk.PageID) (int, error) {
	if c.tx == 0 && c.snap == 0 {
		return 0, ErrNoTx
	}
	if i, ok := c.pool.Get(pid); ok {
		switch {
		case c.snap == 0:
			c.ConsumePrefetch(i)
			if f := c.pool.Frame(i); f.Stale && !f.Dirty {
				if err := c.revalidateFrame(i); err != nil {
					return 0, err
				}
			}
			return i, nil
		case c.snapFetched[pid]:
			return i, nil
		}
		if err := c.pool.Evict(i); err != nil {
			return 0, err
		}
	}
	if c.snap != 0 {
		ahead = nil
	}
	var a PageAnswers
	var resp *Response
	defer func() { resp.Release() }()
	i, err := c.pool.Put(pid, func(buf []byte) error {
		c.clock.Charge(sim.CtrClientRead, 1)
		var err error
		if a, resp, err = c.readPage(pid, 0, c.snap, ahead); err != nil {
			return err
		}
		return a.Apply(buf)
	})
	if err != nil {
		return 0, err
	}
	c.pool.Frame(i).LSN = a.Token
	if c.snap != 0 {
		c.snapFetched[pid] = true
	}
	if len(ahead) != 0 {
		c.pool.Pin(i)
		err = c.putAhead(&a)
		c.pool.Unpin(i)
	}
	return i, err
}

// revalidateFrame refreshes a resident frame that is or may be stale (one
// Begin validation could not repair while it was pinned, a lock grant over a
// stale or unversioned copy): one read presenting the frame's token, which
// comes back as current, a delta patch, or a full image. Only the full image
// charges a client read — the other two are exactly the warm hit the
// uncoherent model never charged for.
func (c *Client) revalidateFrame(i int) error {
	f := c.pool.Frame(i)
	a, resp, err := c.readPage(f.Page, f.LSN, 0, nil)
	defer resp.Release()
	if err != nil {
		return err
	}
	if a.Stale {
		if err := a.Apply(f.Data); err != nil {
			return err
		}
		if a.Kind == PageFull {
			c.clock.Charge(sim.CtrClientRead, 1)
		}
	}
	f.LSN = a.Token
	f.Stale = false
	if a.Stale && c.OnRefresh != nil {
		c.OnRefresh(f.Page, i)
	}
	return nil
}

// readPages sends the entries in readEntries, one or more, as one
// OpReadPages request — live or as of snap, mode 0 or ReadCheck, naming a
// root for a sharded directory read — and returns the walk of its answer
// and the answer, which the caller releases once the walk is done (a nil
// answer releases as a no-op).
func (c *Client) readPages(snap wal.LSN, mode uint8, root string) (PageAnswers, *Response, error) {
	entries := c.readEntries
	req := c.request(OpReadPages)
	req.Tx, req.N, req.Mode, req.Name, req.Data = c.tx, uint64(snap), mode, root, entries
	req.Page, _ = PageEntry(entries, 0)
	resp, err := c.call(req)
	if err != nil {
		return PageAnswers{}, nil, err
	}
	return ReadAnswers(entries, resp.Data), resp, nil
}

// readPage reads one page, presenting token for the copy the client holds
// (0 for none), and the pages of ahead after it, and returns the walk
// standing on pid's entry and the answer to release.
func (c *Client) readPage(pid disk.PageID, token uint64, snap wal.LSN, ahead []disk.PageID) (PageAnswers, *Response, error) {
	c.readEntries = AppendPageEntry(c.readEntries[:0], uint32(pid), token)
	for _, p := range ahead {
		c.readEntries = AppendPageEntry(c.readEntries, uint32(p), 0)
	}
	a, resp, err := c.readPages(snap, 0, "")
	if err == nil && !a.Next() {
		err = a.Err()
	}
	return a, resp, err
}

// ConsumePrefetch reports whether this access is the first real use of a
// frame read ahead of it, and clears the mark. The transfer was paid for when
// the batch was served, so a hit costs nothing more.
func (c *Client) ConsumePrefetch(i int) bool {
	if !c.pool.ConsumePrefetched(i) {
		return false
	}
	c.clock.Charge(sim.CtrPrefetchHit, 1)
	return true
}

// ReadAhead fetches pids with one OpReadPages round trip and decodes each
// image straight into the pool as a speculative frame (buffer.PutPrefetched:
// an empty frame, or the replacement policy's clean, unpinned victim),
// stamped with its coherence token so the next Begin's validation treats it
// like any other warm frame. An image the pool has no such frame for, or
// whose page is already resident, is dropped undecoded. Outside a
// transaction it does nothing: a snapshot session must not be handed
// current images.
func (c *Client) ReadAhead(pids []disk.PageID) error {
	if len(pids) == 0 || c.tx == 0 {
		return nil
	}
	c.readEntries = c.readEntries[:0]
	for _, pid := range pids {
		c.readEntries = AppendPageEntry(c.readEntries, uint32(pid), 0)
	}
	a, resp, err := c.readPages(0, 0, "")
	defer resp.Release()
	if err != nil {
		return err
	}
	return c.putAhead(&a)
}

// putAhead installs the rest of a's answers as speculative frames.
func (c *Client) putAhead(a *PageAnswers) error {
	for a.Next() {
		if !a.Answered || a.Kind != PageFull {
			return fmt.Errorf("esm: read-ahead of page %d not answered with its image", a.Page)
		}
		f, ok, err := c.pool.PutPrefetched(disk.PageID(a.Page), a.Apply)
		if err != nil {
			return err
		}
		if ok {
			c.pool.Frame(f).LSN = a.Token
		}
	}
	return a.Err()
}

// ServerStats fetches the server's statistics snapshot (OpStats).
func (c *Client) ServerStats() (*ServerStats, error) {
	resp, err := c.call(c.request(OpStats))
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	var st ServerStats
	if err := json.Unmarshal(resp.Data, &st); err != nil {
		return nil, fmt.Errorf("esm: bad stats payload: %w", err)
	}
	return &st, nil
}

// PageData returns the in-place bytes of frame i.
func (c *Client) PageData(i int) []byte { return c.pool.Frame(i).Data }

// Pin guards frame i against replacement.
func (c *Client) Pin(i int) { c.pool.Pin(i) }

// Unpin releases a pin taken with Pin.
func (c *Client) Unpin(i int) { c.pool.Unpin(i) }

// MarkDirty flags the resident page pid as modified.
func (c *Client) MarkDirty(pid disk.PageID) error {
	i, ok := c.pool.Lookup(pid)
	if !ok {
		return fmt.Errorf("esm: MarkDirty(%d): %w", pid, buffer.ErrNotCached)
	}
	c.pool.MarkDirty(i)
	return nil
}

// stealPage lets a dirty page leave the client pool mid-transaction: the
// owner first emits the log records that cover it (WAL), and the batch
// ships in an OpLog, with the page after it only if the frame is Unlogged
// (the server redoes the records onto its own copy). The cost model is
// charged a page write either way: internal/sim prices the paper's
// protocol, which ships every stolen page.
func (c *Client) stealPage(pid disk.PageID, data []byte) error {
	if c.BeforeSteal != nil {
		if err := c.BeforeSteal(pid, data); err != nil {
			return err
		}
	}
	c.clock.Charge(sim.CtrClientWrite, 1)
	c.sealBatch()
	if i, ok := c.pool.Lookup(pid); !ok || c.pool.Frame(i).Unlogged {
		c.pending = AppendPayloadPage(c.pending, uint32(pid), c.rawPages[pid], data)
	}
	return c.FlushLog()
}

// MarkRawPages records a run of raw (headerless, large-object) data pages,
// which the commit payload names raw so the server never stamps them.
func (c *Client) MarkRawPages(first disk.PageID, n uint32) {
	for i := uint32(0); i < n; i++ {
		c.rawPages[first+disk.PageID(i)] = true
	}
}

// ShardStamper marks a sharding transport (internal/shard's Router), where
// one commit LSN is no page's token. Servers stamp the pages they install
// (Server.installPage), so StampLSN has no stamp to give and returns 0.
type ShardStamper interface {
	StampLSN(tx uint64, pid disk.PageID) uint64
}

// LogUpdate logs a physical update (before/after images for the byte range
// at off on page pid) for the current transaction. old is empty (a redo-only
// update) or as long as new. Only new is shipped: old says the update has
// an undo, which the server writes into its log from its own copy of the
// page, the bytes old holds (wal.WireUpdate). Consecutive updates of one
// page that do not run backwards — a page's diff, a fresh page's two
// halves — become regions of one record: one header, one checksum, one
// append at the server. The cost model is charged per region, for both
// images: internal/sim prices the paper's protocol, in which the client
// ships both and one header per range.
func (c *Client) LogUpdate(pid disk.PageID, off int, old, new []byte) {
	c.appendUpdate(pid, off, len(old) != 0, new)
	c.clock.Charge(sim.CtrLogRecord, 1)
	c.clock.Charge(sim.CtrLogByte, int64(len(old)+len(new)))
}

// appendUpdate is LogUpdate without the charge: a root directory edit's
// records, which the 1994 model never priced.
func (c *Client) appendUpdate(pid disk.PageID, off int, undo bool, new []byte) {
	if c.isOpen && c.open.Page == uint32(pid) && off >= c.openEnd {
		c.open.More = wal.AppendWireRegion(c.open.More, off-c.openEnd, undo, new)
	} else {
		c.closeRecord()
		c.openImg = append(c.openImg[:0], new...)
		c.open = wal.WireUpdate{Page: uint32(pid), Off: uint16(off), Undo: undo, New: c.openImg, More: c.open.More[:0]}
		c.isOpen = true
		c.nrecs++
	}
	c.openEnd = off + len(new)
}

// closeRecord moves the open record, if any, into the pending batch.
func (c *Client) closeRecord() {
	if c.isOpen {
		c.pending = wal.AppendWire(c.pending, &c.open)
		c.isOpen = false
	}
}

// structBefore copies the frame's current bytes when structural logging is
// on, so the mutation about to happen can be diffed against them.
func (c *Client) structBefore(idx int) []byte {
	if !c.LogStructure {
		return nil
	}
	return append([]byte(nil), c.PageData(idx)...)
}

// dirtyStruct marks frame idx dirty after a structural edit made since
// before was taken (structBefore) and logs the edit. With structural logging
// on the records cover every byte that changed, so the frame is declared
// logged; without it the frame ships whole.
func (c *Client) dirtyStruct(pid disk.PageID, before []byte, idx int) {
	if !c.LogStructure {
		c.pool.MarkDirty(idx)
		return
	}
	c.pool.MarkDirtyLogged(idx)
	c.logStructDiff(pid, before, idx)
}

// logStructDiff emits update records for every byte run where the frame now
// differs from before. Nearby runs are merged so one slot-directory edit
// (header counters at the front, a slot entry at the back) costs two small
// records, not a spray of one-byte ones.
func (c *Client) logStructDiff(pid disk.PageID, before []byte, idx int) {
	if !c.LogStructure || before == nil {
		return
	}
	cur := c.PageData(idx)
	const mergeGap = 16
	for i := 0; i < len(cur); {
		for i < len(cur) && cur[i] == before[i] {
			i++
		}
		if i == len(cur) {
			return
		}
		// Extend the run until mergeGap equal bytes in a row end it.
		end, equal := i+1, 0
		for j := i + 1; j < len(cur) && equal < mergeGap; j++ {
			if cur[j] != before[j] {
				end, equal = j+1, 0
			} else {
				equal++
			}
		}
		c.LogUpdate(pid, i, before[i:end], cur[i:end])
		i = end
	}
}

// sealBatch closes the open record and writes the record count into the
// pending batch; whole pages may follow it (AppendPayloadPage).
func (c *Client) sealBatch() {
	c.closeRecord()
	binary.LittleEndian.PutUint32(c.pending[:4], c.nrecs)
}

// FlushLog ships the pending payload, if any, in an OpLog. Only a steal
// needs it (stealPage): Commit carries the last batch itself.
func (c *Client) FlushLog() error {
	c.sealBatch()
	if len(c.pending) == 4 {
		return nil
	}
	req := c.request(OpLog)
	req.Tx, req.Data = c.tx, c.pending
	_, err := c.callN(req)
	c.resetPending()
	return err
}

// resetPending empties the log batch. Like a pooled frame buffer, its buffer
// is kept for the next batch unless a transaction grew it past maxPooledBuf.
func (c *Client) resetPending() {
	if cap(c.pending) > maxPooledBuf {
		c.pending = make([]byte, 4)
	}
	c.pending, c.nrecs, c.isOpen = c.pending[:4], 0, false
}

// Commit sends the transaction's last log batch with the commit request,
// then only the dirty frames some caller changed without declaring the
// change logged (Frame.Unlogged: bulk loads, raw large-object pages, B-tree
// pages), built in the reused pending buffer; a commit with neither sends
// empty Data. Every dirty frame is cleaned and keeps its place: the client
// cache stays warm, matching the paper's hot re-runs. The cost model is
// charged for every dirty frame, shipped or not.
func (c *Client) Commit() error {
	if c.tx == 0 {
		return ErrNoTx
	}
	edited := len(c.dir.edits) != 0
	for _, e := range c.dir.edits {
		c.appendUpdate(e.pid, e.off, true, e.new)
	}
	c.sealBatch()
	cleaned := c.cleaned[:0]
	for i := 0; i < c.pool.Len(); i++ {
		f := c.pool.Frame(i)
		if f.Page == disk.InvalidPage || !f.Dirty {
			continue
		}
		if f.Unlogged {
			c.pending = AppendPayloadPage(c.pending, uint32(f.Page), c.rawPages[f.Page], f.Data)
		}
		f.Dirty = false
		f.Unlogged = false
		cleaned = append(cleaned, i)
		c.clock.Charge(sim.CtrClientWrite, 1)
		c.clock.Charge(sim.CtrCommitFlushPage, 1)
	}
	c.cleaned = cleaned
	req := c.request(OpCommit)
	req.Tx = c.tx
	if len(c.pending) > 4 {
		req.Data = c.pending
	}
	lsn, err := c.callN(req)
	c.resetPending()
	c.endTx()
	if err != nil {
		if edited {
			c.dir.drop()
		}
		return err
	}
	if lsn > c.lastSeen {
		c.lastSeen = lsn // read-your-writes floor for snapshot begins
	}
	// The cleaned frames hold the bytes the server just committed (but
	// for its page LSN stamps), whether it received them whole or rebuilt
	// them from their records: stamp them with the commit token so the
	// next Begin answers "not modified" for them. Under sharding the single
	// response LSN is not the per-shard commit LSN, so the frames stay
	// unversioned: a lock grant refetches them whole.
	tok := lsn
	if c.sharded {
		tok = 0
	}
	for _, i := range cleaned {
		f := c.pool.Frame(i)
		f.LSN = tok
		f.Stale = false
	}
	if edited && c.dir.pid != disk.InvalidPage {
		c.dir.token = tok // the slot holds what the commit wrote, as a cleaned frame does
	}
	return nil
}

// AbortPinLeaks reports how many frames Abort found still pinned — each
// one an object-layer bug that would otherwise have been silently erased.
func (c *Client) AbortPinLeaks() int64 { return c.pinLeaks }

// Abort discards the transaction: buffered log records and dirty resident
// pages are dropped, and the server undoes every log record that had
// already shipped (it redid each onto its page on arrival).
func (c *Client) Abort() error {
	if c.tx == 0 {
		return ErrNoTx
	}
	c.resetPending()
	if len(c.dir.edits) != 0 {
		c.dir.drop() // its SetRoots never left the session
	}
	for i := 0; i < c.pool.Len(); i++ {
		f := c.pool.Frame(i)
		if f.Page != disk.InvalidPage && f.Dirty {
			// Drop the stale image without shipping it; a reread fetches
			// the committed version from the server.
			if f.Pin != 0 {
				// A pin held across Abort is an object-layer leak. Count
				// it — silently zeroing the pin used to erase the evidence
				// — then clear it anyway so the frame can be reclaimed and
				// the session stays usable.
				c.pinLeaks++
				f.Pin = 0
			}
			f.Dirty = false
			if err := c.pool.Evict(i); err != nil {
				return err
			}
		}
	}
	req := c.request(OpAbort)
	req.Tx = c.tx
	_, err := c.callN(req)
	c.endTx()
	return err
}

// Lock acquires a lock from the server's lock manager, unless the transaction
// already holds it at least as strongly: locks are kept until transaction end,
// so that answer needs no round trip. For page locks the cached frame's
// coherence token rides along, and the grant response says whether that cached
// copy is still current as of the moment the lock was granted — closing the
// window where a page validated at Begin goes stale while this transaction
// waits for its lock. A stale grant, or one over a copy without a token,
// revalidates the frame before Lock returns (one read presenting the token;
// OnRefresh fires if bytes changed), so nothing reached
// through the lock can be pre-grant data: the object layer reads resident
// pages through its own mappings, not through FetchPage, and would never see a
// flag left for the next fetch.
func (c *Client) Lock(kind lock.Kind, id uint32, mode lock.Mode) error {
	return c.lock(kind, id, mode, nil)
}

// LockPageAhead is Lock(lock.KindPage, pid, lock.Exclusive) whose round trip,
// if it needs one, also asks for exclusive locks on the pages of ahead — each
// granted only if no other transaction holds or awaits it, so the call waits
// for pid alone. What is granted joins the lock table like any other lock (it
// is one: held until transaction end) and answers a later Lock for that page;
// LocksAhead reports how that went. A granted page whose cached copy turned
// out stale is revalidated before the call returns, as for pid itself.
func (c *Client) LockPageAhead(pid disk.PageID, ahead []disk.PageID) error {
	return c.lock(lock.KindPage, uint32(pid), lock.Exclusive, ahead)
}

// LockHeld reports the mode in which the open transaction holds the lock
// (0 if it does not).
func (c *Client) LockHeld(kind lock.Kind, id uint32) lock.Mode {
	return c.held[lock.Resource{Kind: kind, ID: uint64(id)}].mode
}

// LocksAhead reports the locks granted on lock-ahead lists: how many the open
// transaction holds that nothing has asked for yet, and, over the session, how
// many were asked for later and how many reached transaction end unasked.
func (c *Client) LocksAhead() (outstanding int, used, wasted int64) {
	return c.aheadOut, c.aheadUsed, c.aheadWasted
}

// cleanFrame finds the clean cached copy of pid a lock grant would vouch for
// (-1 if none) and the token to send for it: 0 for a copy already known to
// need revalidation.
func (c *Client) cleanFrame(pid disk.PageID) (frame int, token uint64) {
	i, ok := c.pool.Lookup(pid)
	if !ok {
		return -1, 0
	}
	f := c.pool.Frame(i)
	if f.Dirty {
		return -1, 0
	}
	if f.Stale {
		return i, 0
	}
	return i, f.LSN
}

// lockToken is the token a page lock request presents for the session's
// copy of pid: the directory slot's, or cleanFrame's.
func (c *Client) lockToken(pid disk.PageID) uint64 {
	if pid == c.dir.pid {
		return c.dir.token
	}
	_, token := c.cleanFrame(pid)
	return token
}

// granted enters a lock the server has just granted into the lock table,
// first revalidating the clean cached copy of a page it covers if the grant
// found it stale, or could not tell: a copy without a token (0) cannot be
// vouched for, since the grant checks only tokens. A lock is not the
// transaction's to use before that.
func (c *Client) granted(res lock.Resource, h heldLock, stale bool) error {
	if res.Kind == lock.KindPage && disk.PageID(res.ID) == c.dir.pid {
		if stale || c.dir.token == 0 {
			if err := c.fillDir(c.dir.pid, c.dir.token, ""); err != nil {
				return err
			}
		}
		c.dir.valid = true
	} else if res.Kind == lock.KindPage {
		if frame, token := c.cleanFrame(disk.PageID(res.ID)); frame >= 0 && (stale || token == 0) {
			if err := c.revalidateFrame(frame); err != nil {
				return err
			}
		}
	}
	if h.ahead && !c.held[res].ahead {
		c.aheadOut++
	}
	c.held[res] = h
	return nil
}

func (c *Client) lock(kind lock.Kind, id uint32, mode lock.Mode, ahead []disk.PageID) error {
	if c.tx == 0 {
		return ErrNoTx
	}
	res := lock.Resource{Kind: kind, ID: uint64(id)}
	h := c.held[res]
	if h.ahead {
		h.ahead = false
		c.held[res] = h
		c.aheadOut--
		c.aheadUsed++
	}
	if h.mode >= mode {
		return nil
	}
	var token uint64
	if kind == lock.KindPage {
		token = c.lockToken(disk.PageID(id))
	}
	entries := c.lockEntries[:0]
	for _, pid := range ahead {
		if c.held[lock.PageRes(uint32(pid))].mode >= mode {
			continue
		}
		entries = AppendPageEntry(entries, uint32(pid), c.lockToken(pid))
	}
	c.lockEntries = entries
	req := c.request(OpLock)
	req.Tx, req.Page, req.N, req.Mode, req.Data = c.tx, id, token, uint8(kind)<<4|uint8(mode), entries
	resp, err := c.call(req)
	if err != nil {
		return err
	}
	defer resp.Release()
	if len(resp.Data)*PageEntryBytes != len(entries) {
		return fmt.Errorf("esm: lock response has %d verdicts for %d lock-ahead entries", len(resp.Data), len(entries)/PageEntryBytes)
	}
	if err := c.granted(res, heldLock{mode: mode}, resp.Mode&RespStale != 0); err != nil {
		return err
	}
	for i, v := range resp.Data {
		if pid, _ := PageEntry(entries, i); v != LockAheadRefused {
			if err := c.granted(lock.PageRes(pid), heldLock{mode: mode, ahead: true}, v == LockAheadStale); err != nil {
				return err
			}
		}
	}
	return nil
}

// AllocPages reserves n contiguous pages on the volume.
func (c *Client) AllocPages(n int) (disk.PageID, error) {
	req := c.request(OpAllocPages)
	req.Tx, req.N = c.tx, uint64(n)
	resp, err := c.call(req)
	if err != nil {
		return disk.InvalidPage, err
	}
	pid := disk.PageID(resp.Page)
	resp.Release()
	return pid, nil
}

// FreePages returns a page run to the volume.
func (c *Client) FreePages(pid disk.PageID, n int) error {
	req := c.request(OpFreePages)
	req.Tx, req.Page, req.N = c.tx, uint32(pid), uint64(n)
	_, err := c.callN(req)
	return err
}

// CreateFile registers a new file and returns its id.
func (c *Client) CreateFile(name string) (uint32, error) {
	req := c.request(OpCreateFile)
	req.Name = name
	id, err := c.callN(req)
	return uint32(id), err
}

// OpenFile resolves a file name to its id.
func (c *Client) OpenFile(name string) (uint32, error) {
	req := c.request(OpOpenFile)
	req.Name = name
	id, err := c.callN(req)
	return uint32(id), err
}

// Counter atomically adds delta to the named persistent counter and returns
// its previous value (fetch-and-add).
func (c *Client) Counter(name string, delta uint64) (uint64, error) {
	req := c.request(OpCounter)
	req.Name, req.N = name, delta
	return c.callN(req)
}

// Checkpoint asks the server to flush everything to stable storage.
func (c *Client) Checkpoint() error {
	_, err := c.callN(c.request(OpCheckpoint))
	return err
}

// nextUnique returns an OID uniquifier, fetched from the server in batches.
func (c *Client) nextUnique() (uint16, error) {
	if c.uniqueNext == c.uniqueEnd {
		const batch = 1024
		start, err := c.Counter("esm.oid.unique", batch)
		if err != nil {
			return 0, err
		}
		c.uniqueNext, c.uniqueEnd = start, start+batch
	}
	u := uint16(c.uniqueNext)
	c.uniqueNext++
	return u, nil
}

// DropCaches empties the client pool (dirty pages must have been committed),
// making the next access cold at the client.
func (c *Client) DropCaches() {
	c.pool.DropAll()
}

// Close ends the session.
func (c *Client) Close() error { return c.tr.Close() }
