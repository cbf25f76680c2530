package esm

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sync"

	"quickstore/internal/disk"
	"quickstore/internal/wal"
)

// Warm-cache coherence state (DESIGN.md §18). cohState is the server-side
// half of the inter-transaction cache-coherence protocol: a per-page
// version table (the token of the last committed image), a change feed
// of the version table's writes in the order they happened, a bounded
// previous-image cache backing delta shipping, and per-transaction install
// captures.
//
// A page's token is its version-table entry — the LSN of the commit or CLR
// that last changed it — or, for a page nothing has changed since this
// server booted, the boot epoch: the top bit set over the durable log end
// once recovery is done. Clients treat tokens as opaque and compare only for
// equality. Token 0 is "unversioned": it never matches, so anything served
// under it must be refetched rather than reused.
//
// Change feed: setVerLocked, the one writer of ver (bump, commitTx,
// abortTx), also appends the (pid, token) it wrote to a ring of feedCap
// entries. A horizon (feed id, seq) names a position in it; a Begin
// presenting the horizon the previous Begin was told learns which pages
// changed since (feedSince) instead of re-proving every cached frame. The
// feed id is drawn at random per cohState, so no horizon of one server
// instance — an earlier boot, a promoted follower at the same durable end —
// is ever answered by another.
//
// Staleness invariant: the server answers "not modified" for (pid, token)
// only when token equals the page's current committed version, i.e. only
// when the bytes the client holds are byte-identical to the last
// committed image (modulo the 8-byte header LSN a runtime abort rewrites
// while restoring the data bytes — clients never read the header). Every
// path that changes a page's committed bytes — commit install, 2PC
// decision, abort undo — moves the version first or atomically, never
// after the fact. Restart recovery moves them all at once: every durable
// change moves the log end, so a reboot over changed pages mints a new
// epoch, and no LSN-valued token (always below 2^63) equals an epoch.
//
// Lock order: cohState.mu ranks BELOW sim.Clock and above the pool's
// frame content latches — it is taken under Server.mu (commit/abort
// bookkeeping, like mvcc.Store.mu) and under a frame content latch (the
// abort undo bumps versions while holding the exclusive latch so readers
// can never pair new bytes with an old version), and it never acquires
// anything itself.
type cohState struct {
	mu sync.Mutex

	// ver maps a page to the token of its last committed image. Entries
	// are never evicted: a missing entry is a promise that the page's
	// bytes have not changed since boot, which is what epoch vouches for.
	ver   map[disk.PageID]uint64
	epoch uint64

	// feed is the change-feed ring, allocated on the first version write;
	// entry seq s (1-based) sits at feed[(s-1)%feedCap]. feedHead is the
	// seq of the newest entry, feedID the random name of this feed.
	feed     []feedEntry
	feedHead uint64
	feedID   uint64

	// pending counts uncommitted installs per page (the steal path ships
	// dirty pages mid-transaction). While pending, the frame's bytes are
	// not the committed image, so versioned reads serve token 0 and
	// validation refuses to repair from them.
	pending map[disk.PageID]int

	// captures holds, per open transaction, the committed image (and its
	// token) of every page the transaction installed over — the base the
	// commit turns into a prev entry for delta shipping. imgBytes tracks
	// the total; past capBytes new captures drop the image (the version
	// still bumps, only the delta is lost).
	captures map[uint64]map[disk.PageID]*cohCapture
	imgBytes int

	// prev caches one previous committed image per page, keyed by the
	// token a client would still hold, so a stale cached copy can be
	// repaired with a pagedelta patch instead of a full page. Bounded by
	// capBytes; eviction is arbitrary (a miss only costs a full ship).
	prev      map[disk.PageID]*cohPrev
	prevBytes int
	capBytes  int
}

type feedEntry struct {
	pid   disk.PageID
	token uint64
}

// feedCap is the change feed's length in entries (16 bytes each: 64 KB).
// A horizon more than feedCap version writes old is answered "too old".
const feedCap = 4096

// HorizonBytes is the wire size of a change-feed horizon: u64 feed id, u64
// seq. An all-zero horizon means "none".
const HorizonBytes = 8 + 8

type cohCapture struct {
	img   []byte // committed image before the first install (nil if over cap)
	token uint64 // the token that image was current at
}

type cohPrev struct {
	fromToken uint64 // the token of img
	img       []byte // a full committed page image
}

// cohCacheBytes bounds capture + prev image memory.
const cohCacheBytes = 4 << 20

// newCohState starts a version table for a server whose log is durable
// through durable, with recovery (if any) already done.
func newCohState(durable wal.LSN) *cohState {
	id := rand.Uint64()
	for id == 0 {
		id = rand.Uint64() // 0 is the client's "no horizon"
	}
	return &cohState{
		ver:      map[disk.PageID]uint64{},
		epoch:    1<<63 | uint64(durable),
		feedID:   id,
		pending:  map[disk.PageID]int{},
		captures: map[uint64]map[disk.PageID]*cohCapture{},
		prev:     map[disk.PageID]*cohPrev{},
		capBytes: cohCacheBytes,
	}
}

// verLocked is the page's current token: its version entry, else the epoch.
func (c *cohState) verLocked(pid disk.PageID) uint64 {
	if v, ok := c.ver[pid]; ok {
		return v
	}
	return c.epoch
}

// setVerLocked moves a page's version to token and records the move in the
// change feed.
func (c *cohState) setVerLocked(pid disk.PageID, token uint64) {
	c.ver[pid] = token
	if c.feed == nil {
		c.feed = make([]feedEntry, feedCap)
	}
	c.feed[c.feedHead%feedCap] = feedEntry{pid: pid, token: token}
	c.feedHead++
}

// feedSince answers a Begin's horizon: the current horizon and, when the
// presented one (a HorizonBytes slice) is answerable, one page entry
// (AppendPageEntry) for every page whose version was written after it,
// carrying the page's current token. A page written twice since is listed
// once: an entry is emitted only while its token is still the page's
// version. ok is false — "too old", the answer is the horizon alone — when
// the horizon is another feed's, is ahead of this one, lies past the ring's
// reach, or more than max pages qualify. The answer is appended to dst.
func (c *cohState) feedSince(dst, horizon []byte, max int) ([]byte, bool) {
	id, seq := binary.LittleEndian.Uint64(horizon), binary.LittleEndian.Uint64(horizon[8:])
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := id == c.feedID && seq <= c.feedHead && c.feedHead-seq <= feedCap
	size := HorizonBytes
	if ok {
		size += PageEntryBytes * int(min(c.feedHead-seq, uint64(max)))
	}
	dst = slices.Grow(dst, size)
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, c.feedID)
	dst = binary.LittleEndian.AppendUint64(dst, c.feedHead)
	if !ok {
		return dst, false
	}
	n := 0
	for s := seq; s < c.feedHead; s++ {
		e := c.feed[s%feedCap]
		if c.ver[e.pid] != e.token {
			continue // written again since: a later entry carries it
		}
		if n++; n > max {
			return dst[:at+HorizonBytes], false
		}
		dst = AppendPageEntry(dst, uint32(e.pid), e.token)
	}
	return dst, true
}

// probe returns the page's (version, pending) pair. Used as a seqlock
// around lock-free frame byte reads: sample before and after copying the
// bytes, and trust the pairing only when both samples agree and nothing
// is pending. Versions are LSNs and never repeat, and every byte-changing
// path either bumps pending first (installs) or bumps the version under
// the same content latch as the write (abort undo), so an unchanged pair
// proves the bytes read belong to that version.
func (c *cohState) probe(pid disk.PageID) (ver uint64, pending int) {
	c.mu.Lock()
	ver = c.verLocked(pid)
	pending = c.pending[pid]
	c.mu.Unlock()
	return ver, pending
}

// bump moves a page's version to token. The abort undo calls it while
// holding the page's exclusive content latch, right after rewriting the
// bytes, so byte change and version change are atomic for readers probing
// around a latched copy.
func (c *cohState) bump(pid disk.PageID, token uint64) {
	c.mu.Lock()
	c.setVerLocked(pid, token)
	c.mu.Unlock()
}

// captureInstall records a transaction's first change to a page in the
// server pool: before holds the committed image about to be overwritten,
// and the table keeps that slice (the caller made it for this and must not
// write to it afterwards). Must be called BEFORE the frame bytes change —
// it raises pending, which is what keeps concurrent versioned reads from
// caching the mid-transaction bytes. Later changes by the same transaction
// (log records, then a steal, then commit) keep the first capture.
func (c *cohState) captureInstall(tx uint64, pid disk.PageID, before []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.captures[tx]
	if m == nil {
		m = map[disk.PageID]*cohCapture{}
		c.captures[tx] = m
	}
	if _, ok := m[pid]; ok {
		return
	}
	cpt := &cohCapture{token: c.verLocked(pid)}
	if c.pending[pid] > 0 {
		// Another transaction's install is still unresolved (only
		// possible outside two-phase locking, e.g. a drill driving the
		// server directly): the "committed base" is not trustworthy.
		cpt.token = 0
	}
	if c.imgBytes+c.prevBytes+len(before) <= c.capBytes {
		cpt.img = before
		c.imgBytes += len(cpt.img)
	}
	m[pid] = cpt
	c.pending[pid]++
}

// captured reports whether tx already holds a capture of pid, so the caller
// can skip reading a before-image captureInstall would only drop.
func (c *cohState) captured(tx uint64, pid disk.PageID) bool {
	c.mu.Lock()
	_, ok := c.captures[tx][pid]
	c.mu.Unlock()
	return ok
}

// commitTx retires a transaction's captures at commit: every installed
// page's version becomes the commit LSN, its pre-commit image becomes the
// page's prev entry (delta base for clients still holding the old
// version), and pending drops.
func (c *cohState) commitTx(tx, lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pid, cpt := range c.captures[tx] {
		if cpt.img != nil {
			c.putPrevLocked(pid, &cohPrev{fromToken: cpt.token, img: cpt.img})
			c.imgBytes -= len(cpt.img)
		}
		c.setVerLocked(pid, lsn)
		c.decPendingLocked(pid)
	}
	delete(c.captures, tx)
}

// abortTx retires a transaction's captures at abort: every installed
// page's version moves to abortLSN — a fresh token nobody holds — so
// cached copies of anything the transaction touched are invalidated
// outright. (The undo path already bumped undone pages to their CLR LSNs
// under the content latch; this sweep covers installs the log had no
// before-images for, e.g. stolen raw pages.)
func (c *cohState) abortTx(tx, abortLSN uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pid, cpt := range c.captures[tx] {
		if cpt.img != nil {
			c.imgBytes -= len(cpt.img)
		}
		c.setVerLocked(pid, abortLSN)
		c.decPendingLocked(pid)
	}
	delete(c.captures, tx)
}

func (c *cohState) decPendingLocked(pid disk.PageID) {
	if n := c.pending[pid]; n > 1 {
		c.pending[pid] = n - 1
	} else {
		delete(c.pending, pid)
	}
}

func (c *cohState) putPrevLocked(pid disk.PageID, p *cohPrev) {
	if old := c.prev[pid]; old != nil {
		c.prevBytes -= len(old.img)
	}
	c.prev[pid] = p
	c.prevBytes += len(p.img)
	for pidE := range c.prev {
		if c.prevBytes+c.imgBytes <= c.capBytes {
			break
		}
		if pidE == pid {
			continue
		}
		c.prevBytes -= len(c.prev[pidE].img)
		delete(c.prev, pidE)
	}
}

// answer classifies a versioned read after the caller copied the page
// bytes: ver1/pending1 are the probe taken before the copy. It returns the
// token to serve (0: uncacheable), whether the client's copy is current,
// and — when a delta is possible — the prev image to diff against. Called
// with no latches held.
func (c *cohState) answer(pid disk.PageID, clientToken, ver1 uint64, pending1 int) (token uint64, current bool, base []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	token = c.verLocked(pid)
	if token != ver1 || c.pending[pid] != pending1 || pending1 > 0 {
		// The bytes were copied concurrently with an install or an undo:
		// they may not be any committed image. Serve them, but refuse to
		// version them: token 0.
		return 0, false, nil
	}
	if token == clientToken {
		return token, true, nil
	}
	if p := c.prev[pid]; p != nil && clientToken != 0 && p.fromToken == clientToken {
		return token, false, p.img
	}
	return token, false, nil
}

// isCurrent reports whether a cached (pid, token) copy still matches the
// last committed image, without reading any bytes.
func (c *cohState) isCurrent(pid disk.PageID, token uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return token != 0 && token == c.verLocked(pid)
}
