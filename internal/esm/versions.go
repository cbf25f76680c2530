package esm

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"quickstore/internal/disk"
	"quickstore/internal/pagedelta"
	"quickstore/internal/wal"
)

// Warm-cache coherence state (DESIGN.md §18). cohState is the server-side
// half of the inter-transaction cache-coherence protocol: a per-page
// version table (the token of the last committed image), a change feed
// of the version table's writes in the order they happened, a page-change
// index backing delta shipping, and the pages each open transaction has
// raised a pending count on.
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
// Page-change index: every change to a page's bytes in the server pool —
// a redone update record, a CLR, a whole-image install — appends one entry
// (page, key LSN, the byte ranges it wrote) under mu before the content
// latch that covers the change is released, and every version write appends
// a mark keyed by the new token. A copy at token t therefore differs from
// the page only within the ranges of the entries after t's mark, and a
// delta is the current image's bytes over them (appendDelta): no page image
// is ever kept. An epoch copy lacks the page's whole chain, which is
// complete while floor (the key from which the index holds every change) is
// at or below the epoch's LSN. A checkpoint drops what its log cut dropped
// and raises floor.
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

	// owned holds, per open transaction, the pages whose pending count it
	// raised; commit and abort retire them. Retired sets wait in spare for
	// the next transaction, so a page costs no allocation of its own.
	owned map[uint64]map[disk.PageID]struct{}
	spare []map[disk.PageID]struct{}

	// changes and spans are the page-change index, in the order entries
	// were appended; entries before position live were dropped by a
	// checkpoint (their chunks are freed, or about to be) and read as no
	// entry. newest maps a page to the position of its latest live entry,
	// and floor is the lowest key the index is complete from. regs is
	// appendDelta's scratch.
	changes chunked[change]
	spans   chunked[span]
	live    uint64
	newest  map[disk.PageID]uint64
	floor   uint64
	regs    []pagedelta.Region
}

type feedEntry struct {
	pid   disk.PageID
	token uint64
}

// change is one page-change index entry: a change to pid's bytes, or with
// no spans a version mark, keyed by an LSN. prev is how many positions back
// the page's previous entry stands (0 for none), and the n spans from
// position at (its low 32 bits, spanPos) are the byte ranges it wrote.
type change struct {
	pid   disk.PageID
	prev  uint32
	key   uint64
	at, n uint32
}

// span is one changed byte range of a page.
type span struct{ off, n uint16 }

// The page-change index is stored in chunks of these many entries and
// ranges (384 KB and 256 KB), sized so that T2B, whose checkpoint every 16
// commits drops about 15,700 entries and 157,000 ranges, allocates four
// chunks per cycle: what a checkpoint frees is regrown in few, large steps.
const (
	changeChunkShift = 14
	spanChunkShift   = 16
)

// chunked is an append-only sequence of chunks of 1<<shift entries whose
// leading chunks can be freed. Every entry keeps the position it was
// appended at (0, 1, 2, ... over the sequence's life) for as long as it is
// held, which is from base to next.
type chunked[T any] struct {
	shift      uint
	base, next uint64
	chunks     [][]T
}

// at returns the held entry at pos.
func (q *chunked[T]) at(pos uint64) *T {
	o := pos - q.base
	return &q.chunks[o>>q.shift][o&(1<<q.shift-1)]
}

// push appends v, allocating a chunk when the last one is full.
func (q *chunked[T]) push(v T) {
	o := q.next - q.base
	if o>>q.shift == uint64(len(q.chunks)) {
		q.chunks = append(q.chunks, make([]T, 1<<q.shift))
	}
	q.chunks[o>>q.shift][o&(1<<q.shift-1)] = v
	q.next++
}

// freeBefore frees the leading chunks that hold no entry at or past pos;
// with pos at next, all of them.
func (q *chunked[T]) freeBefore(pos uint64) {
	k, size := 0, uint64(1)<<q.shift
	for ; k < len(q.chunks) && q.base+size <= pos; k++ {
		q.base += size
	}
	if pos >= q.next {
		k, q.base = len(q.chunks), q.next
	}
	n := copy(q.chunks, q.chunks[k:])
	clear(q.chunks[n:])
	q.chunks = q.chunks[:n]
}

// spanPos is the position of a held span whose low 32 bits are at: a
// change stores only those, and fewer than 2^32 spans are ever held.
func (c *cohState) spanPos(at uint32) uint64 {
	return c.spans.base + uint64(at-uint32(c.spans.base))
}

// spanGap is the widest gap noteSpanLocked closes between two ranges of
// one entry: pagedelta's run header, so merging never grows a delta.
const spanGap = 4

// feedCap is the change feed's length in entries (16 bytes each: 64 KB).
// A horizon more than feedCap version writes old is answered "too old".
const feedCap = 4096

// HorizonBytes is the wire size of a change-feed horizon: u64 feed id, u64
// seq. An all-zero horizon means "none".
const HorizonBytes = 8 + 8

// epochBit marks a token as a boot epoch; its other bits are an LSN.
const epochBit = 1 << 63

// newCohState starts a version table for a server whose log is durable
// through durable, with recovery (if any) already done.
func newCohState(durable wal.LSN) *cohState {
	id := rand.Uint64()
	for id == 0 {
		id = rand.Uint64() // 0 is the client's "no horizon"
	}
	return &cohState{
		ver:     map[disk.PageID]uint64{},
		epoch:   epochBit | uint64(durable),
		feedID:  id,
		pending: map[disk.PageID]int{},
		owned:   map[uint64]map[disk.PageID]struct{}{},
		changes: chunked[change]{shift: changeChunkShift},
		spans:   chunked[span]{shift: spanChunkShift},
		newest:  map[disk.PageID]uint64{},
		floor:   uint64(durable),
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
// change feed and, unless the page's newest entry is already keyed token (a
// CLR's), as a mark in the page-change index.
func (c *cohState) setVerLocked(pid disk.PageID, token uint64) {
	c.ver[pid] = token
	if pos, ok := c.newest[pid]; !ok || c.changes.at(pos).key != token {
		c.noteLocked(pid, token)
	}
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

// undone indexes a CLR the abort undo just redid onto its page and moves
// the page's version to the CLR's LSN. The undo calls it while holding the
// page's exclusive content latch, right after rewriting the bytes, so byte
// change and version change are atomic for readers probing around a
// latched copy.
func (c *cohState) undone(clr *wal.Record) {
	c.mu.Lock()
	c.noteRecordLocked(clr.Page, clr.LSN, clr.Regions())
	c.setVerLocked(disk.PageID(clr.Page), uint64(clr.LSN))
	c.mu.Unlock()
}

// noteRecord indexes an update record just redone onto page: key its LSN,
// one range per region. Called under the page's exclusive content latch, in
// the same hold as the redo.
func (c *cohState) noteRecord(page uint32, lsn wal.LSN, it wal.RegionIter) {
	c.mu.Lock()
	c.noteRecordLocked(page, lsn, it)
	c.mu.Unlock()
}

func (c *cohState) noteRecordLocked(page uint32, lsn wal.LSN, it wal.RegionIter) {
	c.noteLocked(disk.PageID(page), uint64(lsn))
	for it.Next() {
		c.noteSpanLocked(it.Off, len(it.New))
	}
}

// noteInstall indexes a whole image installed over prior under key, the
// stamp the install writes: one range per run of 8-byte words where the two
// differ. Whole words cost a delta at most 14 bytes per range, and spare
// bulk loads, which install every page whole, a byte-exact diff's boundary
// search. Called under the page's exclusive content latch, before the image
// is copied over prior; pages are a whole number of words.
func (c *cohState) noteInstall(pid disk.PageID, key uint64, prior, image []byte) {
	word := func(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
	c.mu.Lock()
	c.noteLocked(pid, key)
	for i := 0; i+8 <= len(image); i += 8 {
		if word(prior, i) == word(image, i) {
			continue
		}
		j := i + 8
		for j+8 <= len(image) && word(prior, j) != word(image, j) {
			j += 8
		}
		c.noteSpanLocked(i, j-i)
		i = j
	}
	c.mu.Unlock()
}

// noteLocked appends an entry with no ranges yet for pid under key.
func (c *cohState) noteLocked(pid disk.PageID, key uint64) {
	var prev uint32
	if p, ok := c.newest[pid]; ok && c.changes.next-p <= math.MaxUint32 {
		prev = uint32(c.changes.next - p)
	}
	c.newest[pid] = c.changes.next
	c.changes.push(change{pid: pid, prev: prev, key: key, at: uint32(c.spans.next)})
}

// noteSpanLocked adds the range [off, off+n) to the newest entry, closing a
// gap of up to spanGap bytes after the entry's last range.
func (c *cohState) noteSpanLocked(off, n int) {
	if n == 0 {
		return
	}
	e := c.changes.at(c.changes.next - 1)
	if e.n > 0 {
		last := c.spans.at(c.spans.next - 1)
		if end := int(last.off) + int(last.n); off >= int(last.off) && off <= end+spanGap {
			last.n = uint16(max(end, off+n) - int(last.off))
			return
		}
	}
	c.spans.push(span{off: uint16(off), n: uint16(n)})
	e.n++
}

// own raises pid's pending count on behalf of tx, once per (transaction,
// page), BEFORE tx first changes the page's bytes in the server pool: it is
// what keeps concurrent versioned reads from caching mid-transaction bytes.
func (c *cohState) own(tx uint64, pid disk.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.owned[tx]
	if m == nil {
		if n := len(c.spare); n > 0 {
			m, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			m = map[disk.PageID]struct{}{}
		}
		c.owned[tx] = m
	}
	if _, ok := m[pid]; !ok {
		m[pid] = struct{}{}
		c.pending[pid]++
	}
}

// owns reports whether tx already raised pid's pending count.
func (c *cohState) owns(tx uint64, pid disk.PageID) bool {
	c.mu.Lock()
	_, ok := c.owned[tx][pid]
	c.mu.Unlock()
	return ok
}

// commitTx retires a transaction's pages at commit: every page it changed
// takes the commit LSN as its version, and its pending count drops.
func (c *cohState) commitTx(tx, lsn uint64) {
	c.mu.Lock()
	c.retireLocked(tx, lsn)
	c.mu.Unlock()
}

// abortTx retires a transaction's pages at abort: every page it changed
// moves to abortLSN — a fresh token nobody holds — so cached copies of
// anything the transaction touched are invalidated outright. (The undo path
// already moved undone pages to their CLR LSNs under the content latch; this
// sweep covers installs the log had no before-images for, e.g. stolen raw
// pages.)
func (c *cohState) abortTx(tx, abortLSN uint64) {
	c.mu.Lock()
	c.retireLocked(tx, abortLSN)
	c.mu.Unlock()
}

func (c *cohState) retireLocked(tx, token uint64) {
	m := c.owned[tx]
	if m == nil {
		return
	}
	for pid := range m {
		c.setVerLocked(pid, token)
		if n := c.pending[pid]; n > 1 {
			c.pending[pid] = n - 1
		} else {
			delete(c.pending, pid)
		}
	}
	delete(c.owned, tx)
	clear(m)
	c.spare = append(c.spare, m)
}

// answer classifies a versioned read after the caller copied the page
// bytes: ver1/pending1 are the probe taken before the copy. It returns the
// token to serve (0: uncacheable) and whether the client's copy is current.
// Called with no latches held.
func (c *cohState) answer(pid disk.PageID, clientToken, ver1 uint64, pending1 int) (token uint64, current bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	token = c.verLocked(pid)
	if token != ver1 || c.pending[pid] != pending1 || pending1 > 0 {
		// The bytes were copied concurrently with an install or an undo:
		// they may not be any committed image. Serve them, but refuse to
		// version them: token 0.
		return 0, false
	}
	return token, token == clientToken
}

// appendDelta appends to dst a pagedelta patch that brings a copy of pid
// at token have to cur, a committed image of the page read no earlier than
// have: cur's bytes over every range the page's entries after have's mark
// wrote, and over the header [0,8) whose page LSN the client's copy may
// lack. ok is false, and dst unchanged, when the index cannot vouch for
// have (a token below floor, or one whose mark it never held) or the patch
// would be no smaller than cur.
func (c *cohState) appendDelta(dst, cur []byte, pid disk.PageID, have uint64) (out []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if have == 0 || have&^epochBit < c.floor {
		return dst, false
	}
	c.regs = append(c.regs[:0], pagedelta.Region{Off: 0, N: 8})
	pos, found := c.newest[pid]
	for found {
		e := c.changes.at(pos)
		if e.key == have {
			break
		}
		for k, at := uint64(0), c.spanPos(e.at); k < uint64(e.n); k++ {
			sp := c.spans.at(at + k)
			c.regs = append(c.regs, pagedelta.Region{Off: int(sp.off), N: int(sp.n)})
		}
		// A page's first entry, or a link to a dropped one: no entry.
		found = e.prev != 0 && pos-uint64(e.prev) >= c.live
		pos -= uint64(e.prev)
	}
	if !found && have != c.epoch {
		return dst, false // a token this index has no mark of
	}
	if out = pagedelta.AppendRuns(dst, cur, c.regs); len(out)-len(dst) >= len(cur) {
		return dst, false
	}
	return out, true
}

// dropBefore raises floor to cut, once a checkpoint has cut the log there
// (a delta is never made from a change the retained log no longer holds),
// drops the leading entries keyed below it and frees the chunks that hold
// nothing else. A link to a dropped entry reads as no entry, which
// appendDelta answers "cannot vouch".
func (c *cohState) dropBefore(cut uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cut <= c.floor {
		return
	}
	c.floor = cut
	for c.live < c.changes.next && c.changes.at(c.live).key < cut {
		c.live++
	}
	spans := c.spans.next
	if c.live < c.changes.next {
		spans = c.spanPos(c.changes.at(c.live).at)
	}
	c.changes.freeBefore(c.live)
	c.spans.freeBefore(spans)
	for pid, pos := range c.newest {
		if pos < c.live {
			delete(c.newest, pid)
		}
	}
}

// indexEntries is the number of entries the page-change index holds.
func (c *cohState) indexEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.changes.next - c.live)
}

// isCurrent reports whether a cached (pid, token) copy still matches the
// last committed image, without reading any bytes.
func (c *cohState) isCurrent(pid disk.PageID, token uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return token != 0 && token == c.verLocked(pid)
}
