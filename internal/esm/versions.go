package esm

import (
	"sync"

	"quickstore/internal/disk"
)

// Warm-cache coherence state (DESIGN.md §18). cohState is the server-side
// half of the inter-transaction cache-coherence protocol: a per-page
// version table (the token of the last committed image), a bounded
// previous-image cache backing delta shipping, per-transaction install
// captures, and per-session cached-page maps backing piggybacked
// invalidation hints.
//
// Tokens are LSNs (commit, CLR, or — as a fallback for pages the table
// has never seen — the page header's own LSN), but clients treat them as
// opaque and compare only for equality. Token 0 is "unversioned": it
// never matches, so anything served under it must be refetched rather
// than reused.
//
// Staleness invariant: the server answers "not modified" for (pid, token)
// only when token equals the page's current committed version, i.e. only
// when the bytes the client holds are byte-identical to the last
// committed image (modulo the 8-byte header LSN a runtime abort rewrites
// while restoring the data bytes — clients never read the header). Every
// path that changes a page's committed bytes — commit install, 2PC
// decision, abort undo, restart recovery — moves the version first or
// atomically, never after the fact.
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
	// bytes have not changed since server start (or recovery rebuild),
	// which the header-LSN fallback token relies on.
	ver map[disk.PageID]uint64

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

	// sessions back piggybacked invalidation hints: what pages each
	// client session is known to cache and at which token. Bounded maps;
	// on overflow the session is marked lost and the next commit response
	// hints "all". Hints are advisory — correctness rests on Begin
	// validation and the lock-response staleness flag.
	nextSid  uint64
	sessions map[uint64]*cohSession
	txSid    map[uint64]uint64
}

type cohCapture struct {
	img   []byte // committed image before the first install (nil if over cap)
	token uint64 // the token that image was current at
}

type cohPrev struct {
	fromToken uint64 // the token of img
	img       []byte // a full committed page image
}

type cohSession struct {
	cached map[disk.PageID]uint64
	lost   bool
}

const (
	// cohCacheBytes bounds capture + prev image memory.
	cohCacheBytes = 4 << 20
	// cohMaxSessions bounds the session map; eviction is arbitrary (a
	// dropped session just stops receiving hints).
	cohMaxSessions = 1024
	// cohMaxSessionPages bounds one session's cached-page map.
	cohMaxSessionPages = 4096
	// cohMaxHints caps the page ids piggybacked on one commit response.
	cohMaxHints = 64
)

func newCohState() *cohState {
	return &cohState{
		ver:      map[disk.PageID]uint64{},
		pending:  map[disk.PageID]int{},
		captures: map[uint64]map[disk.PageID]*cohCapture{},
		prev:     map[disk.PageID]*cohPrev{},
		capBytes: cohCacheBytes,
		sessions: map[uint64]*cohSession{},
		txSid:    map[uint64]uint64{},
	}
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
	ver = c.ver[pid]
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
	c.ver[pid] = token
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
	cpt := &cohCapture{token: c.ver[pid]}
	if cpt.token == 0 && len(before) >= 8 {
		// Fallback token: the committed image's own header LSN (see
		// answer). Raw pages put object data here, which is safe only
		// because clients never retain tokens for raw pages (see
		// Client.noteToken) — nobody can present the garbage token.
		cpt.token = pageLSNOf(before)
	}
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
// version), and pending drops. Also refreshes the committing session's
// cached tokens for those pages — the client installs its own shipped
// bytes under the commit LSN, so hinting it about its own commit would
// only cause a spurious revalidation.
func (c *cohState) commitTx(tx, lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.captures[tx]
	sess := c.sessions[c.txSid[tx]]
	for pid, cpt := range m {
		if cpt.img != nil {
			c.putPrevLocked(pid, &cohPrev{fromToken: cpt.token, img: cpt.img})
			c.imgBytes -= len(cpt.img)
		}
		c.ver[pid] = lsn
		c.decPendingLocked(pid)
		if sess != nil {
			if _, ok := sess.cached[pid]; ok {
				sess.cached[pid] = lsn
			}
		}
	}
	delete(c.captures, tx)
	// The tx→session binding survives: the OpCommit handler still needs it
	// to take this session's piggybacked hints, and drops it afterwards
	// (dropTx).
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
		c.ver[pid] = abortLSN
		c.decPendingLocked(pid)
	}
	delete(c.captures, tx)
	delete(c.txSid, tx)
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
// bytes: ver1/pending1 are the probe taken before the copy, cur the bytes
// read. It returns the token to serve (0: uncacheable), whether the
// client's copy is current, and — when a delta is possible — the prev
// image to diff against. Called with no latches held.
func (c *cohState) answer(pid disk.PageID, clientToken uint64, cur []byte, ver1 uint64, pending1 int) (token uint64, current bool, base []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ver2, pending2 := c.ver[pid], c.pending[pid]
	if ver1 != ver2 || pending1 != pending2 || pending2 > 0 {
		// The bytes were copied concurrently with an install or an undo:
		// they may not be any committed image. Serve them, but refuse to
		// version them: token 0.
		return 0, false, nil
	}
	token = ver2
	if token == 0 && len(cur) >= 8 {
		// Never committed over since this table was (re)built: the bytes
		// are unchanged, so their header LSN is a stable token — a real
		// LSN for header-bearing pages, which no future commit LSN can
		// collide with. Raw pages put object data here; clients discard
		// tokens for raw pages (Client.noteToken), so the garbage is
		// never presented back.
		token = pageLSNOf(cur)
	}
	if token != 0 && token == clientToken {
		return token, true, nil
	}
	if p := c.prev[pid]; p != nil && clientToken != 0 && p.fromToken == clientToken {
		return token, false, p.img
	}
	return token, false, nil
}

// isCurrent reports whether a cached (pid, token) copy still matches the
// last committed image, without reading any bytes. A missing version
// entry means the page has not been committed over since the table was
// built, so whatever token the server handed out earlier still stands.
func (c *cohState) isCurrent(pid disk.PageID, token uint64) bool {
	if token == 0 {
		return false
	}
	c.mu.Lock()
	ver := c.ver[pid]
	c.mu.Unlock()
	return ver == 0 || ver == token
}

// bindSession resolves the session id carried on OpBegin: reuse sid when
// it names a live session, mint a fresh one otherwise, and bind tx to it
// for this transaction's hint bookkeeping.
func (c *cohState) bindSession(sid, tx uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sid == 0 || c.sessions[sid] == nil {
		c.nextSid++
		sid = c.nextSid
		for evict := range c.sessions {
			if len(c.sessions) < cohMaxSessions {
				break
			}
			delete(c.sessions, evict)
		}
		c.sessions[sid] = &cohSession{cached: map[disk.PageID]uint64{}}
	}
	c.txSid[tx] = sid
	return sid
}

// dropTx forgets a transaction's session binding and captures without
// bumping versions — for transactions that never installed anything.
func (c *cohState) dropTx(tx uint64) {
	c.mu.Lock()
	delete(c.txSid, tx)
	c.mu.Unlock()
}

// noteServed records that tx's session now caches pid at token: nothing
// for a read outside a transaction (tx 0) or a session.
func (c *cohState) noteServed(tx uint64, pid disk.PageID, token uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess := c.sessions[c.txSid[tx]]
	if sess == nil {
		return
	}
	if token == 0 {
		delete(sess.cached, pid)
		return
	}
	if _, ok := sess.cached[pid]; !ok && len(sess.cached) >= cohMaxSessionPages {
		sess.lost = true
		return
	}
	sess.cached[pid] = token
}

// takeHints collects invalidation hints to piggyback on tx's commit
// response: pages the session is known to cache whose versions have
// moved on. Hinted pages are dropped from the session map (the client
// will revalidate and the next serve re-records them). A lost session
// yields hintAll, and its map restarts from empty.
func (c *cohState) takeHints(tx uint64) (pids []disk.PageID, all bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess := c.sessions[c.txSid[tx]]
	if sess == nil {
		return nil, false
	}
	if sess.lost {
		sess.lost = false
		sess.cached = map[disk.PageID]uint64{}
		return nil, true
	}
	for pid, token := range sess.cached {
		if len(pids) >= cohMaxHints {
			break
		}
		if ver := c.ver[pid]; ver != 0 && ver != token {
			pids = append(pids, pid)
			delete(sess.cached, pid)
		}
	}
	return pids, false
}

// rebuildVersionTable reconstructs the version table after restart
// recovery from the page headers themselves: every allocated page with a
// nonzero header LSN gets that LSN as its version. The scan must cover
// the whole volume, not just the recovered log tail — a page committed
// over and then checkpoint-truncated out of the log would otherwise keep
// ver==0, which validates ANY pre-crash token as current. Header LSNs
// are update/CLR record LSNs; commit-record LSNs (the tokens clients
// hold) are distinct LSNs, and WAL LSNs are monotone byte positions that
// survive truncation and reopen, so no token handed out before the crash
// can collide with a rebuilt entry: a client whose cached page changed
// always refetches, never gets a too-old "not modified". (Pages whose
// header is not a real LSN — raw large-object data — are entered with
// whatever their first 8 bytes say; that is safe because clients never
// retain tokens for raw pages, see Client.noteToken.)
// Runs before the server is shared.
func (s *Server) rebuildVersionTable() {
	buf := make([]byte, disk.PageSize)
	n := s.vol.NumPages()
	for pid := disk.PageID(1); uint32(pid) < n; pid++ {
		if err := s.vol.ReadPage(pid, buf); err != nil {
			continue
		}
		if lsn := pageLSNOf(buf); lsn != 0 {
			s.coh.bump(pid, lsn)
		}
	}
}
