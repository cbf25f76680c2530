// Package mvcc is the version store behind snapshot reads: it retains
// before-image pages keyed by (page, commit LSN) so a read-only transaction
// can reconstruct the database as of a single snapshot LSN while writers
// proceed — without the reader ever touching the lock manager.
//
// The images come from the server's own pool: before a transaction first
// changes a page there — by redoing its log records onto it as they arrive
// or by installing an image it shipped whole — the server files the page's
// current bytes (esm.Server.captureBefore). The store files each
// image under the transaction that overwrote it; when that transaction
// commits at LSN C the image becomes the committed version "valid for every
// snapshot S < C". A snapshot at S resolving page P takes the committed
// version with the smallest boundary above S, or — when the page's current
// frame holds bytes from a still-uncommitted writer — the pending
// before-image, or, failing both, the live page itself.
//
// Retention is pin-based: BeginSnapshot pins its LSN, EndSnapshot unpins,
// and a version is reclaimed as soon as no pinned snapshot can select it
// (future snapshots begin at the newest commit LSN, so they never reach
// backward past it). A byte cap bounds worst-case memory: under pressure
// the globally oldest committed version is evicted and the page poisoned
// below that boundary, so a straggler snapshot gets ErrSnapshotTooOld
// instead of a wrong image. Versions are volatile — checkpoints and crash
// recovery never need them, because redo/undo run from the WAL and volume.
package mvcc

import (
	"errors"
	"sync"

	"quickstore/internal/wal"
)

// ErrSnapshotTooOld reports that the version a snapshot needs was evicted
// under the store's byte cap. The reader must give up this snapshot and
// begin a fresh one.
var ErrSnapshotTooOld = errors.New("mvcc: snapshot too old (version evicted under memory pressure)")

// DefaultMaxBytes caps retained before-images when the caller passes 0.
const DefaultMaxBytes = 64 << 20

// version is one committed before-image: the page as it stood before the
// transaction that committed at `until` rewrote it. It is selected by any
// snapshot S with prevUntil <= S < until.
type version struct {
	until wal.LSN
	image []byte
}

// pendingImage is a before-image whose overwriting transaction has not
// resolved yet. While it exists, the live frame holds uncommitted bytes and
// every snapshot reader of the page uses this image instead.
type pendingImage struct {
	tx    uint64
	image []byte
}

type pageVersions struct {
	committed []version      // ascending by until
	pending   []pendingImage // capture order; head is the oldest writer
	floor     wal.LSN        // versions with until <= floor were cap-evicted
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Captures    int64 // before-images filed
	Lookups     int64 // snapshot page resolutions
	VersionHits int64 // resolved from a committed version
	PendingHits int64 // resolved from an uncommitted writer's before-image
	TooOld      int64 // ErrSnapshotTooOld returned
	Evicted     int64 // versions dropped by the byte cap
	Reclaimed   int64 // versions dropped by pin-based GC
	Versions    int   // committed versions currently retained
	Pending     int   // pending before-images currently retained
	Bytes       int   // retained image bytes (committed + pending)
	Pins        int   // distinct pinned snapshot LSNs
}

// Store is the version store. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	maxBytes int
	pages    map[uint32]*pageVersions
	byTx     map[uint64][]uint32 // pages with a pending image per transaction
	pins     map[wal.LSN]int
	bytes    int

	captures    int64
	lookups     int64
	versionHits int64
	pendingHits int64
	tooOld      int64
	evicted     int64
	reclaimed   int64
}

// New builds a version store retaining at most maxBytes of images
// (0 = DefaultMaxBytes, negative = unbounded).
func New(maxBytes int) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		maxBytes: maxBytes,
		pages:    map[uint32]*pageVersions{},
		byTx:     map[uint64][]uint32{},
		pins:     map[wal.LSN]int{},
	}
}

// CaptureBefore files the current image of page pid as the before-image of
// transaction tx, copying it. Only the first capture per (tx, page) counts:
// the caller invokes it before every install, and the image that matters is
// the one preceding the transaction's FIRST overwrite. Must be called
// before the live frame is overwritten.
func (s *Store) CaptureBefore(pid uint32, tx uint64, image []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pv := s.pages[pid]
	if pv == nil {
		pv = &pageVersions{}
		s.pages[pid] = pv
	}
	for _, p := range pv.pending {
		if p.tx == tx {
			return // later installs by the same tx overwrite its own bytes
		}
	}
	pv.pending = append(pv.pending, pendingImage{tx: tx, image: append([]byte(nil), image...)})
	s.byTx[tx] = append(s.byTx[tx], pid)
	s.bytes += len(image)
	s.captures++
	s.enforceCapLocked()
}

// Commit resolves transaction tx at commitLSN: each of its pending images
// whose page it was the oldest uncommitted writer of becomes a committed
// version valid below commitLSN. (On lock-protected pages the X lock
// serializes writers, so the image is always at the head; interleaved
// writers on unlocked structural pages degrade to dropping the younger
// image, which only loses precision pages that were never read-ordered to
// begin with.) Call it at the instant the commit record is appended — that
// LSN is the version boundary snapshot selection compares against.
func (s *Store) Commit(tx uint64, commitLSN wal.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pid := range s.byTx[tx] {
		pv := s.pages[pid]
		if pv == nil {
			continue
		}
		idx := -1
		for i, p := range pv.pending {
			if p.tx == tx {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		img := pv.pending[idx]
		pv.pending = append(pv.pending[:idx], pv.pending[idx+1:]...)
		if idx != 0 {
			// An older writer is still unresolved; its head image already
			// covers every snapshot below both commits.
			s.bytes -= len(img.image)
			continue
		}
		if n := len(pv.committed); n > 0 && pv.committed[n-1].until >= commitLSN {
			s.bytes -= len(img.image) // out-of-order boundary; keep chain sorted
			continue
		}
		pv.committed = append(pv.committed, version{until: commitLSN, image: img.image})
	}
	delete(s.byTx, tx)
	s.gcLocked()
}

// Abort discards transaction tx's pending images: the live frames are being
// rolled back to exactly these bytes, so the versions would be redundant.
func (s *Store) Abort(tx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pid := range s.byTx[tx] {
		pv := s.pages[pid]
		if pv == nil {
			continue
		}
		for i, p := range pv.pending {
			if p.tx == tx {
				s.bytes -= len(p.image)
				pv.pending = append(pv.pending[:i], pv.pending[i+1:]...)
				break
			}
		}
	}
	delete(s.byTx, tx)
	s.gcLocked()
}

// Pin registers a snapshot at LSN s, protecting every version it may
// select from reclamation. Multiple snapshots at one LSN refcount.
func (st *Store) Pin(s wal.LSN) {
	st.mu.Lock()
	st.pins[s]++
	st.mu.Unlock()
}

// Unpin releases one snapshot at LSN s and reclaims whatever no longer has
// a pinned reader. Unpinning an unknown LSN is a no-op.
func (st *Store) Unpin(s wal.LSN) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, ok := st.pins[s]; ok {
		if n <= 1 {
			delete(st.pins, s)
		} else {
			st.pins[s] = n - 1
		}
	}
	st.gcLocked()
}

// Lookup resolves page pid for a snapshot at LSN s. A nil image with nil
// error means the live page is the right answer (no version intervenes).
// The returned slice is shared — callers must treat it as read-only.
//
// The caller's protocol makes the race with writers safe: read the live
// frame FIRST, then Lookup. A writer captures the before-image (visible to
// Lookup) strictly before overwriting the frame, so if the live read saw
// new bytes the pending image is already filed, and if Lookup misses the
// image the live bytes were still the old ones.
func (st *Store) Lookup(pid uint32, s wal.LSN) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lookups++
	pv := st.pages[pid]
	if pv == nil {
		return nil, nil
	}
	if s < pv.floor {
		st.tooOld++
		return nil, ErrSnapshotTooOld
	}
	// Smallest boundary above s wins: that version is the page as of the
	// last commit at or below s.
	lo, hi := 0, len(pv.committed)
	for lo < hi {
		mid := (lo + hi) / 2
		if pv.committed[mid].until > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(pv.committed) {
		st.versionHits++
		return pv.committed[lo].image, nil
	}
	if len(pv.pending) > 0 {
		st.pendingHits++
		return pv.pending[0].image, nil
	}
	return nil, nil
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Captures:    s.captures,
		Lookups:     s.lookups,
		VersionHits: s.versionHits,
		PendingHits: s.pendingHits,
		TooOld:      s.tooOld,
		Evicted:     s.evicted,
		Reclaimed:   s.reclaimed,
		Bytes:       s.bytes,
		Pins:        len(s.pins),
	}
	for _, pv := range s.pages {
		out.Versions += len(pv.committed)
		out.Pending += len(pv.pending)
	}
	return out
}

// Bytes returns the retained image bytes.
func (s *Store) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// gcLocked reclaims every version no pinned snapshot can select. A version
// with boundary U is selectable only by snapshots strictly below U; new
// snapshots pin at the newest commit LSN, which is >= every boundary, so
// once the minimum pinned LSN reaches U the version is dead forever.
func (s *Store) gcLocked() {
	minPinned := wal.LSN(^uint64(0))
	for p := range s.pins {
		if p < minPinned {
			minPinned = p
		}
	}
	for pid, pv := range s.pages {
		for len(pv.committed) > 0 && pv.committed[0].until <= minPinned {
			s.bytes -= len(pv.committed[0].image)
			pv.committed[0].image = nil
			pv.committed = pv.committed[1:]
			s.reclaimed++
		}
		if len(pv.committed) == 0 && len(pv.pending) == 0 && minPinned >= pv.floor {
			delete(s.pages, pid)
		}
	}
}

// enforceCapLocked evicts globally oldest committed versions until the
// byte cap holds, poisoning each page below the evicted boundary. Pending
// images are never evicted — while a writer is unresolved its before-image
// is the only correct answer for every snapshot reader of the page.
func (s *Store) enforceCapLocked() {
	if s.maxBytes < 0 {
		return
	}
	for s.bytes > s.maxBytes {
		var oldest *pageVersions
		oldestLSN := wal.LSN(^uint64(0))
		for _, pv := range s.pages {
			if len(pv.committed) > 0 && pv.committed[0].until < oldestLSN {
				oldestLSN = pv.committed[0].until
				oldest = pv
			}
		}
		if oldest == nil {
			return // only pending images remain; cap is best-effort there
		}
		s.bytes -= len(oldest.committed[0].image)
		if oldest.committed[0].until > oldest.floor {
			oldest.floor = oldest.committed[0].until
		}
		oldest.committed[0].image = nil
		oldest.committed = oldest.committed[1:]
		s.evicted++
	}
}
