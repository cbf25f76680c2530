package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"quickstore/internal/disk"
	"quickstore/internal/page"
	"quickstore/internal/pagedelta"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
	"quickstore/internal/wal"
)

// recoveryBuffer is the in-memory area holding the original values of
// updated pages (Section 3.6). When it fills mid-transaction, its contents
// are diffed and logged early — the behaviour that sinks QS-B in the
// paper's update experiments when 4MB is not enough.
type recoveryBuffer struct {
	entries []recEntry
	bytes   int
	cap     int
}

type recEntry struct {
	pid  disk.PageID
	d    *PageDesc
	orig []byte
}

func (r *recoveryBuffer) full() bool { return r.bytes+disk.PageSize > r.cap }

// add copies data into the next entry. reset only shortens entries, so the
// copy lands in the page buffer an earlier transaction left there: like the
// paper's fixed recovery area, the buffer is allocated once and refilled.
func (r *recoveryBuffer) add(d *PageDesc, data []byte) int {
	n := len(r.entries)
	if n < cap(r.entries) {
		r.entries = r.entries[:n+1]
	} else {
		r.entries = append(r.entries, recEntry{})
	}
	e := &r.entries[n]
	e.pid, e.d, e.orig = d.Pid, d, append(e.orig[:0], data...)
	r.bytes += disk.PageSize
	return n
}

func (r *recoveryBuffer) reset() {
	for i := range r.entries {
		r.entries[i].d = nil // keep the page buffer, not the descriptor
	}
	r.entries = r.entries[:0]
	r.bytes = 0
}

// dirtyLogged marks frame idx modified by a change this layer logs in full
// before the frame can leave the client: through the page's recovery copy
// and its diff (ensureRecoveryCopy came first), a created page's whole-image
// record, or a LogUpdate beside the call. Such a frame is never shipped —
// the server rebuilds it from the records — so a caller that cannot promise
// this must use the pool's plain MarkDirty. Bulk loads log nothing: there
// every frame ships whole.
func (s *Store) dirtyLogged(idx int) {
	if s.cfg.BulkLoad {
		s.c.Pool().MarkDirty(idx)
		return
	}
	s.c.Pool().MarkDirtyLogged(idx)
}

// ensureRecoveryCopy snapshots the page's current contents before its first
// modification of the transaction. If the buffer is full, earlier entries
// are diffed and logged to make room.
func (s *Store) ensureRecoveryCopy(d *PageDesc, data []byte) error {
	if d.RecIdx >= 0 {
		return nil
	}
	if s.rec.full() {
		if err := s.flushRecovery(); err != nil {
			return err
		}
	}
	d.RecIdx = s.rec.add(d, data)
	s.clock.Charge(sim.CtrRecoveryCopy, 1)
	return nil
}

// flushRecovery diffs every buffered page against its current contents,
// emits the resulting log records, and empties the buffer. Pages flushed
// mid-transaction are downgraded to read access so a later update takes a
// fresh copy (keeping the log complete).
func (s *Store) flushRecovery() error {
	for i := range s.rec.entries {
		e := &s.rec.entries[i]
		if e.d.RecIdx < 0 {
			continue // already handled (stolen)
		}
		idx, ok := s.c.Pool().Lookup(e.pid)
		if !ok {
			// The page was evicted: beforeSteal diffed it then.
			e.d.RecIdx = -1
			continue
		}
		s.diffAndLog(e.d, s.c.PageData(idx))
		if s.inTx && e.d.FrameIdx >= 0 {
			_ = s.space.Protect(e.d.Lo, vmem.ProtRead)
		}
	}
	s.rec.reset()
	return nil
}

// diffAndLog compares the page's recovery copy with cur and emits minimal
// log records (Section 3.6's interleaved diff/logging). The entry is
// consumed: d must take a new recovery copy before further logging. Under
// the whole-object-logging ablation the page is logged in full instead.
func (s *Store) diffAndLog(d *PageDesc, cur []byte) {
	if d.RecIdx < 0 || d.RecIdx >= len(s.rec.entries) {
		return
	}
	orig := s.rec.entries[d.RecIdx].orig
	if s.cfg.WholeObjectLogging {
		half := len(cur) / 2
		s.c.LogUpdate(d.Pid, 0, orig[:half], cur[:half])
		s.c.LogUpdate(d.Pid, half, orig[half:], cur[half:])
		d.RecIdx = -1
		return
	}
	s.clock.Charge(sim.CtrPageDiff, 1)
	s.clock.Charge(sim.CtrDiffByte, int64(len(cur)))
	// A separate record pays wal.HeaderBytes of header, a merged one twice
	// the clean gap (its old and new images) — the paper's example: bytes 1
	// and 1024 of an object become two records, bytes 1, 3 and 5 become one.
	s.regs = pagedelta.AppendRegions(s.regs[:0], orig, cur, wal.HeaderBytes)
	for _, r := range s.regs {
		s.c.LogUpdate(d.Pid, r.Off, orig[r.Off:r.Off+r.N], cur[r.Off:r.Off+r.N])
	}
	d.RecIdx = -1
}

// logWholePage emits a redo-only record carrying a fresh page's entire
// image (there is no before-image to diff against). The cost model prices the
// image as two half-page records, as the paper's ESM would have written it;
// the log holds one record of two regions.
func (s *Store) logWholePage(pid disk.PageID, data []byte) {
	half := len(data) / 2
	s.c.LogUpdate(pid, 0, nil, data[:half])
	s.c.LogUpdate(pid, half, nil, data[half:])
}

// logFreshPages logs the full images of pages created this transaction.
func (s *Store) logFreshPages() error {
	if s.cfg.BulkLoad {
		return nil
	}
	pids := make([]disk.PageID, 0, len(s.freshPages))
	for pid := range s.freshPages {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		idx, ok := s.c.Pool().Lookup(pid)
		if !ok {
			continue // stolen earlier; logged by beforeSteal
		}
		s.logWholePage(pid, s.c.PageData(idx))
	}
	return nil
}

// updateMappings recomputes the mapping object of every page modified this
// transaction (Section 3.6: updates can change the set of pages referenced
// by pointers on a page). Fresh pages get their first mapping object here.
func (s *Store) updateMappings() error {
	// A descriptor joins s.dirtied once per transaction (Dirtied guards it)
	// and no two share a page, so each page is visited once. Creating mapping
	// objects dirties metadata pages, which never join the list; the bound is
	// fixed up front all the same.
	for i, n := 0, len(s.dirtied); i < n; i++ {
		if d := s.dirtied[i]; !d.IsLarge {
			if err := s.updateMapping(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// updateMapping rebuilds one page's referenced-page set from its pointers
// (located by the bitmap object), compares it with the stored mapping
// object, and rewrites the mapping object if the set changed.
func (s *Store) updateMapping(d *PageDesc) error {
	data, idx, err := s.residentData(d)
	if err != nil {
		return err
	}
	s.clock.Charge(sim.CtrMapUpdate, 1)
	p := page.MustWrap(data)
	meta, err := readMeta(p)
	if err != nil {
		return err
	}
	bm, _, err := s.c.ReadObject(meta.BmOID)
	if err != nil {
		return err
	}
	// residentData/ReadObject may have shuffled frames; re-resolve.
	data, idx, err = s.residentData(d)
	if err != nil {
		return err
	}
	p = page.MustWrap(data)

	entries, err := s.referencedSet(data, bm)
	if err != nil {
		return err
	}
	// Every use of blob below copies it (into the object, into the log
	// batch), so the buffer is free again when this call returns.
	s.mapBlob = appendMapping(s.mapBlob[:0], entries)
	blob := s.mapBlob

	if !meta.MapOID.IsNil() {
		oldBlob, _, err := s.c.ReadObject(meta.MapOID)
		if err != nil {
			return err
		}
		if bytesEqual(oldBlob, blob) {
			return nil
		}
		if len(oldBlob) == len(blob) {
			// Overwrite in place.
			cur, pageOff, frame, err := s.c.ReadObjectAt(meta.MapOID)
			if err != nil {
				return err
			}
			var old []byte
			if !s.cfg.BulkLoad {
				old = append([]byte(nil), cur...)
			}
			copy(cur, blob)
			s.dirtyLogged(frame)
			if !s.cfg.BulkLoad {
				s.c.LogUpdate(meta.MapOID.Page, pageOff, old, blob)
			}
			return nil
		}
		// Size changed: replace the object (the reason mapping objects
		// are stored separately from their pages, Section 3.4).
		if err := s.c.DeleteObject(meta.MapOID); err != nil {
			return err
		}
	}
	mapOID, obj, err := s.c.CreateObject(s.mapCluster, len(blob))
	if err != nil {
		return err
	}
	// Both records below carry real before-images: the slot and the
	// meta-object sit on pages other transactions committed, and an abort
	// or a restart that undoes the slot's creation must be able to undo
	// these too (a record without one is skipped by both).
	var oldBlob []byte
	pageOff := 0
	if !s.cfg.BulkLoad {
		if _, pageOff, _, err = s.c.ReadObjectAt(mapOID); err != nil {
			return err
		}
		oldBlob = append([]byte(nil), obj...)
	}
	copy(obj, blob)
	if frame, ok := s.c.Pool().Lookup(mapOID.Page); ok {
		s.dirtyLogged(frame)
	}
	if !s.cfg.BulkLoad {
		s.c.LogUpdate(mapOID.Page, pageOff, oldBlob, blob)
	}
	// Point the page's meta-object at its new mapping object. The page's
	// diff already ran (flushRecovery comes first), so the change is logged
	// here — except on a page created by this transaction, whose whole image
	// is logged after this phase (logFreshPages) or when it is stolen.
	data, idx, err = s.residentData(d)
	if err != nil {
		return err
	}
	p = page.MustWrap(data)
	logMeta := !s.cfg.BulkLoad && s.freshPages[d.Pid] == nil
	var oldMeta []byte
	if logMeta {
		if mdata, err := p.Object(metaSlot); err == nil {
			oldMeta = append([]byte(nil), mdata...)
		}
	}
	meta.MapOID = mapOID
	if err := writeMeta(p, meta); err != nil {
		return err
	}
	s.dirtyLogged(idx)
	if logMeta {
		mdata, err := p.Object(metaSlot)
		if err != nil {
			return err
		}
		off, _, err := p.SlotBounds(metaSlot)
		if err != nil {
			return err
		}
		s.c.LogUpdate(d.Pid, off, oldMeta, append([]byte(nil), mdata...))
	}
	return nil
}

// referencedSet builds the mapping entries for a page from its live
// pointers, sorted by target address and deduplicated by target object. The
// result is the store's scratch buffer, good until the next call.
func (s *Store) referencedSet(data, bm []byte) ([]mapEntry, error) {
	entries := s.refSet[:0]
	var scanErr error
	forEachPointer(bm, func(off int) bool {
		ptr := vmem.Addr(leU64(data[off:]))
		if ptr == 0 {
			return true
		}
		td := s.byAddr.Find(ptr)
		if td == nil {
			scanErr = fmt.Errorf("core: page pointer %#x at offset %d targets no descriptor", ptr, off)
			return false
		}
		// Neighbouring pointers mostly share a target; the rest of the
		// duplicates go after the sort.
		if n := len(entries); n == 0 || entries[n-1].ObjLo != td.ObjLo {
			entries = append(entries, mapEntry{
				ObjLo:    td.ObjLo,
				ObjPages: td.ObjPages,
				IsLarge:  td.IsLarge,
				OID:      td.Phys,
			})
		}
		return true
	})
	s.refSet = entries
	if scanErr != nil {
		return nil, scanErr
	}
	slices.SortFunc(entries, func(a, b mapEntry) int { return cmp.Compare(a.ObjLo, b.ObjLo) })
	return slices.CompactFunc(entries, func(a, b mapEntry) bool { return a.ObjLo == b.ObjLo }), nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiffRegionsForTest exposes the diffing algorithm for benchmarks and
// external tests; it returns the (offset, length) pairs of the regions that
// would be logged.
func DiffRegionsForTest(old, cur []byte, hdr int) [][2]int {
	regs := pagedelta.Regions(old, cur, hdr)
	out := make([][2]int, len(regs))
	for i, r := range regs {
		out[i] = [2]int{r.Off, r.N}
	}
	return out
}
