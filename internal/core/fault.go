package core

import (
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/page"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
)

// handleFault is the QuickStore fault-handling routine (Sections 3.1 and
// 3.4): it resolves the faulting address to a page descriptor, reads the
// page through the storage manager if necessary, processes the page's
// mapping object (assigning virtual frames to every page its pointers
// reference, swizzling only on collision), and enables the requested access.
func (s *Store) handleFault(a vmem.Addr, acc vmem.Access) error {
	if !s.inTx && !s.snapTx {
		return fmt.Errorf("core: persistent access at %#x outside a transaction", a)
	}
	if acc == vmem.AccessWrite && s.snapTx {
		return ErrSnapshotReadOnly
	}
	d := s.byAddr.Find(a)
	if d == nil {
		return fmt.Errorf("core: wild pointer %#x (no page descriptor)", a)
	}
	s.clock.Charge(sim.CtrMiscFaultCPU, 1)

	if d.IsLarge && d.Pages() > 1 {
		var err error
		d, err = s.splitLarge(d, a)
		if err != nil {
			return err
		}
	}

	// Resolve the disk page behind this frame.
	if d.Pid == disk.InvalidPage || d.FrameIdx < 0 {
		pid, err := s.pidFor(d)
		if err != nil {
			return err
		}
		d.Pid = pid
	}

	pool := s.c.Pool()
	idx, resident := pool.Lookup(d.Pid)
	if !resident {
		// The read-ahead the window has room for rides in this round trip.
		var ahead []disk.PageID
		if s.pf != nil && !s.snapTx {
			ahead = s.pf.Demand(d.Pid)
		}
		var err error
		idx, err = s.c.FetchPage(d.Pid, ahead...)
		if err != nil {
			return err
		}
	} else if s.c.ConsumePrefetch(idx) {
		// First real use of a page read ahead: the fault is a buffer hit
		// instead of a server round trip. The page was never seen this
		// transaction, so swizzle checking below treats it like a fresh read.
		resident = false
	}
	pool.Pin(idx)
	defer pool.Unpin(idx)
	d.FrameIdx = idx
	s.byFrame[idx] = d
	data := s.c.PageData(idx)

	// Swizzling work is skipped for pages reread during the same
	// transaction ("the pointers on such pages are guaranteed to be
	// valid") unless relocations have occurred this session, in which case
	// a reread page's disk image may hold stale pointers.
	if !d.IsLarge && (d.SeenTx != s.txSeq || (s.relocations > 0 && !resident)) {
		if err := s.processMapping(d, data); err != nil {
			return err
		}
	}
	d.SeenTx = s.txSeq
	d.Accessed = true

	if err := s.space.Map(d.Lo, data, vmem.ProtRead); err != nil {
		return err
	}
	s.clock.Charge(sim.CtrMmapCall, 1)
	s.clock.Charge(sim.CtrMinFault, 1)

	if acc == vmem.AccessWrite {
		return s.enableWrite(d, data)
	}
	return nil
}

// pidFor computes the disk page backing d's (single-frame) range.
func (s *Store) pidFor(d *PageDesc) (disk.PageID, error) {
	if !d.IsLarge {
		return d.Phys.Page, nil
	}
	info, err := s.largeInfo(d)
	if err != nil {
		return disk.InvalidPage, err
	}
	pageNo := uint32((d.Lo - d.ObjLo) >> vmem.FrameShift)
	if pageNo >= info.Pages {
		return disk.InvalidPage, fmt.Errorf("core: %v beyond large object (%d pages)", d, info.Pages)
	}
	return info.First + disk.PageID(pageNo), nil
}

// splitLarge implements the descriptor splitting of Section 3.3 (Figure 3):
// the unaccessed run containing a is divided into the single page being
// accessed and up to two descriptors for the remaining sub-sequences.
func (s *Store) splitLarge(d *PageDesc, a vmem.Addr) (*PageDesc, error) {
	frame := a.FrameBase()
	s.byAddr.Remove(d)
	mk := func(lo, hi vmem.Addr) *PageDesc {
		nd := s.newDesc()
		*nd = PageDesc{
			Lo: lo, Hi: hi,
			ObjLo: d.ObjLo, ObjPages: d.ObjPages,
			Phys:    d.Phys,
			IsLarge: true,
			Pid:     disk.InvalidPage, FrameIdx: -1, RecIdx: -1,
			SeenTx: d.SeenTx,
		}
		return nd
	}
	mid := mk(frame, frame+vmem.FrameSize)
	if err := s.byAddr.Insert(mid); err != nil {
		return nil, err
	}
	if frame > d.Lo {
		if err := s.byAddr.Insert(mk(d.Lo, frame)); err != nil {
			return nil, err
		}
	}
	if frame+vmem.FrameSize < d.Hi {
		if err := s.byAddr.Insert(mk(frame+vmem.FrameSize, d.Hi)); err != nil {
			return nil, err
		}
	}
	// Only one hash entry per object (the paper keeps the entry for the
	// first page); repoint it at a surviving descriptor.
	s.byOID[d.Phys] = mid
	return mid, nil
}

// processMapping reads the page's mapping object and makes sure every page
// referenced by pointers on this page has a virtual frame assigned
// (Figure 5). When an assignment differs from the one recorded in the
// mapping object — a collision, or injected relocation — the page's
// pointers are swizzled.
func (s *Store) processMapping(d *PageDesc, data []byte) error {
	s.swizzleChecks++
	p := page.MustWrap(data)
	meta, err := readMeta(p)
	if err != nil {
		return err
	}
	if meta.MapOID.IsNil() {
		return nil // never committed with pointers; nothing to process
	}
	s.countMetaRead(meta.MapOID.Page, sim.CtrMapObjectRead)
	mapBytes, _, err := s.c.ReadObject(meta.MapOID)
	if err != nil {
		return fmt.Errorf("core: mapping object of %v: %w", d, err)
	}
	// The entries are decoded into the store's buffer, which is taken for
	// as long as they are in use: a fault nested in applying them (a stale
	// lock grant under one-time relocation) decodes into a buffer of its own.
	entries, err := appendMappingEntries(s.mapEntries[:0], mapBytes)
	if err != nil {
		return err
	}
	s.mapEntries = nil
	err = s.applyMapping(d, data, meta, entries)
	s.mapEntries = entries
	return err
}

// applyMapping is processMapping once the mapping object is decoded.
func (s *Store) applyMapping(d *PageDesc, data []byte, meta metaObject, entries []mapEntry) error {
	s.clock.Charge(sim.CtrMapEntry, int64(len(entries)))

	// reloc maps a recorded range base to its current (different) base.
	var reloc map[vmem.Addr]relocTarget
	var err error
	for _, e := range entries {
		tgt, ok := s.byOID[e.OID]
		if ok {
			if tgt.ObjLo != e.ObjLo {
				if reloc == nil {
					reloc = map[vmem.Addr]relocTarget{}
				}
				reloc[e.ObjLo] = relocTarget{newLo: tgt.ObjLo, pages: e.ObjPages}
			}
			continue
		}
		lo := e.ObjLo
		forced := s.cfg.RelocateFraction > 0 && s.rng.Float64() < s.cfg.RelocateFraction
		if forced || !s.rangeFree(lo, e.ObjPages) {
			lo, err = s.allocFrames(e.ObjPages)
			if err != nil {
				return err
			}
			if reloc == nil {
				reloc = map[vmem.Addr]relocTarget{}
			}
			reloc[e.ObjLo] = relocTarget{newLo: lo, pages: e.ObjPages}
			s.relocations++
		}
		nd := s.newDesc()
		*nd = PageDesc{
			Lo: lo, Hi: lo + vmem.Addr(uint64(e.ObjPages)<<vmem.FrameShift),
			ObjLo: lo, ObjPages: e.ObjPages,
			Phys:    e.OID,
			IsLarge: e.IsLarge,
			Pid:     disk.InvalidPage, FrameIdx: -1, RecIdx: -1,
		}
		if err := s.byAddr.Insert(nd); err != nil {
			return err
		}
		s.byOID[e.OID] = nd
	}
	if len(reloc) != 0 {
		if err := s.swizzlePage(d, data, meta, reloc); err != nil {
			return err
		}
	}
	return s.readAhead(entries)
}

// readAhead asks, in one round trip, for every page the mapping object just
// processed names that is not resident; the images land in the client pool
// as speculative frames (internal/prefetch decides how many). The mapping
// object is the paper's own data structure; using it as the oracle adds no
// I/O of its own. A snapshot session reads on demand: a batch read ships
// current images, not the snapshot's.
func (s *Store) readAhead(entries []mapEntry) error {
	if s.pf == nil || s.snapTx {
		return nil
	}
	for _, e := range entries {
		// For large objects e.OID.Page is the descriptor's (small-object)
		// page — still a page a traversal is about to touch.
		s.pf.Enqueue(e.OID.Page)
	}
	return s.pf.Pump()
}

type relocTarget struct {
	newLo vmem.Addr
	pages uint32
}

// swizzlePage rewrites the pointers on a page whose referenced ranges have
// moved. The bitmap object locates the pointers; every pointer must be
// examined because it is not known in advance which ones need updating
// (Section 3.4).
func (s *Store) swizzlePage(d *PageDesc, data []byte, meta metaObject, reloc map[vmem.Addr]relocTarget) error {
	s.countMetaRead(meta.BmOID.Page, sim.CtrBitmapRead)
	bm, _, err := s.c.ReadObject(meta.BmOID)
	if err != nil {
		return fmt.Errorf("core: bitmap object of %v: %w", d, err)
	}

	// One-time relocation (QS-OR) commits the swizzled page, so the
	// original must be preserved for diffing before we touch it. Not in a
	// snapshot session: its frames are private copies at the snapshot LSN,
	// discarded at EndSnapshot, so the swizzle is transient (as in QS) and
	// must neither take the page lock nor mark anything dirty.
	if s.cfg.Relocation == RelocOR && !s.cfg.BulkLoad && !s.snapTx {
		refreshed, err := s.lockPageX(d)
		if err != nil || refreshed {
			// After a stale grant the fault inside lockPageX has swizzled the
			// refreshed image; reloc describes bytes that are gone.
			return err
		}
		if err := s.ensureRecoveryCopy(d, data); err != nil {
			return err
		}
	}

	swizzled := int64(0)
	forEachPointer(bm, func(off int) bool {
		ptr := vmem.Addr(leU64(data[off:]))
		if ptr == 0 {
			return true
		}
		for oldLo, t := range reloc {
			span := vmem.Addr(uint64(t.pages) << vmem.FrameShift)
			if ptr >= oldLo && ptr < oldLo+span {
				putU64(data[off:], uint64(t.newLo+(ptr-oldLo)))
				swizzled++
				break
			}
		}
		return true
	})
	s.clock.Charge(sim.CtrSwizzledPtr, swizzled)

	idx, ok := s.c.Pool().Lookup(d.Pid)
	if s.cfg.Relocation == RelocOR && !s.snapTx {
		// Commit the new assignment: the swizzled pointers are logged by
		// the page's diff (recovery copy above) and its mapping object is
		// rewritten with the new addresses.
		if ok {
			s.dirtyLogged(idx)
		}
		if !d.Dirtied {
			d.Dirtied = true
			s.dirtied = append(s.dirtied, d)
		}
	} else if ok && swizzled > 0 {
		// The frame now differs from the server's image in bytes no
		// record will ever describe — a later recovery copy is taken
		// after them. Should the page be updated while it stays resident,
		// it must ship whole, swizzled pointers included, to agree with
		// the mapping object that update writes.
		s.c.Pool().Frame(idx).Unlogged = true
	}
	return nil
}

// countMetaRead counts a metadata page fetch (mapping or bitmap object)
// when it will actually miss the client pool, so the harness can attribute
// the I/O time split of Table 6.
func (s *Store) countMetaRead(pid disk.PageID, ctr sim.Counter) {
	if _, ok := s.c.Pool().Lookup(pid); !ok {
		s.clock.Charge(ctr, 1)
	}
}

// enableWrite services a write-protection fault on a resident page
// (Section 3.6): copy the page's objects into the recovery buffer, obtain
// the exclusive page lock, and enable write access. Raw large-object pages
// skip the recovery copy: they carry no header for LSN-based recovery, so
// diffing them would emit unusable log records; they are marked with the
// pool's plain MarkDirty and ship whole (see internal/esm).
func (s *Store) enableWrite(d *PageDesc, data []byte) error {
	if !s.cfg.BulkLoad {
		if _, err := s.lockPageX(d); err != nil {
			return err
		}
		if !d.IsLarge && s.freshPages[d.Pid] == nil {
			if err := s.ensureRecoveryCopy(d, data); err != nil {
				return err
			}
		}
	}
	if idx, ok := s.c.Pool().Lookup(d.Pid); ok {
		if d.IsLarge {
			s.c.Pool().MarkDirty(idx)
		} else {
			s.dirtyLogged(idx)
		}
	}
	if !d.Dirtied {
		d.Dirtied = true
		s.dirtied = append(s.dirtied, d)
	}
	if err := s.space.Protect(d.Lo, vmem.ProtWrite); err != nil {
		return err
	}
	s.clock.Charge(sim.CtrMmapCall, 1)
	return nil
}

// enableWriteDirect prepares a page for in-place modification by the
// QuickStore runtime itself (object allocation, mapping maintenance), which
// bypasses virtual-memory protection but must follow the same recovery
// protocol.
func (s *Store) enableWriteDirect(d *PageDesc) error {
	data, idx, err := s.residentData(d)
	if err != nil {
		return err
	}
	if !s.cfg.BulkLoad && s.freshPages[d.Pid] == nil {
		if _, err := s.lockPageX(d); err != nil {
			return err
		}
		if err := s.ensureRecoveryCopy(d, data); err != nil {
			return err
		}
	}
	s.dirtyLogged(idx)
	if !d.Dirtied {
		d.Dirtied = true
		s.dirtied = append(s.dirtied, d)
	}
	return nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
