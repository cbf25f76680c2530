// Package core implements QuickStore itself: the memory-mapped object store
// of Section 3 of the paper. Persistent pointers are raw virtual addresses
// (Figure 4); non-resident pages live behind access-protected virtual
// frames; the page-fault handler reads pages from the EXODUS-like server,
// processes their mapping objects, swizzles pointers only on frame
// collisions, and manages the client buffer pool with the simplified clock
// algorithm of Section 3.5. Updates are caught by write-protection faults
// and logged by page diffing against a recovery buffer (Section 3.6).
package core

import (
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/vmem"
)

// PageDesc is the in-memory page descriptor of Section 3.3 (Figure 2): it
// records the virtual address range assigned to a disk page (or to a run of
// unaccessed pages of a multi-page object), the physical disk address, the
// access flags, and — when resident — the buffer frame and recovery-heap
// pointer. A Store finds a descriptor by the virtual frame of an address
// (descTable, where the paper keeps a height-balanced tree over the ranges),
// by physical address (the paper's hash table), and by the client-pool frame
// its page is mapped from.
type PageDesc struct {
	Lo, Hi vmem.Addr // [Lo, Hi): assigned virtual address range
	Phys   esm.OID   // small page: OID of its meta-object; large object: the object's OID

	// For large objects, the whole object's range, shared across split
	// descriptors; for small pages ObjLo == Lo and ObjPages == 1.
	ObjLo    vmem.Addr
	ObjPages uint32

	IsLarge  bool
	Accessed bool   // the range has been faulted in (mapped) at least once
	SeenTx   uint64 // transaction sequence that last processed this page's mapping
	XLockTx  uint64 // transaction sequence that last took the exclusive page lock
	Dirtied  bool   // write access granted this transaction
	// PrevWrite is the page's place in the write order of the session's last
	// update transaction — Store.lastWrites[PrevWrite] is this descriptor if
	// it was written then, something else or out of range if not.
	PrevWrite int

	Pid      disk.PageID // resident disk page (valid when FrameIdx >= 0)
	FrameIdx int         // client buffer frame, -1 when not resident
	RecIdx   int         // recovery-buffer slot, -1 when none
}

// descChunk is how many page descriptors one allocation holds.
const descChunk = 64

// newDesc returns a zeroed descriptor from the session's current chunk,
// starting a new chunk when that one is full. The fault path makes one for
// every page a mapping object names, and Root and RefForPage one for every
// page they enter, so this is one allocation per descChunk of them instead
// of one each. A slot is never handed out twice,
// even after its descriptor leaves the table: a pointer kept in lastWrites
// or a cluster cursor stays distinct from every later descriptor. Pages a
// transaction creates get their own allocations instead (Alloc), because
// Abort drops theirs and a chunk slot would stay dead for the session.
func (s *Store) newDesc() *PageDesc {
	if len(s.descs) == cap(s.descs) {
		s.descs = make([]PageDesc, 0, descChunk)
		s.descChunks++
	}
	s.descs = s.descs[:len(s.descs)+1]
	return &s.descs[len(s.descs)-1]
}

// Pages returns the number of virtual frames the descriptor covers.
func (d *PageDesc) Pages() int { return int((d.Hi - d.Lo) >> vmem.FrameShift) }

// String formats the descriptor for diagnostics.
func (d *PageDesc) String() string {
	return fmt.Sprintf("desc[%#x,%#x) %v large=%v acc=%v", d.Lo, d.Hi, d.Phys, d.IsLarge, d.Accessed)
}

// descTable finds a descriptor by the number of a frame it covers. Section
// 3.3 keeps descriptors in a height-balanced tree over their ranges; every
// lookup here starts from an address, so a descriptor fills the slot of each
// frame in its range instead, and finding one is an index. The slots come in
// chunks allocated on first use, like vmem.Space's frame table.
type descTable struct {
	base    vmem.Addr
	nframes uint64
	chunks  []*[tableSlots]*PageDesc
	n       int // descriptors held
}

const (
	tableShift = 10
	tableSlots = 1 << tableShift
	tableMask  = tableSlots - 1
)

func newDescTable(base vmem.Addr, maxFrames int) descTable {
	return descTable{
		base:    base,
		nframes: uint64(maxFrames),
		chunks:  make([]*[tableSlots]*PageDesc, (maxFrames+tableMask)>>tableShift),
	}
}

// frameNo returns a's frame number; an address below base wraps to a huge
// number, so one comparison against nframes covers both ends of the table.
func (t *descTable) frameNo(a vmem.Addr) uint64 { return uint64(a-t.base) >> vmem.FrameShift }

// Find returns the descriptor whose range contains a, or nil.
func (t *descTable) Find(a vmem.Addr) *PageDesc {
	if i := t.frameNo(a); i < t.nframes {
		if c := t.chunks[i>>tableShift]; c != nil {
			return c[i&tableMask]
		}
	}
	return nil
}

// free reports whether [lo, hi) is frame-aligned, inside the table and
// covered by no descriptor.
func (t *descTable) free(lo, hi vmem.Addr) bool {
	if lo >= hi || lo&(vmem.FrameSize-1) != 0 || t.frameNo(lo) >= t.nframes || t.frameNo(hi-1) >= t.nframes {
		return false
	}
	for a := lo; a < hi; a += vmem.FrameSize {
		if t.Find(a) != nil {
			return false
		}
	}
	return true
}

// Insert fills d's slots. It returns an error if d's range is not free (a
// bookkeeping bug if it ever happens).
func (t *descTable) Insert(d *PageDesc) error {
	if !t.free(d.Lo, d.Hi) {
		return fmt.Errorf("core: range [%#x,%#x) is empty, outside the space or taken", d.Lo, d.Hi)
	}
	t.set(d, d)
	t.n++
	return nil
}

// Remove clears d's slots.
func (t *descTable) Remove(d *PageDesc) {
	if t.Find(d.Lo) == d {
		t.set(d, nil)
		t.n--
	}
}

// set points the slots of d's range at v.
func (t *descTable) set(d, v *PageDesc) {
	for i := t.frameNo(d.Lo); i < t.frameNo(d.Hi); i++ {
		c := t.chunks[i>>tableShift]
		if c == nil {
			c = new([tableSlots]*PageDesc)
			t.chunks[i>>tableShift] = c
		}
		c[i&tableMask] = v
	}
}

// gap returns the lowest address that starts n free frames, skipping a chunk
// never allocated whole.
func (t *descTable) gap(n uint32) (vmem.Addr, bool) {
	var run uint64
	for i := uint64(0); i < t.nframes; {
		if c := t.chunks[i>>tableShift]; c == nil {
			step := min(tableSlots-i&tableMask, t.nframes-i)
			run, i = run+step, i+step
		} else {
			if c[i&tableMask] == nil {
				run++
			} else {
				run = 0
			}
			i++
		}
		if run >= uint64(n) {
			return t.base + vmem.Addr((i-run)<<vmem.FrameShift), true
		}
	}
	return 0, false
}
