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
// pointer. Descriptors are organized two ways: a height-balanced (AVL)
// binary tree keyed on the virtual address range, and a hash table keyed on
// the physical address.
type PageDesc struct {
	Lo, Hi vmem.Addr // [Lo, Hi): assigned virtual address range
	Phys   esm.OID   // small page: OID of its meta-object; large object: the object's OID

	// For large objects, the whole object's range, shared across split
	// descriptors; for small pages ObjLo == Lo and ObjPages == 1.
	ObjLo    vmem.Addr
	ObjPages uint32
	PageOff  uint32 // object-relative page number of Lo (large objects)

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

	// Large-object geometry, cached from the ESM descriptor on first touch.
	largeFirst disk.PageID
	largeKnown bool

	left, right *PageDesc
	height      int
}

// descChunk is how many page descriptors one allocation holds.
const descChunk = 64

// newDesc returns a zeroed descriptor from the session's current chunk,
// starting a new chunk when that one is full. The fault path makes one for
// every page a mapping object names, so this is one allocation per
// descChunk of them instead of one each. A slot is never handed out twice,
// even after its descriptor leaves the tree: a pointer kept in lastWrites
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

// Contains reports whether a falls in the descriptor's range.
func (d *PageDesc) Contains(a vmem.Addr) bool { return a >= d.Lo && a < d.Hi }

// String formats the descriptor for diagnostics.
func (d *PageDesc) String() string {
	return fmt.Sprintf("desc[%#x,%#x) %v large=%v acc=%v", d.Lo, d.Hi, d.Phys, d.IsLarge, d.Accessed)
}

// descTree is the height-balanced binary tree over virtual address ranges
// ("The table organizes page descriptors according to the range of virtual
// memory addresses that they contain using a height balanced binary tree",
// Section 3.3). Ranges never overlap.
type descTree struct {
	root *PageDesc
	size int
}

func height(d *PageDesc) int {
	if d == nil {
		return 0
	}
	return d.height
}

func fix(d *PageDesc) *PageDesc {
	hl, hr := height(d.left), height(d.right)
	if hl > hr {
		d.height = hl + 1
	} else {
		d.height = hr + 1
	}
	switch bf := hl - hr; {
	case bf > 1:
		if height(d.left.left) < height(d.left.right) {
			d.left = rotateLeft(d.left)
		}
		return rotateRight(d)
	case bf < -1:
		if height(d.right.right) < height(d.right.left) {
			d.right = rotateRight(d.right)
		}
		return rotateLeft(d)
	}
	return d
}

func rotateRight(d *PageDesc) *PageDesc {
	l := d.left
	d.left = l.right
	l.right = d
	d.height = max(height(d.left), height(d.right)) + 1
	l.height = max(height(l.left), height(l.right)) + 1
	return l
}

func rotateLeft(d *PageDesc) *PageDesc {
	r := d.right
	d.right = r.left
	r.left = d
	d.height = max(height(d.left), height(d.right)) + 1
	r.height = max(height(r.left), height(r.right)) + 1
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Insert adds d to the tree. It returns an error if d overlaps an existing
// range (a bookkeeping bug if it ever happens).
func (t *descTree) Insert(d *PageDesc) error {
	if d.Lo >= d.Hi {
		return fmt.Errorf("core: empty descriptor range [%#x,%#x)", d.Lo, d.Hi)
	}
	if hit := t.FindOverlap(d.Lo, d.Hi); hit != nil {
		return fmt.Errorf("core: range [%#x,%#x) overlaps %v", d.Lo, d.Hi, hit)
	}
	d.left, d.right, d.height = nil, nil, 1
	t.root = insertNode(t.root, d)
	t.size++
	return nil
}

func insertNode(n, d *PageDesc) *PageDesc {
	if n == nil {
		return d
	}
	if d.Lo < n.Lo {
		n.left = insertNode(n.left, d)
	} else {
		n.right = insertNode(n.right, d)
	}
	return fix(n)
}

// Remove deletes d (matched by Lo) from the tree.
func (t *descTree) Remove(d *PageDesc) {
	var removed bool
	t.root, removed = removeNode(t.root, d.Lo)
	if removed {
		t.size--
	}
}

func removeNode(n *PageDesc, lo vmem.Addr) (*PageDesc, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case lo < n.Lo:
		n.left, removed = removeNode(n.left, lo)
	case lo > n.Lo:
		n.right, removed = removeNode(n.right, lo)
	default:
		removed = true
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// Replace with the successor's contents by re-linking nodes.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.right, _ = removeNode(n.right, succ.Lo)
		succ.left, succ.right = n.left, n.right
		n = succ
	}
	return fix(n), removed
}

// Find returns the descriptor whose range contains a, or nil.
func (t *descTree) Find(a vmem.Addr) *PageDesc {
	n := t.root
	for n != nil {
		switch {
		case a < n.Lo:
			n = n.left
		case a >= n.Hi:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// FindOverlap returns any descriptor overlapping [lo, hi), or nil.
func (t *descTree) FindOverlap(lo, hi vmem.Addr) *PageDesc {
	n := t.root
	for n != nil {
		switch {
		case hi <= n.Lo:
			n = n.left
		case lo >= n.Hi:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Len returns the number of descriptors in the tree.
func (t *descTree) Len() int { return t.size }

// Walk visits descriptors in ascending address order; fn returning false
// stops the walk.
func (t *descTree) Walk(fn func(*PageDesc) bool) {
	walk(t.root, fn)
}

func walk(n *PageDesc, fn func(*PageDesc) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.left, fn) && fn(n) && walk(n.right, fn)
}

// check verifies AVL balance and range ordering (test helper).
func (t *descTree) check() error {
	var prev *PageDesc
	ok := true
	t.Walk(func(d *PageDesc) bool {
		if prev != nil && d.Lo < prev.Hi {
			ok = false
			return false
		}
		prev = d
		return true
	})
	if !ok {
		return fmt.Errorf("core: descTree ranges overlap or are unordered")
	}
	return checkBalance(t.root)
}

func checkBalance(n *PageDesc) error {
	if n == nil {
		return nil
	}
	bf := height(n.left) - height(n.right)
	if bf < -1 || bf > 1 {
		return fmt.Errorf("core: descTree unbalanced at %v (bf=%d)", n, bf)
	}
	if err := checkBalance(n.left); err != nil {
		return err
	}
	return checkBalance(n.right)
}
