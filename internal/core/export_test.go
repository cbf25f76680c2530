package core

import (
	"fmt"

	"quickstore/internal/esm"
	"quickstore/internal/vmem"
)

// DescChunks returns how many descriptor chunks the session has allocated.
func (s *Store) DescChunks() int { return s.descChunks }

// DescByOID returns the descriptor the physical-address table holds for oid.
func (s *Store) DescByOID(oid esm.OID) *PageDesc { return s.byOID[oid] }

// WalkDescs visits the session's descriptors in address order; fn returning
// false stops the walk.
func (s *Store) WalkDescs(fn func(*PageDesc) bool) {
	s.byAddr.each(func(a vmem.Addr, d *PageDesc) bool { return a != d.Lo || fn(d) })
}

// CheckDescs checks the session's descriptor indexes: every slot of a
// descriptor's range holds it and no other address slot is set, every set
// pool-frame slot holds the descriptor of the page in that frame, and every
// descriptor mapped from a frame holds that frame's slot.
func (s *Store) CheckDescs() error {
	if err := s.byAddr.check(); err != nil {
		return err
	}
	var err error
	s.WalkDescs(func(d *PageDesc) bool {
		if d.FrameIdx >= 0 && s.byFrame[d.FrameIdx] != d {
			err = fmt.Errorf("core: %v is mapped from frame %d, whose slot holds %v", d, d.FrameIdx, s.byFrame[d.FrameIdx])
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	pool := s.c.Pool()
	for i, d := range s.byFrame {
		if d != nil && (d.FrameIdx != i || d.Pid != pool.Frame(i).Page) {
			return fmt.Errorf("core: pool frame %d (page %d) has the slot of %v, mapped from frame %d as page %d",
				i, pool.Frame(i).Page, d, d.FrameIdx, d.Pid)
		}
	}
	return nil
}

// Contains reports whether a falls in the descriptor's range.
func (d *PageDesc) Contains(a vmem.Addr) bool { return a >= d.Lo && a < d.Hi }

// each visits every set slot in address order, skipping the chunks never
// allocated; fn returning false stops the walk.
func (t *descTable) each(fn func(a vmem.Addr, d *PageDesc) bool) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		for j, d := range c {
			if d != nil && !fn(t.base+vmem.Addr(uint64(ci<<tableShift+j)<<vmem.FrameShift), d) {
				return
			}
		}
	}
}

// check verifies that each descriptor fills exactly the slots of its range
// and that the count matches.
func (t *descTable) check() error {
	var err error
	n := 0
	t.each(func(a vmem.Addr, d *PageDesc) bool {
		if !d.Contains(a) {
			err = fmt.Errorf("core: slot %#x holds %v", a, d)
			return false
		}
		if a != d.Lo {
			return true
		}
		n++
		for b := d.Lo; b < d.Hi; b += vmem.FrameSize {
			if got := t.Find(b); got != d {
				err = fmt.Errorf("core: slot %#x of %v holds %v", b, d, got)
				return false
			}
		}
		return true
	})
	if err == nil && n != t.n {
		err = fmt.Errorf("core: %d descriptors in the slots, %d counted", n, t.n)
	}
	return err
}
