package vmem

import (
	"errors"
	"testing"
	"testing/quick"

	"quickstore/internal/sim"
)

const testBase Addr = 0x1000000000

func newSpace() *Space {
	return NewSpace(testBase, 64, sim.NewClock(sim.DefaultCostModel()))
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.FrameBase() != 0x12000 {
		t.Fatalf("FrameBase = %#x", a.FrameBase())
	}
	if a.Offset() != 0x345 {
		t.Fatalf("Offset = %#x", a.Offset())
	}
}

func TestMapReadWrite(t *testing.T) {
	s := newSpace()
	data := make([]byte, FrameSize)
	if err := s.Map(testBase, data, ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(testBase+16, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(testBase + 16)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	// The mapping aliases the caller's slice — in-place buffer access.
	if data[16] != 0xBE {
		t.Fatal("write did not land in the backing slice")
	}
	// 8/16/32-bit accessors.
	s.WriteU8(testBase, 7)
	s.WriteU16(testBase+2, 0x1234)
	s.WriteU32(testBase+4, 0x89ABCDEF)
	if b, _ := s.ReadU8(testBase); b != 7 {
		t.Fatal("u8")
	}
	if v, _ := s.ReadU16(testBase + 2); v != 0x1234 {
		t.Fatal("u16")
	}
	if v, _ := s.ReadU32(testBase + 4); v != 0x89ABCDEF {
		t.Fatal("u32")
	}
}

func TestProtectionLattice(t *testing.T) {
	if ProtNone.allows(AccessRead) || ProtNone.allows(AccessWrite) {
		t.Fatal("ProtNone allows something")
	}
	if !ProtRead.allows(AccessRead) || ProtRead.allows(AccessWrite) {
		t.Fatal("ProtRead wrong")
	}
	if !ProtWrite.allows(AccessRead) || !ProtWrite.allows(AccessWrite) {
		t.Fatal("ProtWrite wrong")
	}
}

func TestFaultOnUnmappedAndProtected(t *testing.T) {
	s := newSpace()
	var faults []struct {
		a   Addr
		acc Access
	}
	backing := make([]byte, FrameSize)
	backing[100] = 42
	s.SetHandler(func(a Addr, acc Access) error {
		faults = append(faults, struct {
			a   Addr
			acc Access
		}{a, acc})
		// Behave like the QuickStore fault handler: map and enable.
		prot := ProtRead
		if acc == AccessWrite {
			prot = ProtWrite
		}
		return s.Map(a.FrameBase(), backing, prot)
	})
	// Read of an unmapped frame faults once, then succeeds.
	v, err := s.ReadU8(testBase + 100)
	if err != nil || v != 42 {
		t.Fatalf("read after fault: %d, %v", v, err)
	}
	if len(faults) != 1 || faults[0].acc != AccessRead || faults[0].a != testBase+100 {
		t.Fatalf("faults = %+v", faults)
	}
	// A second read is fault-free.
	if _, err := s.ReadU8(testBase + 101); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatal("hot read faulted")
	}
	// A write to the read-only frame faults with AccessWrite.
	if err := s.WriteU8(testBase+5, 9); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 || faults[1].acc != AccessWrite {
		t.Fatalf("write fault missing: %+v", faults)
	}
	if s.Faults() != 2 {
		t.Fatalf("Faults() = %d", s.Faults())
	}
}

func TestFaultHandlerFailurePropagates(t *testing.T) {
	s := newSpace()
	boom := errors.New("disk on fire")
	s.SetHandler(func(Addr, Access) error { return boom })
	if _, err := s.ReadU8(testBase); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Handler that "succeeds" without fixing the protection is detected.
	s.SetHandler(func(Addr, Access) error { return nil })
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrStillFaulted) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoHandler(t *testing.T) {
	s := newSpace()
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecursiveFaultDetected(t *testing.T) {
	s := newSpace()
	s.SetHandler(func(a Addr, acc Access) error {
		// A buggy handler that dereferences an unmapped address.
		_, err := s.ReadU8(testBase + FrameSize)
		return err
	})
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrRecursive) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRangeAndCrossFrame(t *testing.T) {
	s := newSpace()
	if _, err := s.ReadU8(testBase - 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("below base not rejected")
	}
	if _, err := s.ReadU8(testBase + 64*FrameSize); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("beyond last frame not rejected")
	}
	s.Map(testBase, make([]byte, FrameSize), ProtRead)
	if _, err := s.ReadU64(testBase + FrameSize - 4); !errors.Is(err, ErrCrossesFrame) {
		t.Fatal("cross-frame access not rejected")
	}
	if err := s.Map(testBase+1, make([]byte, FrameSize), ProtRead); err == nil {
		t.Fatal("unaligned Map accepted")
	}
	if err := s.Map(testBase, make([]byte, 100), ProtRead); err == nil {
		t.Fatal("short backing accepted")
	}
}

func TestProtectAndUnmap(t *testing.T) {
	s := newSpace()
	s.Map(testBase, make([]byte, FrameSize), ProtWrite)
	s.Protect(testBase, ProtNone)
	p, _ := s.ProtOf(testBase)
	if p != ProtNone {
		t.Fatal("Protect did not take")
	}
	faulted := 0
	s.SetHandler(func(a Addr, acc Access) error {
		faulted++
		return s.Protect(a.FrameBase(), ProtRead)
	})
	if _, err := s.ReadU8(testBase); err != nil {
		t.Fatal(err)
	}
	if faulted != 1 {
		t.Fatal("reprotected frame did not fault")
	}
	// Unmap drops the backing entirely.
	s.Unmap(testBase)
	if d, _ := s.Mapped(testBase); d != nil {
		t.Fatal("Unmap left backing")
	}
}

func TestProtectAllOnlyTouchesMapped(t *testing.T) {
	s := newSpace()
	s.Map(testBase, make([]byte, FrameSize), ProtWrite)
	s.Map(testBase+2*FrameSize, make([]byte, FrameSize), ProtRead)
	s.ProtectAll(ProtNone)
	for _, a := range []Addr{testBase, testBase + 2*FrameSize} {
		if p, _ := s.ProtOf(a); p != ProtNone {
			t.Fatalf("frame %#x prot %v", a, p)
		}
	}
	// Remapping after ProtectAll restores access.
	s.Protect(testBase, ProtRead)
	if _, err := s.ReadU8(testBase); err != nil {
		t.Fatal(err)
	}
}

func TestRemapDifferentBacking(t *testing.T) {
	// Figure 1d: the same virtual frame remapped to a different buffer
	// frame after its page was replaced and reread.
	s := newSpace()
	b1 := make([]byte, FrameSize)
	b2 := make([]byte, FrameSize)
	b1[0], b2[0] = 1, 2
	s.Map(testBase, b1, ProtRead)
	if v, _ := s.ReadU8(testBase); v != 1 {
		t.Fatal("first mapping")
	}
	s.Map(testBase, b2, ProtRead)
	if v, _ := s.ReadU8(testBase); v != 2 {
		t.Fatal("remap did not switch backing")
	}
}

func TestTrapChargedToClock(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	s := NewSpace(testBase, 4, clock)
	s.SetHandler(func(a Addr, acc Access) error {
		return s.Map(a.FrameBase(), make([]byte, FrameSize), ProtRead)
	})
	s.ReadU8(testBase)
	s.ReadU8(testBase) // hot
	if clock.Count(sim.CtrPageFaultTrap) != 1 {
		t.Fatalf("traps charged = %d", clock.Count(sim.CtrPageFaultTrap))
	}
}

// Property: for any sequence of in-frame writes, reads observe exactly the
// last value written, and access counting is exact.
func TestReadYourWritesProperty(t *testing.T) {
	f := func(offs []uint16, vals []byte) bool {
		if len(vals) < len(offs) {
			if len(vals) == 0 {
				return true
			}
			offs = offs[:len(vals)]
		}
		s := newSpace()
		s.Map(testBase, make([]byte, FrameSize), ProtWrite)
		shadow := map[int]byte{}
		for i, o := range offs {
			off := int(o) % FrameSize
			if err := s.WriteU8(testBase+Addr(off), vals[i]); err != nil {
				return false
			}
			shadow[off] = vals[i]
		}
		for off, want := range shadow {
			got, err := s.ReadU8(testBase + Addr(off))
			if err != nil || got != want {
				return false
			}
		}
		return s.Accesses() == int64(len(offs)+len(shadow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestProtectAllVisitsOnlyMappedAfterChurn drives Map/Unmap/remap across
// chunk boundaries against a model and checks that the mapped list — all
// ProtectAll walks — holds exactly the mapped frames, and that a frame only
// ever protected, never mapped, is left alone.
func TestProtectAllVisitsOnlyMappedAfterChurn(t *testing.T) {
	const frames = 5 * chunkFrames
	s := NewSpace(testBase, frames, nil)
	backing := make([]byte, FrameSize)
	addr := func(i int) Addr { return testBase + Addr(i)<<FrameShift }
	model := map[int]bool{}
	x := uint32(1)
	for step := 0; step < 20000; step++ {
		x = x*1664525 + 1013904223
		i := int(x>>8) % frames
		if x&3 == 0 {
			if err := s.Unmap(addr(i)); err != nil {
				t.Fatal(err)
			}
			delete(model, i)
		} else {
			if err := s.Map(addr(i), backing, ProtRead); err != nil {
				t.Fatal(err)
			}
			model[i] = true
		}
	}
	bystander := -1
	for i := 0; i < frames; i++ {
		if !model[i] {
			bystander = i
			break
		}
	}
	if err := s.Protect(addr(bystander), ProtRead); err != nil {
		t.Fatal(err)
	}
	if len(s.mapped) != len(model) {
		t.Fatalf("mapped list holds %d frames, %d are mapped", len(s.mapped), len(model))
	}
	for pos, f := range s.mapped {
		if f.data == nil || int(f.pos) != pos {
			t.Fatalf("mapped[%d]: data nil=%v, pos %d", pos, f.data == nil, f.pos)
		}
	}
	s.ProtectAll(ProtNone)
	for i := 0; i < frames; i++ {
		p, err := s.ProtOf(addr(i))
		if err != nil {
			t.Fatal(err)
		}
		want := ProtNone
		if i == bystander {
			want = ProtRead
		}
		if p != want {
			t.Fatalf("frame %d (mapped=%v): prot %v after ProtectAll, want %v", i, model[i], p, want)
		}
		if d, _ := s.Mapped(addr(i)); (d != nil) != model[i] {
			t.Fatalf("frame %d: mapped=%v, model says %v", i, d != nil, model[i])
		}
	}
}

// TestHugeSpaceCostsKilobytes: reserving the default 8 GB region (1<<20
// frames) must not allocate a table entry per frame.
func TestHugeSpaceCostsKilobytes(t *testing.T) {
	clock := sim.NewClock(sim.CostModel{})
	backing := make([]byte, FrameSize)
	var s *Space
	perSpace := testing.AllocsPerRun(5, func() {
		s = NewSpace(testBase, 1<<20, clock)
		if err := s.Map(testBase+(1<<19)<<FrameShift, backing, ProtRead); err != nil {
			t.Fatal(err)
		}
	})
	if perSpace > 8 {
		t.Fatalf("NewSpace + one Map made %v allocations", perSpace)
	}
	if n := len(s.chunks)*8 + chunkFrames*32; n >= 1<<20 {
		t.Fatalf("a 1<<20-frame space with one mapped frame holds %d bytes of table", n)
	}
	if s.MaxFrames() != 1<<20 || !s.Contains(testBase+(1<<20-1)<<FrameShift) || s.Contains(testBase+(1<<20)<<FrameShift) {
		t.Fatal("sparse table changed the space's extent")
	}
}

// TestCountersOnScriptedSequence pins what Accesses and Faults count: every
// in-range, in-frame access once (whether or not it then faults or fails),
// every handler dispatch once, and nothing for rejected addresses.
func TestCountersOnScriptedSequence(t *testing.T) {
	s := newSpace()
	backing := make([]byte, FrameSize)
	s.SetHandler(func(a Addr, acc Access) error {
		if a.FrameBase() == testBase+3*FrameSize {
			return errors.New("no such page")
		}
		prot := ProtRead
		if acc == AccessWrite {
			prot = ProtWrite
		}
		return s.Map(a.FrameBase(), backing, prot)
	})
	steps := []struct {
		do               func() error
		accesses, faults int64
	}{
		{func() error { _, err := s.ReadU32(testBase + 8); return err }, 1, 1},                    // read fault
		{func() error { _, err := s.ReadU64(testBase + 16); return err }, 2, 1},                   // mapped read
		{func() error { return s.WriteU32(testBase+8, 1) }, 3, 2},                                 // write fault
		{func() error { return s.WriteU8(testBase+9, 2) }, 4, 2},                                  // mapped write
		{func() error { _, err := s.ReadU8(testBase - 1); return err }, 4, 2},                     // below base
		{func() error { _, err := s.ReadU8(testBase + 64*FrameSize); return err }, 4, 2},          // past the end
		{func() error { _, err := s.ReadU64(testBase + FrameSize - 4); return err }, 4, 2},        // crosses a frame
		{func() error { _, err := s.ReadU8(testBase + 3*FrameSize); return err }, 5, 3},           // handler fails
		{func() error { return s.ReadInto(testBase+FrameSize, make([]byte, 32)) }, 6, 4},          // second frame
		{func() error { s.ProtectAll(ProtNone); _, err := s.ReadU8(testBase); return err }, 7, 5}, // reprotected
	}
	for i, st := range steps {
		_ = st.do() // errors are part of the script
		if s.Accesses() != st.accesses || s.Faults() != st.faults {
			t.Fatalf("step %d: accesses=%d faults=%d, want %d/%d", i, s.Accesses(), s.Faults(), st.accesses, st.faults)
		}
	}
}
