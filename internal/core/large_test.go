package core

import (
	"testing"

	"quickstore/internal/sim"
	"quickstore/internal/vmem"
)

// TestLargeObjectWriteThroughVmem updates a multi-page object through
// protected memory (write faults) and checks commit durability, plus the
// raw-page policy: no recovery copies, no byte-range log records, but the
// exclusive lock and the dirty-page ship still happen.
func TestLargeObjectWriteThroughVmem(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	s.Begin()
	cl := s.NewCluster()
	const size = 2*vmem.FrameSize + 64
	ref, err := s.AllocLarge(cl, size)
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := s.Alloc(cl, 8, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s.Space().WriteU64(anchor, uint64(ref))
	if err := s.SetRoot("a", anchor); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e.cold()

	s2 := e.session(64, Config{}, false)
	s2.Begin()
	a2, err := s2.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s2.Space().ReadU64(a2)
	if err != nil {
		t.Fatal(err)
	}
	base := e.clock.Snapshot()
	// Write bytes on both data pages through virtual memory.
	if err := s2.Space().WriteU8(Ref(m)+10, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := s2.Space().WriteU8(Ref(m)+vmem.FrameSize+10, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrRecoveryCopy); n != 0 {
		t.Errorf("raw pages took %d recovery copies", n)
	}
	if n := d.Count(sim.CtrLockUpgrade); n != 2 {
		t.Errorf("lock upgrades = %d, want 2 (one per touched page)", n)
	}
	if n := d.Count(sim.CtrCommitFlushPage); n < 2 {
		t.Errorf("shipped %d pages, want >= 2", n)
	}

	// Durability via whole-page shipping.
	e.cold()
	s3 := e.session(64, Config{}, false)
	s3.Begin()
	a3, _ := s3.Root("a")
	m3, _ := s3.Space().ReadU64(a3)
	if b, _ := s3.Space().ReadU8(Ref(m3) + 10); b != 0xAA {
		t.Errorf("page 0 byte = %#x", b)
	}
	if b, _ := s3.Space().ReadU8(Ref(m3) + vmem.FrameSize + 10); b != 0xBB {
		t.Errorf("page 1 byte = %#x", b)
	}
	s3.Commit()
}

// TestFrameAllocatorWraparound forces the persistent frame counter past the
// end of a tiny address space; allocation must fall back to scanning the
// descriptor tree for free gaps (Section 3.3's wraparound case).
func TestFrameAllocatorWraparound(t *testing.T) {
	e := newEnv(t)
	// 64-frame space. Pre-consume most of the counter by allocating and
	// discarding a large batch through a throwaway session.
	throwaway := e.session(32, Config{BulkLoad: true, MaxFrames: 64}, true)
	throwaway.Begin()
	// Burn frame numbers without claiming ranges: allocate pages so the
	// persistent counter climbs near the limit.
	cl := throwaway.NewCluster()
	for i := 0; i < 30; i++ {
		cl.Break()
		if _, err := throwaway.Alloc(cl, 16, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := throwaway.SetRoot("first", mustAlloc(t, throwaway, cl)); err != nil {
		t.Fatal(err)
	}
	if err := throwaway.Commit(); err != nil {
		t.Fatal(err)
	}

	// Burn the counter directly to exceed MaxFrames.
	if _, err := throwaway.Client().Counter("qs.frames", 1000); err != nil {
		t.Fatal(err)
	}

	// A new session must still allocate pages: the bump allocator is
	// exhausted, so allocFrames scans for gaps above the used ranges.
	s := e.session(32, Config{BulkLoad: true, MaxFrames: 64}, false)
	s.Begin()
	if _, err := s.Root("first"); err != nil {
		t.Fatal(err)
	}
	cl2 := s.NewCluster()
	for i := 0; i < 5; i++ {
		cl2.Break()
		ref, err := s.Alloc(cl2, 16, nil)
		if err != nil {
			t.Fatalf("post-wraparound alloc %d: %v", i, err)
		}
		if err := s.Space().WriteU32(ref, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckDescs(); err != nil {
		t.Fatal(err)
	}
}

func mustAlloc(t *testing.T, s *Store, cl *Cluster) Ref {
	t.Helper()
	ref, err := s.Alloc(cl, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestAddressSpaceExhaustion verifies the graceful error when no gap fits.
func TestAddressSpaceExhaustion(t *testing.T) {
	e := newEnv(t)
	s := e.session(32, Config{BulkLoad: true, MaxFrames: 4}, true)
	s.Begin()
	cl := s.NewCluster()
	var err error
	for i := 0; i < 16; i++ {
		cl.Break()
		if _, err = s.Alloc(cl, 16, nil); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("allocating 16 pages in a 4-frame space succeeded")
	}
}

// TestDeleteAndDanglingReferences pins the paper's Section 4.5.2 semantics:
// deleting an object leaves its space dead (never reused), and a dangling
// reference reads stale bytes without any flagged error — QuickStore trades
// checked references for pointer-speed dereferences.
func TestDeleteAndDanglingReferences(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	s.Begin()
	cl := s.NewCluster()
	victim, err := s.Alloc(cl, 32, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := s.Alloc(cl, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Space().WriteU32(victim+8, 777); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoot("neighbor", neighbor); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	s.Begin()
	if err := s.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// New allocations on the same page do not reuse the dead space.
	after, err := s.Alloc(cl, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.FrameBase() == victim.FrameBase() && after.Offset() <= victim.Offset() {
		t.Fatalf("dead space reused: new object at %#x, victim at %#x", after, victim)
	}
	// The dangling reference still reads — no error is flagged; the bytes
	// are whatever the dead slot holds.
	if _, err := s.Space().ReadU32(victim + 8); err != nil {
		t.Fatalf("dangling read flagged an error: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Cold reread: the deletion is durable; the neighbor is intact.
	e.cold()
	s2 := e.session(64, Config{}, false)
	s2.Begin()
	n2, err := s2.Root("neighbor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Space().ReadU32(n2); err != nil {
		t.Fatal(err)
	}
	s2.Commit()
}

// TestDeleteWithLoggingDurable checks deletion through the full recovery
// protocol (non-bulk): the slot-directory change is diffed and logged.
func TestDeleteWithLoggingDurable(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 6, false)
	e.cold()

	s2 := e.session(64, Config{}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	// Unlink and delete the second node.
	second, _ := s2.Space().ReadU64(head)
	third, _ := s2.Space().ReadU64(Ref(second))
	if err := s2.Space().WriteU64(head, third); err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete(Ref(second)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}

	e.cold()
	s3 := e.session(64, Config{}, false)
	s3.Begin()
	vals := walkList(t, s3)
	s3.Commit()
	if len(vals) != 5 {
		t.Fatalf("list has %d nodes after delete, want 5", len(vals))
	}
	if vals[0] != 0 || vals[1] != 2 {
		t.Fatalf("wrong nodes survived: %v", vals)
	}
}
