package core

import "testing"

// TestAbortedAllocationsTakeNoChunkSlots: a page an aborted transaction
// created takes no slot in a descriptor chunk (Abort drops its descriptor).
// A thousand aborted transactions, allocating from one cluster whose cursor
// outlives each abort, leave the chunks, the slots taken from them and the
// descriptor tree as they were, and the committed list reads back.
func TestAbortedAllocationsTakeNoChunkSlots(t *testing.T) {
	e := newEnv(t)
	buildList(t, e.session(64, Config{BulkLoad: true}, true), 40, true)
	e.cold()
	s := e.session(64, Config{}, false)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := len(walkList(t, s)); n != 40 {
		t.Fatalf("walked %d nodes, want 40", n)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	chunks, slots, descs := s.descChunks, len(s.descs), s.DescCount()
	if chunks == 0 {
		t.Fatal("faulting in the list took no descriptor from a chunk")
	}

	cl := s.NewCluster()
	for i := 0; i < 1000; i++ {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		ref, err := s.Alloc(cl, 16, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Space().WriteU32(ref+8, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if s.descChunks != chunks || len(s.descs) != slots || s.DescCount() != descs {
		t.Errorf("1000 aborted allocations: %d chunks, %d slots, %d descriptors; want %d, %d, %d",
			s.descChunks, len(s.descs), s.DescCount(), chunks, slots, descs)
	}
	if err := s.CheckTree(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := len(walkList(t, s)); n != 40 {
		t.Errorf("walked %d nodes after the aborts, want 40", n)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
