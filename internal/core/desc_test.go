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
	if err := s.CheckDescs(); err != nil {
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

// TestFrameSlotsFollowEviction: the pool-frame slots (Store.byFrame) follow
// every way a page leaves a 32-frame pool or has its frame rewritten. A walk
// of a 100-page list pages through the pool; a commit elsewhere makes the
// next Begin refresh a cached page in place; an aborted transaction drops
// the pages it allocated, some of them stolen first; DropAll empties the
// pool. CheckDescs holds after each step.
func TestFrameSlotsFollowEviction(t *testing.T) {
	e := newEnv(t)
	buildList(t, e.session(64, Config{BulkLoad: true}, true), 100, true)
	e.cold()
	s := e.session(32, Config{}, false)
	check := func(when string) {
		t.Helper()
		if err := s.CheckDescs(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	head, err := s.Root("list")
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for ref := head; ref != NilRef; {
		refs = append(refs, ref)
		next, err := s.Space().ReadU64(ref)
		if err != nil {
			t.Fatal(err)
		}
		ref = Ref(next)
	}
	if len(refs) != 100 {
		t.Fatalf("walked %d nodes, want 100", len(refs))
	}
	if _, _, ev := s.Client().Pool().Stats(); ev < 68 {
		t.Fatalf("walking 100 pages through 32 frames evicted %d", ev)
	}
	check("after the paging walk")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after its commit")

	// Another session rewrites the last node, still cached here.
	last := refs[len(refs)-1]
	d := s.FindDesc(last)
	if d.FrameIdx < 0 {
		t.Fatalf("the last node's page %v is not mapped after the walk", d)
	}
	o := e.session(64, Config{}, false)
	if err := o.Begin(); err != nil {
		t.Fatal(err)
	}
	walkList(t, o) // maps the list where this session did: neither relocates
	if err := o.Space().WriteU32(last+8, 4242); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Client().Pool().Lookup(d.Pid); !ok || d.FrameIdx >= 0 {
		t.Fatalf("Begin did not refresh page %v in place (resident %v)", d, ok)
	}
	check("after the refresh")
	if v, err := s.Space().ReadU32(last + 8); err != nil || v != 4242 {
		t.Fatalf("the refreshed node reads %d, %v; want 4242", v, err)
	}
	check("after the refreshed page faulted back in")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// 40 fresh pages through 32 frames: some are stolen before the abort.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	_, _, before := s.Client().Pool().Stats()
	cl := s.NewCluster()
	for i := 0; i < 40; i++ {
		cl.Break()
		if _, err := s.Alloc(cl, 16, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ev := s.Client().Pool().Stats(); ev == before {
		t.Fatal("allocating 40 pages through 32 frames stole none")
	}
	check("after allocating 40 pages")
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after the abort")

	s.Client().Pool().DropAll()
	check("after DropAll")
}
