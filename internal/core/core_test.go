package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/pagedelta"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
	"quickstore/internal/wal"
)

// env bundles one server and a way to open client sessions against it.
type env struct {
	t     *testing.T
	srv   *esm.Server
	clock *sim.Clock
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		esm.ServerConfig{BufferPages: 512, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return &env{t: t, srv: srv, clock: clock}
}

func (e *env) session(bufPages int, cfg Config, create bool) *Store {
	e.t.Helper()
	c := esm.NewClient(esm.NewInProcTransport(e.srv), esm.ClientConfig{BufferPages: bufPages, Clock: e.clock})
	var s *Store
	var err error
	if create {
		s, err = New(c, cfg)
	} else {
		s, err = Open(c, cfg)
	}
	if err != nil {
		e.t.Fatal(err)
	}
	return s
}

func (e *env) cold() {
	if err := e.srv.DropCaches(); err != nil {
		e.t.Fatal(err)
	}
}

// buildList creates a linked list of n nodes {next Ref; val int32} in one
// bulk-load transaction and registers the head as root "list". Each node
// goes on its own page when spread is true.
func buildList(t *testing.T, s *Store, n int, spread bool) {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	cl := s.NewCluster()
	refs := make([]Ref, n)
	for i := 0; i < n; i++ {
		if spread {
			cl.Break()
		}
		ref, err := s.Alloc(cl, 16, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for i := 0; i < n; i++ {
		next := NilRef
		if i+1 < n {
			next = refs[i+1]
		}
		if err := s.Space().WriteU64(refs[i], uint64(next)); err != nil {
			t.Fatal(err)
		}
		if err := s.Space().WriteU32(refs[i]+8, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetRoot("list", refs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// walkList traverses the list from root and returns the vals seen.
func walkList(t *testing.T, s *Store) []uint32 {
	t.Helper()
	head, err := s.Root("list")
	if err != nil {
		t.Fatal(err)
	}
	var vals []uint32
	for ref := head; ref != NilRef; {
		v, err := s.Space().ReadU32(ref + 8)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
		nxt, err := s.Space().ReadU64(ref)
		if err != nil {
			t.Fatal(err)
		}
		ref = Ref(nxt)
	}
	return vals
}

func TestCreateAndTraverseSameSession(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 50, false)
	s.Begin()
	vals := walkList(t, s)
	if len(vals) != 50 {
		t.Fatalf("walked %d nodes", len(vals))
	}
	for i, v := range vals {
		if v != uint32(i) {
			t.Fatalf("node %d has val %d", i, v)
		}
	}
	s.Commit()
	if err := s.CheckDescs(); err != nil {
		t.Fatal(err)
	}
}

func TestColdTraversalFaultsAndPreviousAddresses(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 40, true) // 40 pages
	e.cold()

	// A brand-new session: the current mapping is empty; faulting in the
	// list should reuse every page's previous virtual address, so no
	// pointer is ever swizzled (Figure 5, "no collisions").
	s2 := e.session(64, Config{}, false)
	base := e.clock.Snapshot()
	s2.Begin()
	vals := walkList(t, s2)
	s2.Commit()
	if len(vals) != 40 {
		t.Fatalf("walked %d nodes", len(vals))
	}
	d := e.clock.Snapshot().Sub(base)
	if got := s2.Space().Faults(); got != 40 {
		t.Errorf("faults = %d, want 40 (one per page)", got)
	}
	if n := d.Count(sim.CtrSwizzledPtr); n != 0 {
		t.Errorf("swizzled %d pointers; want 0 without collisions", n)
	}
	if n := d.Count(sim.CtrServerDiskRead); n == 0 {
		t.Error("cold run hit no disk")
	}
	if s2.Relocations() != 0 {
		t.Errorf("relocations = %d", s2.Relocations())
	}
	// Hot rerun: no faults, no I/O.
	base = e.clock.Snapshot()
	s2.Begin()
	walkList(t, s2)
	s2.Commit()
	d = e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrClientRead); n != 0 {
		t.Errorf("hot run issued %d client reads", n)
	}
	if n := d.Count(sim.CtrPageFaultTrap); n != 0 {
		t.Errorf("hot run trapped %d times", n)
	}
}

func TestUpdateDiffingProducesMinimalLog(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 10, false) // one page
	e.cold()

	s2 := e.session(64, Config{}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	// Update one int32 on the page.
	if err := s2.Space().WriteU32(head+8, 999); err != nil {
		t.Fatal(err)
	}
	base := e.clock.Snapshot()
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrPageDiff); n != 1 {
		t.Errorf("diffed %d pages, want 1", n)
	}
	// One small log record for the 4 changed bytes (plus possibly a
	// mapping/meta record, but no whole-page logging).
	if n := d.Count(sim.CtrLogByte); n > 200 {
		t.Errorf("logged %d bytes for a 4-byte update", n)
	}
	// Verify durability: reread cold.
	e.cold()
	s3 := e.session(64, Config{}, false)
	s3.Begin()
	vals := walkList(t, s3)
	s3.Commit()
	if vals[0] != 999 {
		t.Fatalf("update lost: %v", vals[0])
	}
}

func TestWriteFaultTakesLockAndCopy(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 10, false)
	e.cold()

	s2 := e.session(64, Config{}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	base := e.clock.Snapshot()
	s2.Space().WriteU32(head+8, 1)
	s2.Space().WriteU32(head+8, 2) // second write: no new fault
	d := e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrRecoveryCopy); n != 1 {
		t.Errorf("recovery copies = %d, want 1", n)
	}
	if n := d.Count(sim.CtrLockUpgrade); n != 1 {
		t.Errorf("lock upgrades = %d, want 1", n)
	}
	s2.Commit()

	// Next transaction: the first update faults (and copies) again.
	base = e.clock.Snapshot()
	s2.Begin()
	s2.Space().WriteU32(head+8, 3)
	d = e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrRecoveryCopy); n != 1 {
		t.Errorf("second tx recovery copies = %d, want 1", n)
	}
	s2.Commit()
}

func TestAbortRollsBack(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 5, false)
	e.cold()

	s2 := e.session(64, Config{}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	s2.Space().WriteU32(head+8, 12345)
	if err := s2.Abort(); err != nil {
		t.Fatal(err)
	}
	s2.Begin()
	v, err := s2.Space().ReadU32(head + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
	s2.Commit()
}

func TestPoolPagingRemapsFrames(t *testing.T) {
	// A tiny client pool forces replacement; pointers must stay valid
	// because rereferenced pages fault back in (Figure 1d).
	e := newEnv(t)
	s := e.session(128, Config{BulkLoad: true}, true)
	buildList(t, s, 60, true)
	e.cold()

	s2 := e.session(8, Config{}, false) // 8 frames for 60 pages
	s2.Begin()
	vals := walkList(t, s2)
	if len(vals) != 60 {
		t.Fatalf("walked %d", len(vals))
	}
	// Walk again within the same transaction: pages were evicted, so this
	// refaults and rereads, exercising the dynamic remapping.
	vals = walkList(t, s2)
	for i, v := range vals {
		if v != uint32(i) {
			t.Fatalf("second walk: node %d = %d", i, v)
		}
	}
	s2.Commit()
	if s2.Space().Faults() <= 60 {
		t.Errorf("faults = %d; paging should force refaults", s2.Space().Faults())
	}
}

func TestForcedRelocationSwizzles(t *testing.T) {
	e := newEnv(t)
	s := e.session(128, Config{BulkLoad: true}, true)
	buildList(t, s, 30, true)
	e.cold()

	s2 := e.session(128, Config{RelocateFraction: 1.0, RelocSeed: 7}, false)
	base := e.clock.Snapshot()
	s2.Begin()
	vals := walkList(t, s2)
	s2.Commit()
	if len(vals) != 30 {
		t.Fatalf("walked %d", len(vals))
	}
	for i, v := range vals {
		if v != uint32(i) {
			t.Fatalf("node %d = %d after relocation", i, v)
		}
	}
	d := e.clock.Snapshot().Sub(base)
	if s2.Relocations() == 0 {
		t.Fatal("no relocations with fraction 1.0")
	}
	if n := d.Count(sim.CtrSwizzledPtr); n == 0 {
		t.Fatal("relocation swizzled no pointers")
	}
	if n := d.Count(sim.CtrBitmapRead); n == 0 {
		t.Error("swizzling read no bitmap objects")
	}
	if err := s2.CheckDescs(); err != nil {
		t.Fatal(err)
	}
}

func TestRelocationORCommitsNewMapping(t *testing.T) {
	e := newEnv(t)
	s := e.session(128, Config{BulkLoad: true}, true)
	buildList(t, s, 20, true)
	e.cold()

	// One-time relocation: the read-only traversal becomes an update
	// transaction that rewrites mapping objects.
	s2 := e.session(128, Config{Relocation: RelocOR, RelocateFraction: 1.0, RelocSeed: 3}, false)
	base := e.clock.Snapshot()
	s2.Begin()
	walkList(t, s2)
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrCommitFlushPage); n == 0 {
		t.Fatal("QS-OR committed no pages")
	}
	relocated := s2.Relocations()
	if relocated == 0 {
		t.Fatal("no relocations")
	}

	// A third session without injection must follow the *committed*
	// mapping without any swizzling.
	e.cold()
	s3 := e.session(128, Config{}, false)
	base = e.clock.Snapshot()
	s3.Begin()
	vals := walkList(t, s3)
	s3.Commit()
	if len(vals) != 20 {
		t.Fatalf("walked %d after OR", len(vals))
	}
	d = e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrSwizzledPtr); n != 0 {
		t.Errorf("post-OR session swizzled %d pointers; mapping should be consistent", n)
	}
}

func TestRelocationCRDoesNotCommit(t *testing.T) {
	e := newEnv(t)
	s := e.session(128, Config{BulkLoad: true}, true)
	buildList(t, s, 20, true)
	e.cold()

	s2 := e.session(128, Config{Relocation: RelocCR, RelocateFraction: 1.0, RelocSeed: 3}, false)
	base := e.clock.Snapshot()
	s2.Begin()
	walkList(t, s2)
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.clock.Snapshot().Sub(base)
	if n := d.Count(sim.CtrCommitFlushPage); n != 0 {
		t.Fatalf("QS-CR shipped %d pages on a read-only transaction", n)
	}
}

func TestLargeObjectScanAndSplit(t *testing.T) {
	e := newEnv(t)
	s := e.session(128, Config{BulkLoad: true}, true)
	s.Begin()
	cl := s.NewCluster()
	const size = 5*vmem.FrameSize + 123
	ref, err := s.AllocLarge(cl, size)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := s.LargeWrite(ref, payload, 0); err != nil {
		t.Fatal(err)
	}
	// An anchor object pointing at the manual.
	anchor, err := s.Alloc(cl, 16, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s.Space().WriteU64(anchor, uint64(ref))
	if err := s.SetRoot("anchor", anchor); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e.cold()

	s2 := e.session(128, Config{}, false)
	s2.Begin()
	a2, err := s2.Root("anchor")
	if err != nil {
		t.Fatal(err)
	}
	mref, err := s2.Space().ReadU64(a2)
	if err != nil {
		t.Fatal(err)
	}
	// Before first touch: one descriptor covers the whole object.
	d := s2.FindDesc(Ref(mref))
	if d == nil || !d.IsLarge || d.Pages() != 6 {
		t.Fatalf("pre-split desc: %v", d)
	}
	// Touch a middle page: Figure 3's split.
	if _, err := s2.Space().ReadU8(Ref(mref) + 3*vmem.FrameSize); err != nil {
		t.Fatal(err)
	}
	mid := s2.FindDesc(Ref(mref) + 3*vmem.FrameSize)
	if mid == nil || mid.Pages() != 1 || !mid.Accessed {
		t.Fatalf("mid desc after split: %v", mid)
	}
	left := s2.FindDesc(Ref(mref))
	if left == nil || left.Pages() != 3 || left.Accessed {
		t.Fatalf("left desc after split: %v", left)
	}
	right := s2.FindDesc(Ref(mref) + 4*vmem.FrameSize)
	if right == nil || right.Pages() != 2 {
		t.Fatalf("right desc after split: %v", right)
	}
	if err := s2.CheckDescs(); err != nil {
		t.Fatal(err)
	}
	// Scan every byte (the T8 pattern) and verify content.
	for i := 0; i < size; i += 997 {
		b, err := s2.Space().ReadU8(Ref(mref) + Ref(i))
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if b != byte(i%251) {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
	s2.Commit()
}

func TestRecoveryBufferOverflowFlushesEarly(t *testing.T) {
	e := newEnv(t)
	s := e.session(256, Config{BulkLoad: true}, true)
	buildList(t, s, 30, true)
	e.cold()

	// Recovery buffer of 4 pages, updating 30 pages: must flush early,
	// and all updates must still commit correctly.
	s2 := e.session(256, Config{RecoveryBufferBytes: 4 * disk.PageSize}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	ref := head
	for ref != NilRef {
		v, _ := s2.Space().ReadU32(ref + 8)
		if err := s2.Space().WriteU32(ref+8, v+1000); err != nil {
			t.Fatal(err)
		}
		nxt, _ := s2.Space().ReadU64(ref)
		ref = Ref(nxt)
	}
	base := e.clock.Snapshot()
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = base
	e.cold()
	s3 := e.session(256, Config{}, false)
	s3.Begin()
	vals := walkList(t, s3)
	s3.Commit()
	for i, v := range vals {
		if v != uint32(i+1000) {
			t.Fatalf("node %d = %d", i, v)
		}
	}
}

func TestWildPointerRejected(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{}, true)
	s.Begin()
	_, err := s.Space().ReadU8(DefaultBase + 0x9999*vmem.FrameSize)
	if err == nil || !strings.Contains(err.Error(), "wild pointer") {
		t.Fatalf("wild pointer error: %v", err)
	}
	s.Commit()
}

func TestAccessOutsideTransactionRejected(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 3, true)
	e.cold()
	s2 := e.session(64, Config{}, false)
	s2.Begin()
	head, _ := s2.Root("list")
	s2.Commit()
	// The frame is still mapped read-only after commit, so hot reads
	// outside a transaction succeed only for still-mapped pages; evict
	// everything to force a fault.
	s2.Client().DropCaches()
	if _, err := s2.Space().ReadU32(head + 8); err == nil {
		t.Fatal("fault outside a transaction succeeded")
	}
}

func TestDiffRegionsMergeRule(t *testing.T) {
	old := make([]byte, 2048)
	cur := append([]byte(nil), old...)
	// Paper's case 1: first and last byte of a 1K object -> two records.
	cur[0] ^= 1
	cur[1023] ^= 1
	regs := pagedelta.Regions(old, cur, wal.HeaderBytes)
	if len(regs) != 2 {
		t.Fatalf("far-apart bytes: %d regions", len(regs))
	}
	// Paper's case 2: bytes 0, 2, 4 -> one merged record.
	cur = append([]byte(nil), old...)
	cur[0] ^= 1
	cur[2] ^= 1
	cur[4] ^= 1
	regs = pagedelta.Regions(old, cur, wal.HeaderBytes)
	if len(regs) != 1 || regs[0].Off != 0 || regs[0].N != 5 {
		t.Fatalf("nearby bytes: %+v", regs)
	}
	// Boundary: gap exactly hdr/2 merges, gap just over does not.
	cur = append([]byte(nil), old...)
	cur[0] ^= 1
	cur[1+wal.HeaderBytes/2] ^= 1
	regs = pagedelta.Regions(old, cur, wal.HeaderBytes)
	if len(regs) != 1 {
		t.Fatalf("gap=hdr/2: %d regions", len(regs))
	}
	cur = append([]byte(nil), old...)
	cur[0] ^= 1
	cur[2+wal.HeaderBytes/2] ^= 1
	regs = pagedelta.Regions(old, cur, wal.HeaderBytes)
	if len(regs) != 2 {
		t.Fatalf("gap>hdr/2: %d regions", len(regs))
	}
	// No changes -> no regions.
	if regs := pagedelta.Regions(old, old, wal.HeaderBytes); len(regs) != 0 {
		t.Fatalf("identical pages: %+v", regs)
	}
}

// Property: applying diffRegions' records to the old page reproduces the
// new page exactly, for random sparse edits.
func TestDiffRegionsReconstructionProperty(t *testing.T) {
	f := func(seed int64, edits []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, disk.PageSize)
		rng.Read(old)
		cur := append([]byte(nil), old...)
		for _, e := range edits {
			cur[int(e)%disk.PageSize] ^= byte(1 + rng.Intn(255))
		}
		regs := pagedelta.Regions(old, cur, wal.HeaderBytes)
		rebuilt := append([]byte(nil), old...)
		for _, r := range regs {
			copy(rebuilt[r.Off:r.Off+r.N], cur[r.Off:r.Off+r.N])
		}
		if !bytesEqual(rebuilt, cur) {
			return false
		}
		// Regions must be disjoint, ordered, and genuinely needed.
		prevEnd := -1
		for _, r := range regs {
			if r.Off <= prevEnd || r.N <= 0 {
				return false
			}
			prevEnd = r.Off + r.N
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the descriptor table agrees with a model — a list of live
// ranges — under random inserts, removals and large-object splits. An
// overlapping insert is refused; Find at a range's first and last frame, one
// frame below it and one past it answers as the model does; and the lowest
// gap of n free frames is the model's. The table spans three chunks, the
// last one partial, so ranges cross chunk boundaries and some chunks are
// never allocated.
func TestDescTreeProperty(t *testing.T) {
	const frames = 2*tableSlots + 300
	base := vmem.Addr(1 << 30)
	at := func(i int) vmem.Addr { return base + vmem.Addr(i)<<vmem.FrameShift }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Store{byAddr: newDescTable(base, frames), byOID: map[esm.OID]*PageDesc{}}
		tab := &s.byAddr
		var live []*PageDesc
		model := func(a vmem.Addr) *PageDesc {
			for _, d := range live {
				if d.Contains(a) {
					return d
				}
			}
			return nil
		}
		drop := func(k int) *PageDesc {
			d := live[k]
			live = append(live[:k], live[k+1:]...)
			return d
		}
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // insert 1–16 frames anywhere, a few of them past the end
				lo := at(rng.Intn(frames + 8))
				d := &PageDesc{Lo: lo, Hi: lo + vmem.Addr(1+rng.Intn(16))<<vmem.FrameShift, IsLarge: true}
				d.ObjLo, d.ObjPages = d.Lo, uint32(d.Pages())
				taken := d.Hi > at(frames)
				for a := d.Lo; a < d.Hi && !taken; a += vmem.FrameSize {
					taken = model(a) != nil
				}
				if err := tab.Insert(d); (err != nil) != taken {
					t.Logf("seed %d: insert %v with taken=%v: %v", seed, d, taken, err)
					return false
				}
				if !taken {
					live = append(live, d)
				}
			case r < 8 && len(live) > 0: // remove
				tab.Remove(drop(rng.Intn(len(live))))
			case len(live) > 0: // split at the first, middle or last frame
				d := drop(rng.Intn(len(live)))
				a := [3]vmem.Addr{d.Lo, d.Lo + vmem.Addr(d.Pages()/2)<<vmem.FrameShift, d.Hi - 1}[rng.Intn(3)]
				mid, err := s.splitLarge(d, a)
				if err != nil || !mid.Contains(a) || mid.Pages() != 1 {
					t.Logf("seed %d: split %v at %#x: %v, %v", seed, d, a, mid, err)
					return false
				}
				live = append(live, mid)
				if mid.Lo > d.Lo {
					live = append(live, tab.Find(d.Lo))
				}
				if mid.Hi < d.Hi {
					live = append(live, tab.Find(mid.Hi))
				}
			}
			if err := tab.check(); err != nil || tab.n != len(live) {
				t.Logf("seed %d op %d: %v; %d descriptors, model %d", seed, op, err, tab.n, len(live))
				return false
			}
		}
		for _, d := range live {
			for _, a := range []vmem.Addr{d.Lo, d.Hi - 1, d.Lo - vmem.FrameSize, d.Hi} {
				if tab.Find(a) != model(a) {
					t.Logf("seed %d: Find(%#x) = %v, model %v", seed, a, tab.Find(a), model(a))
					return false
				}
			}
		}
		for n := uint32(1); n <= 64; n *= 2 {
			want, ok := vmem.Addr(0), false
			for i := 0; i+int(n) <= frames && !ok; i++ {
				want, ok = at(i), true
				for j := i; j < i+int(n) && ok; j++ {
					ok = model(at(j)) == nil
				}
			}
			if !ok {
				want = 0
			}
			if got, gok := tab.gap(n); got != want || gok != ok {
				t.Logf("seed %d: gap(%d) = %#x %v, model %#x %v", seed, n, got, gok, want, ok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAllocatorPersistsAcrossSessions(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	buildList(t, s, 3, true)
	var firstLo Ref
	s.Begin()
	head, _ := s.Root("list")
	firstLo = head.FrameBase()
	s.Commit()

	// A second session allocating new pages must not reuse addresses the
	// first session consumed (the persistent counter).
	s2 := e.session(64, Config{BulkLoad: true}, false)
	s2.Begin()
	cl := s2.NewCluster()
	ref, err := s2.Alloc(cl, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Commit()
	if ref.FrameBase() <= firstLo {
		t.Fatalf("frame counter reused addresses: %#x <= %#x", ref.FrameBase(), firstLo)
	}
}

func TestBitmapHelpers(t *testing.T) {
	bm := make([]byte, bitmapBytes)
	offs := []int{0, 8, 24, 8184}
	for _, o := range offs {
		bitmapSet(bm, o)
	}
	var got []int
	forEachPointer(bm, func(off int) bool { got = append(got, off); return true })
	if fmt.Sprint(got) != fmt.Sprint(offs) {
		t.Fatalf("forEachPointer = %v", got)
	}
	for _, o := range offs {
		if !bitmapHas(bm, o) {
			t.Fatalf("bit %d missing", o)
		}
	}
	bitmapClear(bm, 8)
	if bitmapHas(bm, 8) {
		t.Fatal("clear failed")
	}
	// Early stop.
	n := 0
	forEachPointer(bm, func(int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestMappingRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		entries := make([]mapEntry, n)
		for i := range entries {
			entries[i] = mapEntry{
				ObjLo:    vmem.Addr(rng.Uint64() &^ (vmem.FrameSize - 1)),
				ObjPages: uint32(1 + rng.Intn(1000)),
				IsLarge:  rng.Intn(2) == 0,
				OID:      esm.OID{Page: disk.PageID(rng.Uint32()), Slot: uint16(rng.Intn(100)), File: 3},
			}
		}
		got, err := appendMappingEntries(nil, appendMapping(nil, entries))
		if err != nil || len(got) != n {
			return false
		}
		for i := range entries {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryOfCommittedUpdate(t *testing.T) {
	// End-to-end WAL drill: commit an update (logged via diffing), wipe
	// the volume page, restart the server, and check that redo restores it.
	clock := sim.NewClock(sim.DefaultCostModel())
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, err := esm.NewServer(vol, logf, esm.ServerConfig{BufferPages: 256, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 64, Clock: clock})
	s, err := New(c, Config{BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, s, 5, false)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	c2 := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 64, Clock: clock})
	s2, err := Open(c2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Begin()
	head, _ := s2.Root("list")
	pid := s2.FindDesc(head).Pid
	if err := s2.Space().WriteU32(head+8, 4242); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash: the server's dirty copy never reaches the volume. Read the
	// volume's stale page directly, then recover.
	buf := make([]byte, disk.PageSize)
	vol.ReadPage(pid, buf)
	srv2, err := esm.OpenServer(vol, logf, esm.ServerConfig{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	c3 := esm.NewClient(esm.NewInProcTransport(srv2), esm.ClientConfig{BufferPages: 64})
	s3, err := Open(c3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s3.Begin()
	head3, err := s3.Root("list")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s3.Space().ReadU32(head3 + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4242 {
		t.Fatalf("recovered value = %d, want 4242", v)
	}
	s3.Commit()
}
