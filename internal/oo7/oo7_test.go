package oo7

import (
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/epvm"
	"quickstore/internal/esm"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// system bundles one generated OO7 database with a way to open fresh (cold)
// benchmark sessions against it.
type system struct {
	name  string
	srv   *esm.Server
	clock *sim.Clock
	open  func(bufPages int) DB
}

func buildSystem(t *testing.T, name string, p Params) *system {
	t.Helper()
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		esm.ServerConfig{BufferPages: 1024, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	sys := &system{name: name, srv: srv, clock: clock}
	newClient := func(bufPages int) *esm.Client {
		return esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: bufPages, Clock: clock})
	}
	// Generate in bulk-load mode.
	var gen DB
	switch name {
	case "QS", "QS-B":
		s, err := core.New(newClient(512), core.Config{BulkLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		gen = NewQS(s, name == "QS-B")
	case "E":
		s, err := epvm.New(newClient(512), epvm.Config{BulkLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		gen = NewE(s)
	}
	if err := Generate(gen, p); err != nil {
		t.Fatalf("%s: generate: %v", name, err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sys.open = func(bufPages int) DB {
		switch name {
		case "QS", "QS-B":
			s, err := core.Open(newClient(bufPages), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return NewQS(s, name == "QS-B")
		default:
			s, err := epvm.Open(newClient(bufPages), epvm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return NewE(s)
		}
	}
	return sys
}

func (sys *system) cold(t *testing.T) {
	t.Helper()
	if err := sys.srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
}

func buildAll(t *testing.T, p Params) []*system {
	t.Helper()
	return []*system{
		buildSystem(t, "QS", p),
		buildSystem(t, "E", p),
		buildSystem(t, "QS-B", p),
	}
}

// TestAllOpsAgreeAcrossSystems is the benchmark's correctness anchor: every
// operation must compute the same answer on QS, E, and QS-B, cold and hot.
func TestAllOpsAgreeAcrossSystems(t *testing.T) {
	p := Tiny()
	systems := buildAll(t, p)

	type opFn struct {
		name string
		fn   func(DB) (int, error)
	}
	ops := []opFn{
		{"T1", T1},
		{"T6", T6},
		{"T7", func(db DB) (int, error) { return T7(db, p, 7) }},
		{"T8", T8},
		{"T9", T9},
		{"Q1", func(db DB) (int, error) { return Q1(db, p, 11) }},
		{"Q2", func(db DB) (int, error) { return Q2(db, p) }},
		{"Q3", func(db DB) (int, error) { return Q3(db, p) }},
		{"Q4", func(db DB) (int, error) { return Q4(db, p, 13) }},
		{"Q5", Q5},
	}
	for _, op := range ops {
		var want int
		for i, sys := range systems {
			sys.cold(t)
			db := sys.open(128)
			coldN, err := op.fn(db)
			if err != nil {
				t.Fatalf("%s cold on %s: %v", op.name, sys.name, err)
			}
			hotN, err := op.fn(db)
			if err != nil {
				t.Fatalf("%s hot on %s: %v", op.name, sys.name, err)
			}
			if coldN != hotN {
				t.Errorf("%s on %s: cold=%d hot=%d", op.name, sys.name, coldN, hotN)
			}
			if i == 0 {
				want = coldN
			} else if coldN != want {
				t.Errorf("%s: %s=%d, want %d (QS)", op.name, sys.name, coldN, want)
			}
		}
	}
}

func TestStructuralCounts(t *testing.T) {
	p := Tiny()
	sys := buildSystem(t, "QS", p)
	db := sys.open(128)

	n, err := T1(db)
	if err != nil {
		t.Fatal(err)
	}
	// T1 visits each base assembly's 3 composite graphs fully: visits =
	// numBase * 3 * NumAtomicPerComp (every graph is connected).
	want := p.NumBaseAssemblies() * p.NumCompPerAssm * p.NumAtomicPerComp
	if n != want {
		t.Errorf("T1 visited %d, want %d", n, want)
	}

	n, err = T6(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.NumBaseAssemblies()*p.NumCompPerAssm {
		t.Errorf("T6 visited %d, want %d", n, p.NumBaseAssemblies()*p.NumCompPerAssm)
	}

	n, err = T8(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != ExpectedManualCount(p.ManualSize) {
		t.Errorf("T8 counted %d, want %d", n, ExpectedManualCount(p.ManualSize))
	}

	// T7: a randomly chosen part whose composite is used by at least one
	// assembly yields part + composite + link + base + (levels-1) supers;
	// an unused composite legally stops after 2. Try seeds until the full
	// path shows up, then check its exact length.
	sawFull := false
	for seed := int64(1); seed <= 20 && !sawFull; seed++ {
		n, err = T7(db, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if n == 2 {
			continue // composite part used by no assembly
		}
		sawFull = true
		if n != 4+(p.NumAssmLevels-1) {
			t.Errorf("T7 visited %d, want %d", n, 4+(p.NumAssmLevels-1))
		}
	}
	if !sawFull {
		t.Error("T7 never found a used composite part in 20 seeds")
	}

	n, err = Q2(db, p)
	if err != nil {
		t.Fatal(err)
	}
	// ~1% of parts; the dates are uniform random, allow slack.
	total := p.NumAtomicParts()
	if n == 0 || n > total/20 {
		t.Errorf("Q2 returned %d of %d parts", n, total)
	}
	n3, err := Q3(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if n3 <= n || n3 > total/4 {
		t.Errorf("Q3 returned %d (Q2 was %d)", n3, n)
	}
}

// TestUpdatesAgreeAndPersist runs T2/T3 on all systems and checks both the
// update counts and that the updates stick (visible in a fresh session).
func TestUpdatesAgreeAndPersist(t *testing.T) {
	p := Tiny()
	systems := buildAll(t, p)

	type upd struct {
		name string
		fn   func(DB) (int, error)
	}
	ops := []upd{
		{"T2A", func(db DB) (int, error) { return T2(db, VariantA) }},
		{"T2B", func(db DB) (int, error) { return T2(db, VariantB) }},
		{"T2C", func(db DB) (int, error) { return T2(db, VariantC) }},
		{"T3A", func(db DB) (int, error) { return T3(db, VariantA) }},
		{"T3B", func(db DB) (int, error) { return T3(db, VariantB) }},
	}
	for _, op := range ops {
		var want int
		for i, sys := range systems {
			sys.cold(t)
			db := sys.open(128)
			n, err := op.fn(db)
			if err != nil {
				t.Fatalf("%s on %s: %v", op.name, sys.name, err)
			}
			if i == 0 {
				want = n
			} else if n != want {
				t.Errorf("%s: %s=%d, want %d", op.name, sys.name, n, want)
			}
		}
	}

	// After all those updates, the three databases must still agree on T1
	// and Q5 from brand-new cold sessions (updates were durably committed
	// and index maintenance kept Q2 working).
	var wantT1, wantQ2 int
	for i, sys := range systems {
		sys.cold(t)
		db := sys.open(128)
		n, err := T1(db)
		if err != nil {
			t.Fatalf("post-update T1 on %s: %v", sys.name, err)
		}
		q2, err := Q2(db, p)
		if err != nil {
			t.Fatalf("post-update Q2 on %s: %v", sys.name, err)
		}
		if i == 0 {
			wantT1, wantQ2 = n, q2
		} else if n != wantT1 || q2 != wantQ2 {
			t.Errorf("post-update %s: T1=%d Q2=%d, want %d/%d", sys.name, n, q2, wantT1, wantQ2)
		}
	}
}

// TestT2IncrementsVisible verifies the actual field values changed by T2A.
func TestT2IncrementsVisible(t *testing.T) {
	p := Tiny()
	sys := buildSystem(t, "QS", p)
	db := sys.open(128)

	// Record x of the root part of composite part 1.
	readRootX := func() int32 {
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		refs := db.Index(IdxPartID).LookupInt(1)
		if len(refs) == 0 {
			t.Fatal("part 1 missing")
		}
		x := db.GetI32(refs[0], TAtomicPart, APartX)
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		return x
	}
	// A composite part is bumped once per base assembly referencing it, so
	// the increment is >= 0; run T2B twice and require strict growth when
	// part 1's composite is referenced at all.
	before := readRootX()
	n1, err := T2(db, VariantB)
	if err != nil {
		t.Fatal(err)
	}
	mid := readRootX()
	if _, err := T2(db, VariantB); err != nil {
		t.Fatal(err)
	}
	after := readRootX()
	if n1 == 0 {
		t.Fatal("T2B performed no updates")
	}
	if mid < before || after < mid {
		t.Errorf("x went backwards: %d -> %d -> %d", before, mid, after)
	}
	if after != mid+(mid-before) {
		t.Errorf("T2B increments not repeatable: %d -> %d -> %d", before, mid, after)
	}
}

// TestDatabaseSizeOrdering reproduces the Table 2 shape on the tiny
// configuration: QS < E <= QS-B.
func TestDatabaseSizeOrdering(t *testing.T) {
	p := SmallTest()
	systems := buildAll(t, p)
	sizes := map[string]uint32{}
	for _, sys := range systems {
		sizes[sys.name] = sys.srv.Volume().AllocatedPages()
	}
	if !(sizes["QS"] < sizes["E"]) {
		t.Errorf("sizes: QS=%d E=%d, want QS < E", sizes["QS"], sizes["E"])
	}
	if !(sizes["E"] <= sizes["QS-B"]) {
		t.Errorf("sizes: E=%d QS-B=%d, want E <= QS-B", sizes["E"], sizes["QS-B"])
	}
}

// TestIOAsymmetry reproduces the paper's central cold-T1 claim on the tiny
// config: QS reads substantially fewer pages than E on the clustered dense
// traversal.
func TestIOAsymmetry(t *testing.T) {
	p := SmallTest()
	systems := buildAll(t, p)
	reads := map[string]int64{}
	for _, sys := range systems {
		sys.cold(t)
		db := sys.open(256)
		base := sys.clock.Snapshot()
		if _, err := T1(db); err != nil {
			t.Fatal(err)
		}
		// Pages shipped: demand reads plus, on the QuickStore systems, the
		// pages their mapping objects had read ahead.
		d := sys.clock.Snapshot().Sub(base)
		reads[sys.name] = d.Count(sim.CtrClientRead) + d.Count(sim.CtrPrefetchIssued)
	}
	if reads["QS"] >= reads["E"] {
		t.Errorf("cold T1 client reads: QS=%d E=%d, want QS < E", reads["QS"], reads["E"])
	}
	if reads["QS-B"] < reads["E"] {
		t.Errorf("cold T1 client reads: QS-B=%d E=%d, want QS-B >= E", reads["QS-B"], reads["E"])
	}
}

// TestLayoutShapes sanity-checks the three physical layouts.
func TestLayoutShapes(t *testing.T) {
	qs := Layouts(8)
	e := Layouts(16)
	qsb := PaddedLayouts()
	for i := range Types {
		if qs[i].Size > e[i].Size {
			t.Errorf("%s: QS size %d > E size %d", Types[i].Name, qs[i].Size, e[i].Size)
		}
		if qsb[i].Size != e[i].Size && qsb[i].Size < e[i].Size {
			t.Errorf("%s: QS-B size %d < E size %d", Types[i].Name, qsb[i].Size, e[i].Size)
		}
		// Ref offsets are 8-byte aligned (bitmap requirement).
		for _, off := range qs[i].RefOffsets {
			if off%8 != 0 {
				t.Errorf("%s: ref offset %d unaligned", Types[i].Name, off)
			}
		}
	}
	// The atomic part ratio drives Table 2: E's atomic part should be
	// roughly double QS's (5 ints + 4 refs: 5*4+4*8 vs 5*4+4*16).
	if qs[TAtomicPart].Size >= e[TAtomicPart].Size {
		t.Errorf("atomic part: QS %d vs E %d", qs[TAtomicPart].Size, e[TAtomicPart].Size)
	}
}
