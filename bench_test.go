// Package bench holds the repository-level benchmark suite: one benchmark
// per table and figure of the paper's evaluation (driving the same harness
// as cmd/oo7bench) plus real micro-benchmarks of the implementation's hot
// paths.
//
// The table/figure benchmarks report two kinds of numbers:
//   - ns/op etc.: real Go time to execute the workload in this process;
//   - sim-ms-*: the deterministic simulated 1994 response times whose
//     *shape* reproduces the paper (see DESIGN.md §6 and EXPERIMENTS.md).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The full paper-scale (small OO7 database) run is the default; it takes a
// few seconds per benchmark. Pass -short to use the reduced configuration.
package bench

import (
	"net"
	"runtime"
	"sync"
	"testing"

	"quickstore/internal/btree"
	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/harness"
	"quickstore/internal/oo7"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
	"quickstore/internal/wal"
)

func params(b *testing.B) oo7.Params {
	if testing.Short() {
		return oo7.SmallTest()
	}
	return oo7.Small()
}

// buildEnvs builds one OO7 database per system (outside the timer).
func buildEnvs(b *testing.B, p oo7.Params) map[harness.System]*harness.Env {
	b.Helper()
	envs := map[harness.System]*harness.Env{}
	for _, sys := range harness.AllSystems {
		env, err := harness.Build(sys, p)
		if err != nil {
			b.Fatal(err)
		}
		envs[sys] = env
	}
	return envs
}

// benchOps runs the named operations cold on every system b.N times and
// reports both real time and the simulated cold milliseconds per system.
func benchOps(b *testing.B, names []string) {
	p := params(b)
	envs := buildEnvs(b, p)
	ops := harness.Ops(p)
	simMs := map[harness.System]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			for _, sys := range harness.AllSystems {
				m, err := envs[sys].RunColdHot(ops[name], harness.SessionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				simMs[sys] += m.ColdMs
			}
		}
	}
	b.StopTimer()
	for sys, total := range simMs {
		b.ReportMetric(total/float64(b.N), "sim-ms-"+sys.String())
	}
}

// --- One benchmark per paper table/figure -----------------------------------

// BenchmarkTable2DatabaseSizes regenerates the three databases and reports
// their sizes (Table 2).
func BenchmarkTable2DatabaseSizes(b *testing.B) {
	p := params(b)
	for i := 0; i < b.N; i++ {
		envs := buildEnvs(b, p)
		b.ReportMetric(envs[harness.SysQS].SizeMB(), "MB-QS")
		b.ReportMetric(envs[harness.SysE].SizeMB(), "MB-E")
		b.ReportMetric(envs[harness.SysQSB].SizeMB(), "MB-QS-B")
	}
}

// BenchmarkFig8SmallColdTraversals reproduces Figure 8 / Table 3.
func BenchmarkFig8SmallColdTraversals(b *testing.B) {
	benchOps(b, []string{"T1", "T6", "T7", "T8", "T9"})
}

// BenchmarkFig9SmallColdQueries reproduces Figure 9 / Table 4.
func BenchmarkFig9SmallColdQueries(b *testing.B) {
	benchOps(b, []string{"Q1", "Q2", "Q3", "Q4", "Q5"})
}

// BenchmarkTable5FaultCost reproduces Table 5: average per-fault cost of
// the cold T1 traversal, reported per system.
func BenchmarkTable5FaultCost(b *testing.B) {
	p := params(b)
	envs := buildEnvs(b, p)
	ops := harness.Ops(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range harness.AllSystems {
			m, err := envs[sys].RunColdHot(ops["T1"], harness.SessionOpts{})
			if err != nil {
				b.Fatal(err)
			}
			faults := m.ColdDelta.Count(sim.CtrPageFaultTrap)
			if sys == harness.SysE {
				faults = m.ColdDelta.Count(sim.CtrClientRead)
			}
			if faults > 0 {
				b.ReportMetric((m.ColdMs-m.HotMs)/float64(faults), "sim-ms/fault-"+sys.String())
			}
		}
	}
}

// BenchmarkTable6FaultBreakdown reproduces Table 6: the QS per-fault
// component decomposition on T1.
func BenchmarkTable6FaultBreakdown(b *testing.B) {
	p := params(b)
	env, err := harness.Build(harness.SysQS, p)
	if err != nil {
		b.Fatal(err)
	}
	ops := harness.Ops(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := env.RunColdHot(ops["T1"], harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		faults := float64(m.ColdDelta.Count(sim.CtrPageFaultTrap))
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrMinFault)/1000/faults, "sim-ms/fault-min")
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrPageFaultTrap)/1000/faults, "sim-ms/fault-trap")
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrMmapCall)/1000/faults, "sim-ms/fault-mmap")
		b.ReportMetric((m.ColdDelta.Micros(sim.CtrMapEntry)+m.ColdDelta.Micros(sim.CtrSwizzledPtr))/1000/faults, "sim-ms/fault-swizzle")
	}
}

// BenchmarkFig10SmallUpdates reproduces Figure 10 (T2/T3 response times).
func BenchmarkFig10SmallUpdates(b *testing.B) {
	benchOps(b, []string{"T2A", "T2B", "T2C", "T3A", "T3B", "T3C"})
}

// BenchmarkFig11CommitBreakdown reproduces Figure 11: T2A commit phases.
func BenchmarkFig11CommitBreakdown(b *testing.B) {
	p := params(b)
	env, err := harness.Build(harness.SysQS, p)
	if err != nil {
		b.Fatal(err)
	}
	ops := harness.Ops(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := env.RunColdHot(ops["T2A"], harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrPageDiff)/1000+m.ColdDelta.Micros(sim.CtrDiffByte)/1000, "sim-ms-diff")
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrMapUpdate)/1000, "sim-ms-mapupd")
		b.ReportMetric(m.ColdDelta.Micros(sim.CtrCommitFlushPage)/1000, "sim-ms-flush")
	}
}

// benchHotOps reports hot (in-memory) simulated times per system.
func benchHotOps(b *testing.B, names []string) {
	p := params(b)
	envs := buildEnvs(b, p)
	ops := harness.Ops(p)
	simMs := map[harness.System]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			for _, sys := range harness.AllSystems {
				m, err := envs[sys].RunColdHot(ops[name], harness.SessionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				simMs[sys] += m.HotMs
			}
		}
	}
	b.StopTimer()
	for sys, total := range simMs {
		b.ReportMetric(total/float64(b.N), "sim-hot-ms-"+sys.String())
	}
}

// BenchmarkFig12SmallHotTraversals reproduces Figure 12.
func BenchmarkFig12SmallHotTraversals(b *testing.B) {
	benchHotOps(b, []string{"T1", "T6", "T7", "T8", "T9"})
}

// BenchmarkFig13SmallHotQueries reproduces Figure 13.
func BenchmarkFig13SmallHotQueries(b *testing.B) {
	benchHotOps(b, []string{"Q1", "Q2", "Q3", "Q4", "Q5"})
}

// BenchmarkTable7HotProfile reproduces Table 7: hot T1, reporting the EPVM
// share of E's time and the malloc share of QS's.
func BenchmarkTable7HotProfile(b *testing.B) {
	p := params(b)
	envs := buildEnvs(b, p)
	ops := harness.Ops(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs, err := envs[harness.SysQS].RunColdHot(ops["T1"], harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := envs[harness.SysE].RunColdHot(ops["T1"], harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		epvmShare := (e.HotDelta.Micros(sim.CtrInterpCall) + e.HotDelta.Micros(sim.CtrResidencyCheck) +
			e.HotDelta.Micros(sim.CtrBigPtrDeref)) / e.HotDelta.ElapsedMicros()
		mallocShare := qs.HotDelta.Micros(sim.CtrIterAlloc) / qs.HotDelta.ElapsedMicros()
		b.ReportMetric(epvmShare*100, "pct-EPVM-of-E")
		b.ReportMetric(mallocShare*100, "pct-malloc-of-QS")
	}
}

// BenchmarkFig14MediumColdTraversals reproduces Figure 14 / Table 8 (run
// without -short for the true medium database; with -short a reduced
// configuration stands in).
func BenchmarkFig14MediumColdTraversals(b *testing.B) {
	benchMedium(b, []string{"T1", "T6", "T7", "T8"})
}

// BenchmarkFig15MediumColdQueries reproduces Figure 15 / Table 9.
func BenchmarkFig15MediumColdQueries(b *testing.B) {
	benchMedium(b, []string{"Q1", "Q2", "Q3", "Q4", "Q5"})
}

// BenchmarkFig16MediumUpdates reproduces Figure 16.
func BenchmarkFig16MediumUpdates(b *testing.B) {
	benchMedium(b, []string{"T2A", "T2B", "T3A"})
}

func mediumParams(b *testing.B) oo7.Params {
	if testing.Short() {
		p := oo7.SmallTest()
		p.NumAtomicPerComp = 40
		return p
	}
	// The full medium database (100k atomic parts) takes minutes to build
	// three times over; the benchmark default scales it down while keeping
	// the paging behaviour (database larger than the client pool).
	p := oo7.Medium()
	p.NumCompPerModule = 120
	return p
}

func benchMedium(b *testing.B, names []string) {
	p := mediumParams(b)
	envs := buildEnvs(b, p)
	ops := harness.Ops(p)
	simMs := map[harness.System]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			for _, sys := range harness.AllSystems {
				m, err := envs[sys].RunColdHot(ops[name], harness.SessionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				simMs[sys] += m.ColdMs
			}
		}
	}
	b.StopTimer()
	for sys, total := range simMs {
		b.ReportMetric(total/float64(b.N), "sim-ms-"+sys.String())
	}
}

// BenchmarkFig17Relocation reproduces Figure 17: T1 at 100% forced
// relocation under both policies, reported as simulated ms.
func BenchmarkFig17Relocation(b *testing.B) {
	p := params(b)
	ops := harness.Ops(p)
	for i := 0; i < b.N; i++ {
		for _, mode := range []core.RelocationMode{core.RelocCR, core.RelocOR} {
			env, err := harness.Build(harness.SysQS, p)
			if err != nil {
				b.Fatal(err)
			}
			m, err := env.RunColdHot(ops["T1"], harness.SessionOpts{
				Relocation: mode, RelocateFraction: 1.0, RelocSeed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			name := "sim-ms-CR"
			if mode == core.RelocOR {
				name = "sim-ms-OR"
			}
			b.ReportMetric(m.ColdMs, name)
		}
	}
}

// BenchmarkPrefetchColdT1 runs cold T1 on QuickStore under demand paging and
// under mapping-object read-ahead, reporting simulated response times and
// page-read round trips, so a regression in either shows up in benchmark
// history.
func BenchmarkPrefetchColdT1(b *testing.B) {
	p := params(b)
	env, err := harness.Build(harness.SysQS, p)
	if err != nil {
		b.Fatal(err)
	}
	ops := harness.Ops(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := env.RunColdHot(ops["T1"], harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		on, err := env.RunColdHot(ops["T1"], harness.SessionOpts{ReadAhead: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.ColdMs, "sim-ms-demand")
		b.ReportMetric(on.ColdMs, "sim-ms-ahead")
		b.ReportMetric(float64(off.ColdIOs()), "trips-demand")
		b.ReportMetric(float64(on.ColdIOs()+on.ColdDelta.Count(sim.CtrPrefetchBatch)), "trips-ahead")
	}
}

// --- Real micro-benchmarks of the implementation ----------------------------

// BenchmarkVmemRead measures a hot protected load (the QS dereference).
func BenchmarkVmemRead(b *testing.B) {
	clock := sim.NewClock(sim.CostModel{})
	sp := vmem.NewSpace(0x10000000, 16, clock)
	data := make([]byte, vmem.FrameSize)
	if err := sp.Map(0x10000000, data, vmem.ProtRead); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.ReadU64(0x10000000 + vmem.Addr(i%1000)*8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultPath measures a full QuickStore page fault (protection
// trap, page fetch from a warm server, mapping processing, remap).
func BenchmarkFaultPath(b *testing.B) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 4096, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	client := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 2048, Clock: clock})
	st, err := core.New(client, core.Config{BulkLoad: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Begin(); err != nil {
		b.Fatal(err)
	}
	cl := st.NewCluster()
	refs := make([]core.Ref, 1024)
	for i := range refs {
		cl.Break()
		refs[i], err = st.Alloc(cl, 64, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := st.Begin(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := refs[i%len(refs)]
		// Force a fault by revoking access, then dereference.
		d := st.FindDesc(ref)
		if d.FrameIdx >= 0 {
			_ = st.Space().Protect(d.Lo, vmem.ProtNone)
		}
		if _, err := st.Space().ReadU32(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTreeInsert measures warm B-tree insertion.
func BenchmarkBTreeInsert(b *testing.B) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 8192})
	if err != nil {
		b.Fatal(err)
	}
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 4096})
	if err := c.Begin(); err != nil {
		b.Fatal(err)
	}
	tr, err := btree.Create(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(btree.IntKey(int64(i)), esm.OID{Page: disk.PageID(i + 2), File: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTreeLookup measures warm B-tree point lookups.
func BenchmarkBTreeLookup(b *testing.B) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 8192})
	if err != nil {
		b.Fatal(err)
	}
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 4096})
	if err := c.Begin(); err != nil {
		b.Fatal(err)
	}
	tr, err := btree.Create(c)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	for i := 0; i < n; i++ {
		if err := tr.Insert(btree.IntKey(int64(i)), esm.OID{Page: disk.PageID(i + 2), File: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Lookup(btree.IntKey(int64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageDiff measures the page-diffing log generator on a sparsely
// modified page (the T2A pattern).
func BenchmarkPageDiff(b *testing.B) {
	old := make([]byte, disk.PageSize)
	cur := make([]byte, disk.PageSize)
	for i := range old {
		old[i] = byte(i)
		cur[i] = byte(i)
	}
	cur[100] ^= 1
	cur[104] ^= 1
	cur[6000] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs := core.DiffRegionsForTest(old, cur, wal.HeaderBytes)
		if len(regs) != 2 {
			b.Fatalf("regions = %d", len(regs))
		}
	}
}

// BenchmarkOO7Generate measures full database generation (QS, reduced
// configuration) — the bulk-load path end to end.
func BenchmarkOO7Generate(b *testing.B) {
	p := oo7.SmallTest()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Build(harness.SysQS, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtrasFullOO7 measures the beyond-the-paper OO7 operations
// (Q6-Q8 and the structural modifications) on QuickStore.
func BenchmarkExtrasFullOO7(b *testing.B) {
	p := params(b)
	env, err := harness.Build(harness.SysQS, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := env.Session(harness.SessionOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := oo7.Q6(db); err != nil {
			b.Fatal(err)
		}
		if _, err := oo7.Q7(db, p); err != nil {
			b.Fatal(err)
		}
		if _, err := oo7.Q8(db, p, 31); err != nil {
			b.Fatal(err)
		}
		if _, err := oo7.StructuralInsert(db, p, 5, 37); err != nil {
			b.Fatal(err)
		}
		if _, err := oo7.StructuralDelete(db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path allocation guards ----------------------------------------------
//
// Once a page is mapped, a persistent dereference is an ordinary load: the
// store must not show up in a hot traversal's profile, and in particular it
// must not allocate. The three benchmarks below report ns/op for the record
// and assert only allocation counts, which repeat exactly; the tests of the
// same names run the assertions under plain `go test ./...`.

// Allocation budgets. A hot T1 allocates its graph walker and visited-set
// growth plus what one Begin/Commit round trip costs (4 today: the commit's
// group-commit batch among them; every answer a server builds is pooled). A
// faulting T1 is bounded per fault. In steady-state replacement on a
// 128-page pool every fault is a round trip of its own, and a round trip
// allocates nothing — not in process, not over the multiplexed transport
// (pooled answers, the session's scratch request, long-lived serve workers;
// DESIGN.md §13): what a T1 allocates there is the hot T1's share spread over
// ~2,000 faults, so one allocation more per fault breaks the budget. Cold on
// a pool that holds the database, read-ahead shares a round trip between the
// pages a mapping object names, and the descriptors of those pages come 64
// to an allocation (Store.newDesc): what is left per fault (0.22 today) is
// mostly a fresh session's tables growing once — descriptor maps, frame
// table, pool slabs, scratch buffers. The budgets are
// set per build (norace_test.go, race_test.go): the race detector's
// sync.Pool drops a random share of what is put back, so there a pooled
// round trip allocates by chance and the looser budgets of before round
// trips were pooled apply.

var (
	hotEnvOnce sync.Once
	hotEnv     *harness.Env
	hotEnvErr  error
)

// qsSession opens a QuickStore session on a shared small OO7 database and
// returns its store alongside the benchmark driver.
func qsSession(tb testing.TB, bufferPages int) (*core.Store, oo7.DB) {
	tb.Helper()
	sharedEnv(tb)
	return openSession(tb, esm.NewClient(esm.NewInProcTransport(hotEnv.Srv),
		esm.ClientConfig{BufferPages: bufferPages, Clock: hotEnv.Clock}))
}

// sharedEnv builds the shared small OO7 database once.
func sharedEnv(tb testing.TB) {
	tb.Helper()
	hotEnvOnce.Do(func() { hotEnv, hotEnvErr = harness.Build(harness.SysQS, oo7.Small()) })
	if hotEnvErr != nil {
		tb.Fatal(hotEnvErr)
	}
}

func openSession(tb testing.TB, c *esm.Client) (*core.Store, oo7.DB) {
	tb.Helper()
	st, err := core.Open(c, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return st, oo7.NewQS(st, false)
}

func runT1(tb testing.TB, db oo7.DB) {
	tb.Helper()
	n, err := oo7.T1(db)
	if err != nil {
		tb.Fatal(err)
	}
	p := oo7.Small()
	if want := p.NumBaseAssemblies() * p.NumCompPerAssm * p.NumAtomicPerComp; n != want {
		tb.Fatalf("T1 visited %d parts, want %d", n, want)
	}
}

// assertHotDerefAllocFree maps the module object and checks that reading a
// reference and a scalar field of it allocates nothing.
func assertHotDerefAllocFree(tb testing.TB) (db oo7.DB, module oo7.Ref) {
	tb.Helper()
	_, db = qsSession(tb, 0)
	if err := db.Begin(); err != nil {
		tb.Fatal(err)
	}
	module = db.Root("module")
	if db.GetRef(module, oo7.TModule, oo7.ModRoot) == oo7.NilRef || db.Err() != nil {
		tb.Fatalf("module has no design root (err %v)", db.Err())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sinkRef = db.GetRef(module, oo7.TModule, oo7.ModRoot)
		sinkI32 = db.GetI32(module, oo7.TModule, oo7.ModManSize)
	})
	if allocs != 0 || db.Err() != nil {
		tb.Fatalf("mapped GetRef+GetI32: %v allocs/op (err %v), want 0", allocs, db.Err())
	}
	return db, module
}

var (
	sinkRef oo7.Ref
	sinkI32 int32
)

// assertHotT1Allocs warms a session that holds the whole database and
// checks a hot T1 against its budget.
func assertHotT1Allocs(tb testing.TB) oo7.DB {
	tb.Helper()
	_, db := qsSession(tb, 0)
	runT1(tb, db)
	allocs := testing.AllocsPerRun(3, func() { runT1(tb, db) })
	tb.Logf("hot T1: %v allocs/op", allocs)
	if allocs > maxHotT1Allocs {
		tb.Fatalf("hot T1: %v allocs/op, budget %d", allocs, maxHotT1Allocs)
	}
	return db
}

// assertPagingT1Allocs runs T1 on a 128-page client pool (a 722-page
// database: steady-state replacement) against its per-fault budget.
func assertPagingT1Allocs(tb testing.TB) oo7.DB {
	tb.Helper()
	st, db := qsSession(tb, 128)
	checkPagingAllocs(tb, st, db, maxAllocsPerFault)
	return db
}

// checkPagingAllocs warms a session on a 128-page client pool with one T1
// and checks what each fault of the next ones allocates against budget.
func checkPagingAllocs(tb testing.TB, st *core.Store, db oo7.DB, budget float64) {
	tb.Helper()
	runT1(tb, db)
	faults := st.Space().Faults()
	allocs := testing.AllocsPerRun(2, func() { runT1(tb, db) })
	perOp := float64(st.Space().Faults()-faults) / 3 // AllocsPerRun warms up once more
	if perOp < 500 {
		tb.Fatalf("T1 on a 128-page pool took only %.0f faults; the pool is not paging", perOp)
	}
	tb.Logf("paging T1: %v allocs/op over %.0f faults (%.2f per fault)", allocs, perOp, allocs/perOp)
	if allocs/perOp > budget {
		tb.Fatalf("paging T1: %v allocs/op over %.0f faults (%.1f per fault), budget %v per fault",
			allocs, perOp, allocs/perOp, budget)
	}
}

func TestHotDerefAllocFree(t *testing.T) { assertHotDerefAllocFree(t) }
func TestHotT1Allocs(t *testing.T)       { assertHotT1Allocs(t) }
func TestPagingT1Allocs(t *testing.T)    { assertPagingT1Allocs(t) }

// TestPagingT1AllocsOverMux is TestPagingT1Allocs over the real transport:
// the shared database's server behind esm.Serve on a loopback socket and the
// session over esm.DialTCP, so every fault's round trip is counted on both
// ends — request, mux framing and demux, serve worker, server read and its
// pooled answer.
func TestPagingT1AllocsOverMux(t *testing.T) {
	sharedEnv(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go esm.Serve(l, hotEnv.Srv)
	tr, err := esm.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	st, db := openSession(t, esm.NewClient(tr, esm.ClientConfig{BufferPages: 128}))
	checkPagingAllocs(t, st, db, maxAllocsPerMuxFault)
}

// TestColdFaultAllocs bounds what one cold fault allocates end to end, over
// the in-process transport: client and server caches are both empty, so
// every page T1 touches takes the whole path — trap, mapping object, server
// pool load, versioned read (most of them in a read-ahead batch) — exactly
// once.
func TestColdFaultAllocs(t *testing.T) {
	checkColdFaultAllocs(t, 1, func() (*core.Store, oo7.DB) { return qsSession(t, 0) })
}

// TestColdFaultAllocsOverMux is TestColdFaultAllocs over the real transport,
// three times, each on a fresh session of its own over esm.DialTCP: every
// cold T1 starts from an empty descriptor table as well as empty caches.
// What is counted spans both ends of the socket, as in
// TestPagingT1AllocsOverMux; dialing and opening a session are not.
func TestColdFaultAllocsOverMux(t *testing.T) {
	sharedEnv(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go esm.Serve(l, hotEnv.Srv)
	checkColdFaultAllocs(t, 3, func() (*core.Store, oo7.DB) {
		tr, err := esm.DialTCP(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return openSession(t, esm.NewClient(tr, esm.ClientConfig{}))
	})
}

// checkColdFaultAllocs runs one T1 on each of runs fresh sessions that open
// returns, emptying the server's cache before each, and checks what the T1s
// allocate per fault together against maxAllocsPerColdFault.
func checkColdFaultAllocs(t *testing.T, runs int, open func() (*core.Store, oo7.DB)) {
	t.Helper()
	var allocs, faults uint64
	for i := 0; i < runs; i++ {
		st, db := open()
		if err := hotEnv.Srv.DropCaches(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runT1(t, db)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		faults += uint64(st.Space().Faults())
	}
	perFault := float64(allocs) / float64(faults)
	t.Logf("cold T1 x%d: %d faults, %d allocations, %.2f per fault", runs, faults, allocs, perFault)
	if faults < 400*uint64(runs) || perFault > maxAllocsPerColdFault {
		t.Fatalf("cold T1: %.2f allocs per fault over %d faults, budget %v", perFault, faults, maxAllocsPerColdFault)
	}
}

// TestColdSessionAllocs counts what a fresh session allocates from its
// opening (esm.NewClient, core.Open) through its first T1, run cold: a
// table the session sizes when it opens instead of growing it on the fault
// path is counted here either way, so a cut in TestColdFaultAllocs that only
// moved allocations into the opening shows up as none.
func TestColdSessionAllocs(t *testing.T) {
	sharedEnv(t)
	const runs = 3
	var allocs uint64
	for i := 0; i < runs; i++ {
		if err := hotEnv.Srv.DropCaches(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, db := qsSession(t, 0)
		runT1(t, db)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	perSession := float64(allocs) / runs
	t.Logf("session open + cold T1: %.0f allocations", perSession)
	if perSession > maxColdSessionAllocs {
		t.Fatalf("session open + cold T1: %.0f allocations, budget %v", perSession, maxColdSessionAllocs)
	}
}

// BenchmarkHotDeref measures one mapped dereference plus one mapped scalar
// read through the benchmark driver (two persistent accesses per op).
func BenchmarkHotDeref(b *testing.B) {
	db, module := assertHotDerefAllocFree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRef = db.GetRef(module, oo7.TModule, oo7.ModRoot)
		sinkI32 = db.GetI32(module, oo7.TModule, oo7.ModManSize)
	}
}

// BenchmarkT1Hot measures a hot T1 on the small database: 402,407 mapped
// accesses and one Begin/Commit per op.
func BenchmarkT1Hot(b *testing.B) {
	db := assertHotT1Allocs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runT1(b, db)
	}
}

// BenchmarkT1Paging128 measures T1 in steady-state replacement.
func BenchmarkT1Paging128(b *testing.B) {
	db := assertPagingT1Allocs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runT1(b, db)
	}
}
