package harness

import (
	"fmt"
	"io"
	"sort"

	"quickstore/internal/core"
	"quickstore/internal/oo7"
	"quickstore/internal/sim"
)

// ExperimentNames lists every reproducible table and figure in the paper's
// evaluation, in presentation order.
var ExperimentNames = []string{
	"table2",    // database sizes
	"fig8",      // small cold traversals (+ Table 3 I/Os)
	"fig9",      // small cold queries (+ Table 4 I/Os)
	"table5",    // average faulting cost
	"table6",    // detailed QS faulting breakdown
	"fig10",     // small update traversals, response times
	"fig11",     // small update traversals, commit breakdown
	"fig12",     // small hot traversals
	"fig13",     // small hot queries
	"table7",    // T1 hot CPU profile
	"fig14",     // medium cold traversals (+ Table 8 I/Os)
	"fig15",     // medium cold queries (+ Table 9 I/Os)
	"fig16",     // medium update traversals
	"fig17",     // relocation sweep (QS-CR vs QS-OR)
	"ablations", // design-choice ablations (clock policy, diff logging)
	"extras",    // the OO7 operations the paper omitted (Q6-Q8, insert/delete)
}

// Verify ("-exp verify") is intentionally not part of "all": its assertions
// hold at full benchmark scale (oo7.Small and up), not at the reduced test
// configurations the suite also supports. Likewise "prefetch" is not part of
// "all": it compares demand paging with mapping-object read-ahead, which is
// beyond the paper, so keeping it out preserves byte-identical "-exp all"
// output against the paper baseline.

// Suite runs experiments, caching generated databases and measurements that
// several tables share.
type Suite struct {
	Out       io.Writer
	Small     oo7.Params
	Medium    oo7.Params
	RunMedium bool

	smallEnvs  map[System]*Env
	mediumEnvs map[System]*Env
	smallRO    map[string]map[System]Measurement // op -> sys -> measurement
	mediumRO   map[string]map[System]Measurement
	smallUpd   map[string]map[System]Measurement
	mediumUpd  map[string]map[System]Measurement

	tables []Table // every table emitted since the last TakeTables
}

// NewSuite builds a suite writing reports to w. When medium is false the
// medium-database experiments print a skip notice instead of running.
func NewSuite(w io.Writer, medium bool) *Suite {
	return &Suite{
		Out:       w,
		Small:     oo7.Small(),
		Medium:    oo7.Medium(),
		RunMedium: medium,
	}
}

func (s *Suite) logf(format string, args ...any) {
	fmt.Fprintf(s.Out, format+"\n", args...)
}

// emit prints a finished table and records it for structured consumers
// (cmd/oo7bench -json).
func (s *Suite) emit(t Table) {
	s.logf("%s", t.String())
	s.tables = append(s.tables, t)
}

// TakeTables drains the tables emitted since the previous call. Callers use
// it to attribute tables to the experiment that just ran.
func (s *Suite) TakeTables() []Table {
	out := s.tables
	s.tables = nil
	return out
}

func (s *Suite) envs(medium bool) (map[System]*Env, error) {
	cache := &s.smallEnvs
	p := s.Small
	label := "small"
	if medium {
		cache = &s.mediumEnvs
		p = s.Medium
		label = "medium"
	}
	if *cache != nil {
		return *cache, nil
	}
	m := map[System]*Env{}
	for _, sys := range AllSystems {
		s.logf("# generating %s OO7 database for %v ...", label, sys)
		e, err := Build(sys, p)
		if err != nil {
			return nil, err
		}
		m[sys] = e
	}
	*cache = m
	return m, nil
}

// readOnly returns (building if needed) the cold+hot measurements of the
// read-only operations on every system.
func (s *Suite) readOnly(medium bool) (map[string]map[System]Measurement, error) {
	cache := &s.smallRO
	if medium {
		cache = &s.mediumRO
	}
	if *cache != nil {
		return *cache, nil
	}
	envs, err := s.envs(medium)
	if err != nil {
		return nil, err
	}
	p := s.Small
	if medium {
		p = s.Medium
	}
	ops := Ops(p)
	names := []string{"T1", "T6", "T7", "T8", "T9", "Q1", "Q2", "Q3", "Q4", "Q5"}
	out := map[string]map[System]Measurement{}
	for _, name := range names {
		out[name] = map[System]Measurement{}
		for _, sys := range AllSystems {
			m, err := envs[sys].RunColdHot(ops[name], SessionOpts{})
			if err != nil {
				return nil, err
			}
			out[name][sys] = m
		}
		// Cross-system agreement is a correctness gate, not just a report.
		if out[name][SysQS].Result != out[name][SysE].Result ||
			out[name][SysQS].Result != out[name][SysQSB].Result {
			return nil, fmt.Errorf("harness: %s results disagree: QS=%d E=%d QS-B=%d",
				name, out[name][SysQS].Result, out[name][SysE].Result, out[name][SysQSB].Result)
		}
	}
	*cache = out
	return out, nil
}

// Run executes the named experiments ("all" expands to every one).
func (s *Suite) Run(names []string) error {
	if len(names) == 1 && names[0] == "all" {
		names = ExperimentNames
	}
	for _, name := range names {
		fn, ok := s.dispatch()[name]
		if !ok {
			return fmt.Errorf("harness: unknown experiment %q (have %v)", name, ExperimentNames)
		}
		if err := fn(); err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
	}
	return nil
}

func (s *Suite) dispatch() map[string]func() error {
	return map[string]func() error{
		"table2": s.Table2,
		"fig8": func() error {
			return s.coldOps(false, []string{"T1", "T6", "T7", "T8", "T9"}, "Figure 8 / Table 3: OO7 traversal cold times, small database")
		},
		"fig9": func() error {
			return s.coldOps(false, []string{"Q1", "Q2", "Q3", "Q4", "Q5"}, "Figure 9 / Table 4: OO7 query cold times, small database")
		},
		"table5": s.Table5,
		"table6": s.Table6,
		"fig10":  func() error { return s.updates(false) },
		"fig11":  s.commitBreakdown,
		"fig12": func() error {
			return s.hotOps(false, []string{"T1", "T6", "T7", "T8", "T9"}, "Figure 12: traversal hot times, small database")
		},
		"fig13": func() error {
			return s.hotOps(false, []string{"Q1", "Q2", "Q3", "Q4", "Q5"}, "Figure 13: query hot times, small database")
		},
		"table7": s.Table7,
		"fig14": func() error {
			return s.mediumGate(func() error {
				return s.coldOps(true, []string{"T1", "T6", "T7", "T8", "T9"}, "Figure 14 / Table 8: traversal cold times, medium database")
			})
		},
		"fig15": func() error {
			return s.mediumGate(func() error {
				return s.coldOps(true, []string{"Q1", "Q2", "Q3", "Q4", "Q5"}, "Figure 15 / Table 9: query cold times, medium database")
			})
		},
		"fig16":     func() error { return s.mediumGate(func() error { return s.updates(true) }) },
		"fig17":     s.Fig17,
		"ablations": s.Ablations,
		"extras":    s.Extras,
		"verify":    s.Verify,
		"prefetch":  s.PrefetchExp,
	}
}

func (s *Suite) mediumGate(fn func() error) error {
	if !s.RunMedium {
		s.logf("# medium-database experiment skipped (enable with -medium)")
		return nil
	}
	return fn()
}

// Table2 reports the database sizes.
func (s *Suite) Table2() error {
	t := Table{
		Title:   "Table 2: Database sizes (megabytes)",
		Columns: []string{"system", "small"},
	}
	if s.RunMedium {
		t.Columns = append(t.Columns, "medium")
	}
	small, err := s.envs(false)
	if err != nil {
		return err
	}
	var medium map[System]*Env
	if s.RunMedium {
		if medium, err = s.envs(true); err != nil {
			return err
		}
	}
	for _, sys := range []System{SysQS, SysE, SysQSB} {
		row := []string{sys.String(), mb(small[sys].SizeMB())}
		if s.RunMedium {
			row = append(row, mb(medium[sys].SizeMB()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("QS/E small size ratio = %.2f (paper: 0.63)",
			ratio(small[SysQS].SizeMB(), small[SysE].SizeMB())))
	s.emit(t)
	return nil
}

// coldOps prints cold response times and client I/Os for a set of ops.
func (s *Suite) coldOps(medium bool, names []string, title string) error {
	ro, err := s.readOnly(medium)
	if err != nil {
		return err
	}
	t := Table{Title: title,
		Columns: []string{"op", "QS ms", "E ms", "QS-B ms", "QS IOs", "E IOs", "QS-B IOs", "result"}}
	for _, name := range names {
		m := ro[name]
		t.AddRow(name,
			ms(m[SysQS].ColdMs), ms(m[SysE].ColdMs), ms(m[SysQSB].ColdMs),
			d(m[SysQS].ColdIOs()), d(m[SysE].ColdIOs()), d(m[SysQSB].ColdIOs()),
			d(int64(m[SysQS].Result)))
	}
	s.emit(t)
	return nil
}

// hotOps prints hot response times.
func (s *Suite) hotOps(medium bool, names []string, title string) error {
	ro, err := s.readOnly(medium)
	if err != nil {
		return err
	}
	t := Table{Title: title, Columns: []string{"op", "QS ms", "E ms", "QS-B ms", "E/QS"}}
	for _, name := range names {
		m := ro[name]
		r := "-"
		if m[SysQS].HotMs >= 0.1 {
			r = fmt.Sprintf("%.1fx", ratio(m[SysE].HotMs, m[SysQS].HotMs))
		}
		t.AddRow(name, f1(m[SysQS].HotMs), f1(m[SysE].HotMs), f1(m[SysQSB].HotMs), r)
	}
	s.emit(t)
	return nil
}

// Table5 reports the average cost per fault, computed the paper's way:
// (cold time - hot time) / faults.
func (s *Suite) Table5() error {
	ro, err := s.readOnly(false)
	if err != nil {
		return err
	}
	t := Table{Title: "Table 5: Average faulting cost (ms per fault)",
		Columns: []string{"system", "T1", "T6"}}
	for _, sys := range []System{SysQS, SysE, SysQSB} {
		row := []string{sys.String()}
		for _, op := range []string{"T1", "T6"} {
			m := ro[op][sys]
			faults := m.ColdDelta.Count(sim.CtrPageFaultTrap)
			if sys == SysE {
				faults = m.ColdDelta.Count(sim.CtrClientRead)
			}
			if faults == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", (m.ColdMs-m.HotMs)/float64(faults)))
		}
		t.AddRow(row...)
	}
	s.emit(t)
	return nil
}

// Table6 decomposes QuickStore's average fault time for T1 and T6.
func (s *Suite) Table6() error {
	ro, err := s.readOnly(false)
	if err != nil {
		return err
	}
	t := Table{Title: "Table 6: Detailed QS faulting times (ms per fault)",
		Columns: []string{"component", "T1", "T6"}}
	type comp struct {
		name string
		get  func(dl sim.Snapshot) float64
	}
	comps := []comp{
		{"min faults", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrMinFault) }},
		{"page fault", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrPageFaultTrap) }},
		{"misc. cpu overhead", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrMiscFaultCPU) }},
		{"data I/O", func(dl sim.Snapshot) float64 { d, _, _ := ioTimeSplit(dl); return d }},
		{"map I/O", func(dl sim.Snapshot) float64 { _, m, bm := ioTimeSplit(dl); return m + bm }},
		{"swizzling", func(dl sim.Snapshot) float64 {
			return dl.Micros(sim.CtrMapEntry) + dl.Micros(sim.CtrSwizzledPtr)
		}},
		{"mmap", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrMmapCall) }},
	}
	faults := map[string]float64{}
	for _, op := range []string{"T1", "T6"} {
		faults[op] = float64(ro[op][SysQS].ColdDelta.Count(sim.CtrPageFaultTrap))
	}
	totals := map[string]float64{}
	for _, c := range comps {
		row := []string{c.name}
		for _, op := range []string{"T1", "T6"} {
			dl := ro[op][SysQS].ColdDelta
			v := c.get(dl) / 1000 / faults[op]
			totals[op] += v
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.AddRow(row...)
	}
	t.AddRow("total", fmt.Sprintf("%.2f", totals["T1"]), fmt.Sprintf("%.2f", totals["T6"]))
	s.emit(t)
	return nil
}

// updateMeasurements runs (and caches) the T2/T3 traversals on every system.
func (s *Suite) updateMeasurements(medium bool) (map[string]map[System]Measurement, error) {
	cache := &s.smallUpd
	p := s.Small
	if medium {
		cache = &s.mediumUpd
		p = s.Medium
	}
	if *cache != nil {
		return *cache, nil
	}
	envs, err := s.envs(medium)
	if err != nil {
		return nil, err
	}
	ops := Ops(p)
	out := map[string]map[System]Measurement{}
	for _, name := range []string{"T2A", "T2B", "T2C", "T3A", "T3B", "T3C"} {
		out[name] = map[System]Measurement{}
		for _, sys := range AllSystems {
			m, err := envs[sys].RunColdHot(ops[name], SessionOpts{})
			if err != nil {
				return nil, err
			}
			out[name][sys] = m
		}
		if out[name][SysQS].Result != out[name][SysE].Result ||
			out[name][SysQS].Result != out[name][SysQSB].Result {
			return nil, fmt.Errorf("harness: %s update counts disagree: QS=%d E=%d QS-B=%d",
				name, out[name][SysQS].Result, out[name][SysE].Result, out[name][SysQSB].Result)
		}
	}
	*cache = out
	return out, nil
}

// updates prints Figure 10 (small) or 16 (medium): update-traversal
// response times.
func (s *Suite) updates(medium bool) error {
	upd, err := s.updateMeasurements(medium)
	if err != nil {
		return err
	}
	title := "Figure 10: T2 and T3 response times, small database"
	if medium {
		title = "Figure 16: T2 and T3 response times, medium database"
	}
	resp := Table{Title: title,
		Columns: []string{"op", "QS s", "E s", "QS-B s", "updates"}}
	for _, name := range []string{"T2A", "T2B", "T2C", "T3A", "T3B", "T3C"} {
		m := upd[name]
		resp.AddRow(name, sec(m[SysQS].ColdMs), sec(m[SysE].ColdMs), sec(m[SysQSB].ColdMs),
			d(int64(m[SysQS].Result)))
	}
	s.emit(resp)
	return nil
}

// commitBreakdown prints Figure 11: the commit-phase decomposition of the
// small update traversals.
func (s *Suite) commitBreakdown() error {
	upd, err := s.updateMeasurements(false)
	if err != nil {
		return err
	}
	commit := Table{Title: "Figure 11: commit-time breakdown, small database (seconds)",
		Columns: []string{"op", "sys", "diff", "log", "map", "flush"}}
	for _, name := range []string{"T2A", "T2B", "T2C", "T3A", "T3B", "T3C"} {
		for _, sys := range AllSystems {
			m := upd[name][sys]
			diff, logGen, mapUpd, flush := commitPhaseMs(m.ColdDelta)
			commit.AddRow(name, sys.String(), sec(diff), sec(logGen), sec(mapUpd), sec(flush))
		}
	}
	s.emit(commit)
	return nil
}

// Table7 decomposes the hot T1 CPU time into the paper's buckets.
func (s *Suite) Table7() error {
	ro, err := s.readOnly(false)
	if err != nil {
		return err
	}
	t := Table{Title: "Table 7: T1 hot traversal CPU profile (percent of time)",
		Columns: []string{"bucket", "QS", "E"}}
	type bucket struct {
		name string
		get  func(dl sim.Snapshot) float64
	}
	buckets := []bucket{
		{"EPVM 3.0", func(dl sim.Snapshot) float64 {
			return dl.Micros(sim.CtrInterpCall) + dl.Micros(sim.CtrResidencyCheck) + dl.Micros(sim.CtrBigPtrDeref)
		}},
		{"malloc (iterators)", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrIterAlloc) }},
		{"part set", func(dl sim.Snapshot) float64 { return dl.Micros(sim.CtrPartSetOp) }},
		{"traverse", func(dl sim.Snapshot) float64 {
			return dl.Micros(sim.CtrDeref) + dl.Micros(sim.CtrFieldRead) + dl.Micros(sim.CtrFieldWrite)
		}},
	}
	for _, b := range buckets {
		row := []string{b.name}
		for _, sys := range []System{SysQS, SysE} {
			dl := ro["T1"][sys].HotDelta
			total := dl.ElapsedMicros()
			row = append(row, pct(ratio(b.get(dl), total)))
		}
		t.AddRow(row...)
	}
	s.emit(t)
	return nil
}

// Fig17 sweeps the relocation percentage for QS-CR and QS-OR on a freshly
// built small database per mode.
func (s *Suite) Fig17() error {
	fractions := []float64{0, 0.05, 0.20, 0.50, 1.00}
	t := Table{Title: "Figure 17: T1 cold time vs % of relocated pages, small database",
		Columns: []string{"relocated", "QS-CR s", "QS-OR s", "CR swizzled", "OR swizzled"}}
	ops := Ops(s.Small)
	for _, frac := range fractions {
		row := []string{pct(frac)}
		swizzled := map[core.RelocationMode]int64{}
		for _, mode := range []core.RelocationMode{core.RelocCR, core.RelocOR} {
			// Fresh database per point: OR commits mapping changes, which
			// would contaminate later points.
			env, err := Build(SysQS, s.Small)
			if err != nil {
				return err
			}
			m, err := env.RunColdHot(ops["T1"], SessionOpts{
				Relocation:       mode,
				RelocateFraction: frac,
				RelocSeed:        int64(frac*100) + 1,
			})
			if err != nil {
				return err
			}
			row = append(row, sec(m.ColdMs))
			swizzled[mode] = m.ColdDelta.Count(sim.CtrSwizzledPtr)
		}
		row = append(row, d(swizzled[core.RelocCR]), d(swizzled[core.RelocOR]))
		t.AddRow(row...)
	}
	s.emit(t)
	return nil
}

// SortedOpNames is a helper for stable iteration in reports and tests.
func SortedOpNames(m map[string]Op) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ablations runs the design-choice ablations DESIGN.md §7 calls out:
// the simplified clock vs the traditional reference-bit clock under buffer
// pressure, and page diffing vs whole-page logging on a sparse update
// traversal.
func (s *Suite) Ablations() error {
	p := s.Small

	// Ablation 1: buffer replacement policy under paging. A small client
	// pool forces replacement during T1; the simplified clock prefers
	// access-disabled frames, while the traditional clock cannot see raw
	// pointer dereferences at all.
	clockT := Table{Title: "Ablation: simplified clock vs traditional clock (QS, T1, 256-frame client pool)",
		Columns: []string{"policy", "cold s", "hot s", "client reads (hot)"}}
	ops := Ops(p)
	for _, traditional := range []bool{false, true} {
		env, err := Build(SysQS, p)
		if err != nil {
			return err
		}
		m, err := env.RunColdHot(ops["T1"], SessionOpts{
			BufferPages:      256,
			TraditionalClock: traditional,
		})
		if err != nil {
			return err
		}
		name := "simplified (QS)"
		if traditional {
			name = "traditional"
		}
		clockT.AddRow(name, sec(m.ColdMs), sec(m.HotMs), d(m.HotDelta.Count(sim.CtrClientRead)))
	}
	s.emit(clockT)

	// Ablation 2: log generation. Diffing emits minimal records; the
	// whole-page alternative (the Hoski93b-style comparison) logs every
	// modified page in full.
	logT := Table{Title: "Ablation: page diffing vs whole-page logging (QS, T2A)",
		Columns: []string{"scheme", "response s", "log records", "log KB"}}
	for _, whole := range []bool{false, true} {
		env, err := Build(SysQS, p)
		if err != nil {
			return err
		}
		m, err := env.RunColdHot(ops["T2A"], SessionOpts{WholeObjectLogging: whole})
		if err != nil {
			return err
		}
		name := "diffing (QS)"
		if whole {
			name = "whole page"
		}
		logT.AddRow(name, sec(m.ColdMs),
			d(m.ColdDelta.Count(sim.CtrLogRecord)),
			d(m.ColdDelta.Count(sim.CtrLogByte)/1024))
	}
	s.emit(logT)
	return nil
}

// Extras measures the OO7 operations the paper's study omitted: the
// remaining queries and the structural modifications (which exercise object
// deletion). Fresh databases are built because the modifications mutate
// structure.
func (s *Suite) Extras() error {
	t := Table{Title: "Extras (beyond the paper's subset): remaining OO7 operations, small database",
		Columns: []string{"op", "QS ms", "E ms", "QS-B ms", "result"}}
	type opFn struct {
		name string
		fn   func(oo7.DB) (int, error)
	}
	p := s.Small
	ops := []opFn{
		{"Q6", oo7.Q6},
		{"Q7", func(db oo7.DB) (int, error) { return oo7.Q7(db, p) }},
		{"Q8", func(db oo7.DB) (int, error) { return oo7.Q8(db, p, 211) }},
		{"Insert", func(db oo7.DB) (int, error) { return oo7.StructuralInsert(db, p, 5, 223) }},
		{"Delete", func(db oo7.DB) (int, error) { return oo7.StructuralDelete(db) }},
	}
	envs := map[System]*Env{}
	for _, sys := range AllSystems {
		env, err := Build(sys, p)
		if err != nil {
			return err
		}
		envs[sys] = env
	}
	for _, op := range ops {
		row := []string{op.name}
		var result int
		for _, sys := range AllSystems {
			if err := envs[sys].Cold(); err != nil {
				return err
			}
			db, err := envs[sys].Session(SessionOpts{})
			if err != nil {
				return err
			}
			before := envs[sys].Clock.Snapshot()
			n, err := op.fn(db)
			if err != nil {
				return fmt.Errorf("extras %s on %v: %w", op.name, sys, err)
			}
			d := envs[sys].Clock.Snapshot().Sub(before)
			row = append(row, ms(d.ElapsedMicros()/1000))
			result = n
		}
		t.AddRow(append(row, d(int64(result)))...)
	}
	s.emit(t)
	return nil
}
