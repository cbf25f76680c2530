// Package harness builds OO7 databases for each system under test and runs
// the paper's experiments, producing the rows of every table and figure in
// the evaluation section (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results).
package harness

import (
	"fmt"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/epvm"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// System identifies one of the paper's systems.
type System int

// Systems under test.
const (
	SysQS System = iota
	SysE
	SysQSB
)

// String names the system as in the paper.
func (s System) String() string { return [...]string{"QS", "E", "QS-B"}[s] }

// AllSystems lists the three systems of the main experiments.
var AllSystems = []System{SysQS, SysE, SysQSB}

// SessionOpts tunes one benchmark session (one simulated client process).
type SessionOpts struct {
	BufferPages int // client pool; 0 = the paper's 1536 (12MB)
	// QuickStore relocation experiment knobs (Figure 17).
	Relocation       core.RelocationMode
	RelocateFraction float64
	RelocSeed        int64
	// Ablation knobs (DESIGN.md §7).
	TraditionalClock   bool
	WholeObjectLogging bool
	// ReadAhead leaves QuickStore's mapping-object read-ahead on, as every
	// session outside this harness has it. The zero value asks for demand
	// paging, the 1994 protocol the paper tables price.
	ReadAhead bool
}

// Env is one generated OO7 database for one system: a server over an
// in-memory volume plus the generation parameters.
type Env struct {
	Sys    System
	Params oo7.Params
	Clock  *sim.Clock
	Srv    *esm.Server
}

// Build generates the OO7 database for sys with params p (bulk-load mode)
// and checkpoints it.
func Build(sys System, p oo7.Params) (*Env, error) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		esm.ServerConfig{Clock: clock})
	if err != nil {
		return nil, err
	}
	e := &Env{Sys: sys, Params: p, Clock: clock, Srv: srv}
	gen, err := e.open(SessionOpts{BufferPages: esm.DefaultClientBufferPages}, true)
	if err != nil {
		return nil, err
	}
	if err := oo7.Generate(gen, p); err != nil {
		return nil, fmt.Errorf("harness: generate %v: %w", sys, err)
	}
	if err := srv.Checkpoint(); err != nil {
		return nil, err
	}
	return e, nil
}

// open starts a fresh client session against the environment's server.
func (e *Env) open(opts SessionOpts, bulk bool) (oo7.DB, error) {
	if opts.BufferPages == 0 {
		opts.BufferPages = esm.DefaultClientBufferPages
	}
	c := esm.NewClient(esm.NewInProcTransport(e.Srv),
		esm.ClientConfig{BufferPages: opts.BufferPages, Clock: e.Clock})
	switch e.Sys {
	case SysQS, SysQSB:
		cfg := core.Config{
			BulkLoad:           bulk,
			Relocation:         opts.Relocation,
			RelocateFraction:   opts.RelocateFraction,
			RelocSeed:          opts.RelocSeed,
			TraditionalClock:   opts.TraditionalClock,
			WholeObjectLogging: opts.WholeObjectLogging,
			DemandPaging:       !opts.ReadAhead,
		}
		var s *core.Store
		var err error
		if bulk {
			s, err = core.New(c, cfg)
		} else {
			s, err = core.Open(c, cfg)
		}
		if err != nil {
			return nil, err
		}
		return oo7.NewQS(s, e.Sys == SysQSB), nil
	default:
		var s *epvm.Store
		var err error
		if bulk {
			s, err = epvm.New(c, epvm.Config{BulkLoad: true})
		} else {
			s, err = epvm.Open(c, epvm.Config{})
		}
		if err != nil {
			return nil, err
		}
		return oo7.NewE(s), nil
	}
}

// Session opens a fresh benchmark session (runtime mode, full logging).
func (e *Env) Session(opts SessionOpts) (oo7.DB, error) {
	return e.open(opts, false)
}

// Cold drops the server caches so the next session's reads hit the disk.
func (e *Env) Cold() error { return e.Srv.DropCaches() }

// SizeMB reports the database size in megabytes (allocated volume pages).
func (e *Env) SizeMB() float64 {
	return float64(e.Srv.Volume().AllocatedPages()) * disk.PageSize / (1 << 20)
}

// Op is one benchmark operation bound to its parameters.
type Op struct {
	Name string
	Fn   func(oo7.DB) (int, error)
}

// Ops builds the standard operation list for parameters p. Seeds are fixed
// so every system runs the identical access pattern.
func Ops(p oo7.Params) map[string]Op {
	m := map[string]Op{
		"T1":  {Name: "T1", Fn: oo7.T1},
		"T6":  {Name: "T6", Fn: oo7.T6},
		"T7":  {Name: "T7", Fn: func(db oo7.DB) (int, error) { return oo7.T7(db, p, 101) }},
		"T8":  {Name: "T8", Fn: oo7.T8},
		"T9":  {Name: "T9", Fn: oo7.T9},
		"T2A": {Name: "T2A", Fn: func(db oo7.DB) (int, error) { return oo7.T2(db, oo7.VariantA) }},
		"T2B": {Name: "T2B", Fn: func(db oo7.DB) (int, error) { return oo7.T2(db, oo7.VariantB) }},
		"T2C": {Name: "T2C", Fn: func(db oo7.DB) (int, error) { return oo7.T2(db, oo7.VariantC) }},
		"T3A": {Name: "T3A", Fn: func(db oo7.DB) (int, error) { return oo7.T3(db, oo7.VariantA) }},
		"T3B": {Name: "T3B", Fn: func(db oo7.DB) (int, error) { return oo7.T3(db, oo7.VariantB) }},
		"T3C": {Name: "T3C", Fn: func(db oo7.DB) (int, error) { return oo7.T3(db, oo7.VariantC) }},
		"Q1":  {Name: "Q1", Fn: func(db oo7.DB) (int, error) { return oo7.Q1(db, p, 103) }},
		"Q2":  {Name: "Q2", Fn: func(db oo7.DB) (int, error) { return oo7.Q2(db, p) }},
		"Q3":  {Name: "Q3", Fn: func(db oo7.DB) (int, error) { return oo7.Q3(db, p) }},
		"Q4":  {Name: "Q4", Fn: func(db oo7.DB) (int, error) { return oo7.Q4(db, p, 107) }},
		"Q5":  {Name: "Q5", Fn: oo7.Q5},
	}
	return m
}

// Measurement captures one operation run (cold and hot) on one system.
type Measurement struct {
	System    string
	Op        string
	Result    int
	ColdMs    float64
	HotMs     float64
	ColdDelta sim.Snapshot
	HotDelta  sim.Snapshot
}

// ColdIOs returns the client page-read count of the cold run (the paper's
// "client I/O requests").
func (m Measurement) ColdIOs() int64 { return m.ColdDelta.Count(sim.CtrClientRead) }

// RunColdHot opens a fresh session against a cold server, runs op once cold
// and once hot, and returns the measurement. Update operations leave the
// database modified, exactly as in the paper, where T2/T3 ran as committed
// transactions.
func (e *Env) RunColdHot(op Op, opts SessionOpts) (Measurement, error) {
	if err := e.Cold(); err != nil {
		return Measurement{}, err
	}
	db, err := e.Session(opts)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{System: e.Sys.String(), Op: op.Name}

	before := e.Clock.Snapshot()
	n, err := op.Fn(db)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s %s cold: %w", e.Sys, op.Name, err)
	}
	afterCold := e.Clock.Snapshot()
	m.Result = n
	m.ColdDelta = afterCold.Sub(before)
	m.ColdMs = m.ColdDelta.ElapsedMicros() / 1000

	if _, err := op.Fn(db); err != nil {
		return Measurement{}, fmt.Errorf("%s %s hot: %w", e.Sys, op.Name, err)
	}
	m.HotDelta = e.Clock.Snapshot().Sub(afterCold)
	m.HotMs = m.HotDelta.ElapsedMicros() / 1000
	return m, nil
}
