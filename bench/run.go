package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"quickstore/internal/oo7"
	"quickstore/internal/shard"
)

// runConfig is one invocation: a workload, the seed every random choice
// derives from, and how long to measure.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string

	// The stack is built at least setups times, and again while the builds
	// so far took less than setupBudget in total (a cluster comes up in a
	// twentieth of a second and needs more samples than a database that
	// takes half a second to generate). setup_s is the median of all builds
	// but the first, which alone pays for a cold heap and cold files.
	setups      int
	setupBudget time.Duration
	// params and the paging pools are Small and 128/256 except in the smoke
	// test, which runs the same code on oo7.Tiny.
	params                     oo7.Params
	pagingClient, pagingServer int
	probeScale                 float64
}

const maxSetups = 15

func defaultConfig() runConfig {
	return runConfig{seed: 1994, seconds: 10, outDir: "bench/out", setups: 5, setupBudget: 3 * time.Second,
		params: oo7.Small(), pagingClient: 128, pagingServer: 256, probeScale: 1}
}

// workload is one closed-loop traffic pattern. The engine below owns timing
// and counting; a workload owns what an operation is and what "correct"
// means for it.
type workload interface {
	// setup builds the database or cluster, checkpoints it, opens the
	// sessions into r.sessions and warms them up.
	setup(r *run) error
	// op runs session s's i-th operation, checks its result, and returns the
	// operation's class.
	op(r *run, s *session, i int) (class string, err error)
	// between returns the untimed work that follows session s's i-th
	// operation (a cache drop, a checkpoint), or nil when there is none.
	between(r *run, s *session, i int) func() error
	// finish is the durability oracle: checkpoint, a fixed tail of
	// acknowledged work, a crash from outside, recovery, and a check that
	// everything acknowledged is there.
	finish(r *run) error
}

type workloadDef struct {
	name     string
	why      string
	sessions int // load-generating sessions, at most two
	make     func() workload
}

var workloads = []workloadDef{
	{"t1_hot", "DB fits both pools: 402k mapped accesses and 5 RPCs per T1, so vmem, core and oo7 do the work and wire, server and disk almost none",
		1, func() workload { return &t1Hot{} }},
	{"t1_cold", "both caches emptied before every T1: the paper's Figure 8 fault path (trap, mapping object, mux, server, latch pool, file read) dominates",
		1, func() workload { return &t1Cold{} }},
	{"t1_paging", "pools of 128/256 pages against a 722-page DB: the same fault path in steady-state replacement, the larger-than-cache case",
		1, func() workload { return &t1Paging{} }},
	{"t2b_update", "T2B's 43,740 updates per op on a DB that fits: write faults, recovery-buffer copies, page diffing, log shipping, WAL append and force",
		1, func() workload { return &t2bUpdate{} }},
	{"mc_mix", "two sessions on one mux connection, MVCC on: locked reads, snapshot reads and owned updates exercise lock, coherence, mvcc and pipelining",
		2, func() workload { return &mcMix{} }},
	{"cluster_commit", "2 shards x 3 replicas over files and loopback: router, quorum shipping and presumed-abort 2PC dominate while vmem and core idle",
		2, func() workload { return &clusterCommit{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sessCounters are the client-side layer counters of one session.
type sessCounters struct {
	accesses, faults      int64
	hits, misses, evicted int64
}

func (s *session) counters() sessCounters {
	if s.store == nil {
		return sessCounters{}
	}
	sp := s.store.Space()
	h, m, e := s.client.Pool().Stats()
	return sessCounters{sp.Accesses(), sp.Faults(), h, m, e}
}

func (a *sessCounters) addDelta(after, before sessCounters) {
	a.accesses += after.accesses - before.accesses
	a.faults += after.faults - before.faults
	a.hits += after.hits - before.hits
	a.misses += after.misses - before.misses
	a.evicted += after.evicted - before.evicted
}

// window is what one measured stretch of closed-loop traffic produced.
type window struct {
	// busy is the window's length without the between-op work that apart
	// could tell from the operations; counts is what was counted in it.
	busy      time.Duration
	counts    counters
	lat       map[string][]float64 // ms by op class
	all       []float64            // ms, every class pooled
	attempted int
	failed    int
	vm        sessCounters
	err       error // first failure
}

// aside is the between-op work of one session that apart kept out of the
// window's numbers.
type aside struct {
	took   time.Duration
	counts counters
}

// apart runs the untimed work between two operations. With one session the
// process-wide counters can tell it from the operations: what it took and
// counted goes to a and the window's per-op numbers leave it out. With two,
// it overlaps the other session's operations and stays in.
func (r *run) apart(a *aside, fn func() error) error {
	if len(r.sessions) > 1 {
		return fn()
	}
	before, err := r.readCounters()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	a.took += time.Since(start)
	after, err := r.readCounters()
	if err != nil {
		return err
	}
	a.counts.add(after.minus(before))
	return nil
}

// run is one invocation's state.
type run struct {
	cfg runConfig
	def workloadDef
	w   workload // made afresh by every setup
	st  *stack
	t   *tracer

	sessions []*session
	routers  []*shard.Router
	next     []int // each session's next op index, kept across windows

	mu    sync.Mutex
	notes map[string][]float64 // side timings in ms: session.open, t1.hot, ...

	heapMB      float64 // HeapInuse after the final checkpoint and a forced GC
	hotAccessNs float64 // ns per mapped access of a hot T1, measured at set-up
}

func (r *run) note(name string, d time.Duration) {
	r.mu.Lock()
	r.notes[name] = append(r.notes[name], float64(d)/1e6)
	r.mu.Unlock()
}

// sessionCtx returns the trace context for a session slot, nil when the run
// is untraced.
func (r *run) sessionCtx(slot int) *sessionCtx {
	if r.t == nil {
		return nil
	}
	return &sessionCtx{t: r.t, slot: slot}
}

// setup builds a fresh stack and times it.
func (r *run) setup() (time.Duration, error) {
	start := time.Now()
	st, err := newStack(r.cfg.outDir, r.cfg.workload, r.t)
	if err != nil {
		return 0, err
	}
	r.st = st
	r.w = r.def.make()
	r.sessions, r.routers = nil, nil
	r.notes = map[string][]float64{}
	if err := r.w.setup(r); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	r.next = make([]int, len(r.sessions))
	return time.Since(start), nil
}

// measure drives every session in a closed loop for d: a session issues its
// next operation only when the previous one has returned.
func (r *run) measure(d time.Duration) (*window, error) {
	win := &window{lat: map[string][]float64{}}
	before, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	type result struct {
		lat       map[string][]float64
		attempted int
		vm        sessCounters
		aside     aside
		err       error
	}
	results := make([]result, len(r.sessions))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for slot := range r.sessions {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			res := &results[slot]
			res.lat = map[string][]float64{}
			for time.Now().Before(deadline) {
				s, i := r.sessions[slot], r.next[slot]
				r.next[slot]++
				c0 := s.counters()
				t0 := time.Now()
				class, err := r.w.op(r, s, i)
				took := time.Since(t0)
				res.vm.addDelta(s.counters(), c0)
				res.attempted++
				if err == nil {
					res.lat[class] = append(res.lat[class], float64(took)/1e6)
					if fn := r.w.between(r, s, i); fn != nil {
						err = r.apart(&res.aside, fn)
					}
				}
				if err != nil {
					// No operation of these workloads may fail; the session's
					// transaction state is unknown after one that did.
					res.err = fmt.Errorf("session %d op %d (%s): %w", slot, i, class, err)
					return
				}
			}
		}(slot)
	}
	wg.Wait()
	win.busy = time.Since(start)
	after, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	win.counts = after.minus(before)
	for _, res := range results {
		win.busy -= res.aside.took
		win.counts = win.counts.minus(res.aside.counts)
		win.attempted += res.attempted
		win.vm.addDelta(res.vm, sessCounters{})
		for class, ms := range res.lat {
			win.lat[class] = append(win.lat[class], ms...)
			win.all = append(win.all, ms...)
		}
		if res.err != nil {
			win.failed++
			if win.err == nil {
				win.err = res.err
			}
		}
	}
	return win, nil
}

// finalCheckpoint opens every workload's finish: a checkpoint through
// session 0 (the last thing traced), then heap_mb. Measuring the heap here
// and not at the end of the window keeps it from depending on where in a
// checkpoint cycle the window happened to stop — the WAL holds its records
// in memory until the log is cut.
func (r *run) finalCheckpoint() error {
	if err := r.sessions[0].checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if r.t != nil {
		r.t.enabled.Store(false)
	}
	// Twice: a sync.Pool (the transports' frame buffers, megabytes after a
	// T2B commit) survives one collection in its victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapInuse) / (1 << 20)
	return nil
}

// result is what one invocation reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings"`

	tracePath string
}

// execute runs one workload once: set-up (several times when untraced, for
// a steady setup_s), the measured window, the oracle, and the metrics.
func execute(cfg runConfig) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, def: def}
	if cfg.traced {
		r.t = newTracer()
		cfg.setups, cfg.setupBudget = 1, 0
	}
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < cfg.setups || spent < cfg.setupBudget); i++ {
		r.st.close()
		// Every build starts, like a fresh process would, without the last
		// one's garbage to collect.
		runtime.GC()
		took, err := r.setup()
		if err != nil {
			r.st.close()
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	defer func() { r.st.close() }()

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Metrics: map[string]float64{}, Timings: map[string]timing{}}
	total := time.Duration(cfg.seconds * float64(time.Second))

	// A traced run spends half its time untraced, for the real-clock numbers
	// and the tracing overhead, and the other half traced and CPU-profiled.
	var plain *window
	var profile bytes.Buffer
	if cfg.traced {
		total /= 2
	}
	win, err := r.measure(total)
	if err != nil {
		return nil, err
	}
	if cfg.traced && win.err == nil {
		plain = win
		r.t.enabled.Store(true)
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		win, err = r.measure(total)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted
	}
	res.Attempted += win.attempted
	res.Failed = win.failed
	ferr := win.err
	if ferr == nil {
		ferr = r.w.finish(r)
		if ferr != nil {
			res.Failed++
		}
	}
	if ferr != nil {
		res.Error = ferr.Error()
		return res, nil
	}
	res.Correct = true

	if cfg.traced {
		if err := r.layerMetrics(res, plain, win, profile.Bytes()); err != nil {
			return nil, err
		}
		res.tracePath = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := r.t.write(res.tracePath); err != nil {
			return nil, err
		}
	} else {
		if len(setups) > 1 {
			setups = setups[1:]
		}
		res.Metrics["setup_s"] = p50(setups)
		r.endToEndMetrics(res, win)
	}
	return res, nil
}

// clockMetrics are the real-clock numbers of one window.
func clockMetrics(win *window) map[string]float64 {
	ops := float64(len(win.all))
	return map[string]float64{
		"op_p50_ms":     p50(win.all),
		"op_p90_ms":     pct(win.all, 0.9),
		"ops_per_s":     ops / win.busy.Seconds(),
		"cpu_ms_per_op": float64(win.counts[cCPUNs]) / 1e6 / ops,
	}
}

func (r *run) endToEndMetrics(res *result, win *window) {
	ops := float64(len(win.all))
	perOp := func(c counter) float64 { return float64(win.counts[c]) / ops }
	m := res.Metrics
	res.Timings["op"] = summarize(win.all)
	for class, ms := range win.lat {
		res.Timings["op."+class] = summarize(ms)
	}
	for name, v := range clockMetrics(win) {
		m[name] = v
	}
	m["rpcs_per_op"] = perOp(cMuxCalls)
	m["wire_kb_per_op"] = (perOp(cMuxBytesOut) + perOp(cNetBytesOut)) / 1024
	m["log_kb_per_op"] = perOp(cLogBytes) / 1024
	m["fsyncs_per_op"] = perOp(cForces)
	m["allocs_per_op"] = perOp(cMallocs)
	m["heap_mb"] = r.heapMB
}

// defs are the metrics the driver expects from this kind of run.
func (res *result) defs() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then (last line) the one
// JSON object the driver reads.
func (res *result) print() {
	w := os.Stdout
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	defs := res.defs()
	if !res.Traced {
		defs = append(append([]metricDef(nil), defs...), clock...)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	names := make([]string, 0, len(res.Timings))
	for n := range res.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := res.Timings[n]
		fmt.Fprintf(w, "  %-36s p50 %.4f ms, p%g %.4f ms, n %d\n", "timing "+n, t.P50, t.TailPct, t.Tail, t.N)
	}
	if res.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", res.Error)
	}
}
