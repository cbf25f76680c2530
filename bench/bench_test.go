package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"quickstore/internal/oo7"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step. BENCH_WRITE_JSON=1 rewrites the file from the tables instead.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		if err := os.WriteFile(path, wantJSON, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("%s is out of step with the metric and workload tables; run BENCH_WRITE_JSON=1 go test -run TestBenchmarkJSON", path)
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 || len(want.Workloads) > 8 {
		t.Fatalf("over the contract's limits: %d per-layer, %d end-to-end, %d workloads",
			len(want.PerLayer), len(want.EndToEnd), len(want.Workloads))
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// tinyConfig runs the real code on oo7.Tiny with a short window.
func tinyConfig(t *testing.T, workload string, traced bool) runConfig {
	cfg := defaultConfig()
	cfg.workload, cfg.traced = workload, traced
	cfg.seconds = 0.2
	cfg.setups, cfg.setupBudget = 1, 0
	cfg.outDir = t.TempDir()
	cfg.params = oo7.Tiny()
	cfg.pagingClient, cfg.pagingServer = 12, 24
	cfg.probeScale = 0.01
	return cfg
}

// TestSmoke runs every workload untraced and traced, oracle included, and
// checks what must hold on any machine: the run is correct, every declared
// metric is reported, end-to-end metrics are never zero, the single-session
// traces close, and the CPU shares sum to one.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(tinyConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, res.Error)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			// The hot T1 between two cold ones commits too; had it been
			// counted, every op would show two forces.
			if w.name == "t1_cold" && res.Metrics["fsyncs_per_op"] != 1 {
				t.Errorf("t1_cold fsyncs_per_op = %v, want 1: work between ops was counted", res.Metrics["fsyncs_per_op"])
			}

			res, err = execute(tinyConfig(t, w.name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d: %s", res.Correct, res.Failed, res.Error)
			}
			m := res.Metrics
			var cpu float64
			for _, d := range perLayer {
				v, ok := m[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			for _, l := range cpuLayers {
				cpu += m["cpu."+l+"_frac"]
			}
			if math.Abs(cpu-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", cpu)
			}
			if w.sessions == 1 && m["trace.closure_err_frac"] > 0.02 {
				t.Errorf("trace does not close: closure_err_frac = %v", m["trace.closure_err_frac"])
			}
			if m["lock.snap_grants_per_txn"] != 0 {
				t.Errorf("snapshot transactions took %v lock grants each", m["lock.snap_grants_per_txn"])
			}
			cluster := w.name == "cluster_commit"
			if got := m["shard.single_commit_ratio"] > 0 && m["repl.ship_rounds_per_commit"] > 0; got != cluster {
				t.Errorf("shard/repl metrics non-zero = %v, want %v", got, cluster)
			}
			if _, err := os.Stat(res.tracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestOracleCatchesLostUpdate makes the durability check fail on purpose:
// an acknowledged increment the database never received.
func TestOracleCatchesLostUpdate(t *testing.T) {
	cfg := tinyConfig(t, "t2b_update", false)
	def, _ := findWorkload(cfg.workload)
	r := &run{cfg: cfg, def: def}
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.st.close()
	r.w.(*t2bUpdate).acked++
	if err := r.w.finish(r); err == nil {
		t.Fatal("finish accepted a database that is missing an acknowledged update")
	}
}

// TestQuantileIsTheDrivers pins quantile to Python's
// statistics.quantiles(xs, n=4), which the driver judges spreads with.
func TestQuantileIsTheDrivers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25, 0.99: 10, 0.01: 1} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	count := metricDef{Name: "rpcs_per_op", Unit: "count", Better: "lower", Bound: 0.10}
	clk := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur []float64
		want      string
	}{
		{"a count read once is exact", count, []float64{5}, []float64{6}, "worse"},
		{"a count within its bound", count, []float64{500}, []float64{520}, "same"},
		{"a time read once has no spread to be judged by", clk, []float64{0.26}, []float64{0.39}, "unresolved"},
		{"a time read once, within its bound", clk, []float64{0.36}, []float64{0.39}, "same"},
		{"steady sets, moved", clk, []float64{1, 1.02, 1.04}, []float64{1.4, 1.42, 1.44}, "worse"},
		{"noisy sets that overlap", clk, []float64{1, 1.5, 2}, []float64{1.4, 2, 2.6}, "unresolved"},
		{"noisy sets, every new run beyond every base run", clk, []float64{1, 1.5, 2}, []float64{2.1, 3, 4}, "worse"},
		{"higher is better", rate, []float64{100, 101, 102}, []float64{140, 141, 142}, "better"},
	} {
		if got, _ := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAnalyzeSelfTimeAndAdoption(t *testing.T) {
	tr := newTracer()
	add := func(name string, parent uint32, node int16, start, end int64) uint32 {
		id := tr.begin(name, parent, 0, node)
		tr.spans[id-1].Start, tr.spans[id-1].End = start, end
		return id
	}
	op := add("op.t1", 0, -1, 0, 100)
	begin := add("session.begin", op, -1, 0, 10)
	add("wire.begin", begin, -1, 2, 8)
	w := add("wire.read", op, -1, 20, 60)
	add("server.read", w, 0, 25, 55)
	add("disk.read", 0, 0, 30, 40)    // adopted by server.read on node 0
	add("disk.read", 0, 1, 30, 40)    // another node: stays parentless
	add("server.other", 0, 0, 70, 80) // no client call claimed it
	lt := tr.analyze()
	for name, want := range map[string]float64{"op.t1": 50, "session.begin": 4, "wire.read": 10, "server.read": 20} {
		if got := lt.self[name]; got != want {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
	}
	if lt.diskNs != 10 || lt.allCount["disk.read"] != 2 {
		t.Errorf("disk under ops = %v ns (want 10), all disk reads = %d (want 2)", lt.diskNs, lt.allCount["disk.read"])
	}
	if parts := lt.clientSelf + lt.wireSelf + lt.serverSelf + lt.diskNs; parts != lt.opNs {
		t.Errorf("parts sum to %v, op time is %v", parts, lt.opNs)
	}
	if lt.orphans != 1 || lt.serverSpans != 2 {
		t.Errorf("orphans = %d of %d server spans, want 1 of 2", lt.orphans, lt.serverSpans)
	}
}

func TestCPUSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pprof.StopCPUProfile()
	stacks, counts, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var samples int64
	found := false
	for i, st := range stacks {
		samples += counts[i]
		for _, fn := range st {
			if fn == "quickstore/bench.TestCPUSharesFromRealProfile" {
				found = true
			}
		}
	}
	if samples == 0 || !found {
		t.Fatalf("%d samples, spinning function found on a stack: %v (x=%d)", samples, found, x)
	}
	for stack, want := range map[string][]string{
		"core":    {"runtime.memmove", "quickstore/internal/core.(*Store).fault", "quickstore/internal/vmem.(*Space).ReadU64"},
		"runtime": {"runtime.gcBgMarkWorker"},
		"syscall": {"internal/runtime/syscall.Syscall6", "syscall.Syscall"},
		"other":   {"main.main"},
	} {
		if got := layerOf(want); got != stack {
			t.Errorf("layerOf(%v) = %s, want %s", want, got, stack)
		}
	}
}
