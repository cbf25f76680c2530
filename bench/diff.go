package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The diff subcommand compares benchmark results against the bounds of the
// end-to-end metrics.
//
//	bench diff BASE NEW    compare; exit 1 on a regression or more failed ops
//	bench diff SET         print each end-to-end metric's run-to-run spread
//
// BASE, NEW and SET are each a result.json written by a run of every
// workload, or a directory of them (several sets of the same code); with
// several, medians are compared. One row is printed per workload and metric:
//
//	better / worse   the median moved by more than the metric's bound
//	same             it did not
//	unresolved       the spread between either side's own runs exceeds the
//	                 bound, so a move that size cannot be told from noise —
//	                 unless every NEW run is on one side of every BASE run.
//	                 Also a time that moved by more than its bound when a
//	                 side has one run only: this machine's speed drifts by
//	                 more than that within the hour, and one reading has no
//	                 spread to show it. Times need sets to be judged.
//
// The gated metrics (endToEnd) decide the exit code. The real-clock metrics
// (clock) follow, judged the same way against advisoryBound; they never fail
// the comparison (see README.md for why).

// advisoryBound is what a clock metric is judged against: the widest bound
// the benchmark's contract would allow a gate.
const advisoryBound = 0.25

// side is one set of runs: per workload and metric, the value from each run.
type side struct {
	values map[string]map[string][]float64
	failed int
}

func loadSide(path string) (*side, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	s := &side{values: map[string]map[string][]float64{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var set []result
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range set {
			s.failed += r.Failed
			if r.Traced {
				continue
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v)
			}
		}
	}
	return s, nil
}

// spread is the distance between the quartiles as a share of the median, the
// driver's measure of run-to-run noise; a single run has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(med)
}

// separated reports whether every value of a is strictly below every value
// of b.
func separated(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0]
}

// isTime reports whether d is read off a clock, and so moves with the
// machine's speed, rather than counted.
func isTime(d metricDef) bool { return d.Unit == "s" || d.Unit == "ms" || d.Unit == "1/s" }

// verdict judges one metric: the label and how much worse (positive) or
// better (negative) the new median is, as a share of the base median.
func verdict(d metricDef, base, cur []float64) (string, float64) {
	bm, cm := p50(base), p50(cur)
	if bm == 0 {
		return "unresolved", 0
	}
	worse := (cm - bm) / math.Abs(bm)
	allBetter, allWorse := separated(cur, base), separated(base, cur)
	if d.Better == "higher" {
		worse, allBetter, allWorse = -worse, allWorse, allBetter
	}
	single := isTime(d) && (len(base) < 2 || len(cur) < 2)
	noisy := spread(base) > d.Bound || spread(cur) > d.Bound
	switch {
	case single && math.Abs(worse) > d.Bound:
		return "unresolved", worse
	case single:
		return "same", worse
	// Too noisy for the medians to settle it; only a clean separation does.
	case noisy && allBetter:
		return "better", worse
	case noisy && allWorse && worse > d.Bound:
		return "worse", worse
	case noisy:
		return "unresolved", worse
	case worse > d.Bound:
		return "worse", worse
	case worse < -d.Bound:
		return "better", worse
	}
	return "same", worse
}

// diffMain is the diff subcommand; it returns the exit code.
func diffMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: bench diff BASE [NEW]")
		return 2
	}
	advisory := append([]metricDef(nil), clock...)
	for i := range advisory {
		advisory[i].Bound = advisoryBound
	}
	base, err := loadSide(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench diff:", err)
		return 2
	}

	if len(args) == 1 {
		fmt.Printf("%-16s %-16s %14s %8s %8s %5s\n", "workload", "metric", "median", "spread", "bound", "runs")
		for _, w := range workloads {
			for _, d := range append(append([]metricDef(nil), endToEnd...), advisory...) {
				xs := base.values[w.name][d.Name]
				if len(xs) == 0 {
					continue
				}
				fmt.Printf("%-16s %-16s %14.4f %8.4f %8.2f %5d\n", w.name, d.Name, p50(xs), spread(xs), d.Bound, len(xs))
			}
		}
		return 0
	}

	cur, err := loadSide(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench diff:", err)
		return 2
	}
	regressions := 0
	fmt.Printf("%-16s %-16s %14s %14s %9s %8s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	rows := func(defs []metricDef, gated bool) {
		for _, w := range workloads {
			for _, d := range defs {
				b, c := base.values[w.name][d.Name], cur.values[w.name][d.Name]
				if len(b) == 0 || len(c) == 0 {
					fmt.Printf("%-16s %-16s missing on one side\n", w.name, d.Name)
					if gated {
						regressions++
					}
					continue
				}
				v, worse := verdict(d, b, c)
				if !gated {
					v += " (advisory)"
				} else if v == "worse" {
					regressions++
				}
				fmt.Printf("%-16s %-16s %14.4f %14.4f %+8.1f%% %7.0f%%  %s\n", w.name, d.Name, p50(b), p50(c), 100*worse, 100*d.Bound, v)
			}
		}
	}
	rows(endToEnd, true)
	rows(advisory, false)
	fmt.Printf("failed ops: base %d, new %d\n", base.failed, cur.failed)
	if cur.failed > base.failed {
		fmt.Println("more operations failed than at the base")
		regressions++
	}
	if regressions > 0 {
		fmt.Printf("%d regressions\n", regressions)
		return 1
	}
	return 0
}
