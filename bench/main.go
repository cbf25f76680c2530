// Command bench is the repository's benchmark: real-clock OO7, multi-client
// and cluster workloads against file-backed stores over loopback TCP, with
// the time attributed to layers from outside, through their public seams.
// See README.md in this directory.
//
//	bench -workload t1_cold -seed 7 -seconds 10 -trace 0   one run (the driver's form)
//	bench                                                  every workload, untraced then traced
//	bench diff BASE [NEW]                                  compare results (diff.go)
//
// run.sh builds it and starts it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// driverLine is the last line of a single run's output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	cfg := defaultConfig()
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all of them, untraced then traced")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the generated database and every random choice a workload makes")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured time per run")
	flag.StringVar(&cfg.outDir, "out", cfg.outDir, "directory for data files, traces and result.json")
	flag.Parse()
	cfg.traced = *trace != 0

	if cfg.workload == "" {
		os.Exit(runAll(cfg))
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res.print()
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range res.defs() {
		line.Metrics[d.Name] = driverValue{res.Metrics[d.Name], d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, prints every metric,
// and writes the set to <out>/result.json for the diff subcommand.
func runAll(cfg runConfig) int {
	var set []*result
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.traced = w.name, traced
			res, err := execute(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 2
			}
			res.print()
			if !res.Correct {
				code = 1
			}
			set = append(set, res)
		}
	}
	out, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return code
}
