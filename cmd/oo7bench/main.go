// Command oo7bench regenerates every table and figure of the QuickStore
// paper's evaluation (SIGMOD 1994): it builds the OO7 databases for
// QuickStore, E, and QS-B, runs the traversal and query workloads cold and
// hot, and prints the paper-style tables.
//
// Usage:
//
//	oo7bench [-exp all|table2|fig8|fig9|table5|table6|fig10|fig11|fig12|
//	          fig13|table7|fig14|fig15|fig16|fig17|ablations|extras|verify|
//	          prefetch]
//	          [-medium] [-list] [-json]
//
// "-exp verify" asserts the paper's headline shape claims programmatically
// (one PASS/FAIL line each) and exits nonzero if any fails; it requires the
// full small-database scale and is not part of "all". "-exp prefetch"
// compares demand paging (what every paper table uses) with mapping-object
// read-ahead (what every other session gets) and is likewise not part of
// "all".
//
// Wall-clock cost on a real volume and log is measured by the repository
// benchmark (bench/run.sh, BENCHMARK.json), not here.
//
// With -json, each experiment's tables are additionally written to
// BENCH_<exp>.json in the current directory, for tracking results across
// revisions.
//
// Times are deterministic simulated milliseconds from the calibrated 1994
// cost model (see internal/sim); I/O counts, fault counts, and log volumes
// are measured for real. Absolute values are not expected to match the
// paper; shapes (who wins, by what factor, where the crossovers fall) are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"quickstore/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run, or 'all'")
	medium := flag.Bool("medium", false, "also build and measure the medium OO7 database (slower)")
	list := flag.Bool("list", false, "list experiment names and exit")
	jsonOut := flag.Bool("json", false, "also write each experiment's tables to BENCH_<exp>.json")
	flag.Parse()

	if *list {
		for _, n := range harness.ExperimentNames {
			fmt.Println(n)
		}
		return
	}
	suite := harness.NewSuite(os.Stdout, *medium)
	names := strings.Split(*exp, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if !*jsonOut {
		if err := suite.Run(names); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		return
	}
	// JSON mode runs experiments one at a time so each one's tables can be
	// attributed to its own BENCH_<exp>.json file.
	if len(names) == 1 && names[0] == "all" {
		names = harness.ExperimentNames
	}
	for _, name := range names {
		if err := suite.Run([]string{name}); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := writeJSON(name, suite.TakeTables()); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
	}
}

// benchFile is the on-disk schema of one BENCH_<exp>.json result.
type benchFile struct {
	Experiment string          `json:"experiment"`
	Tables     []harness.Table `json:"tables"`
}

func writeJSON(exp string, tables []harness.Table) error {
	if len(tables) == 0 {
		return nil // skipped (e.g. a medium experiment without -medium)
	}
	blob, err := json.MarshalIndent(benchFile{Experiment: exp, Tables: tables}, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", exp)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}
