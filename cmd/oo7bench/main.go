// Command oo7bench regenerates every table and figure of the QuickStore
// paper's evaluation (SIGMOD 1994): it builds the OO7 databases for
// QuickStore, E, and QS-B, runs the traversal and query workloads cold and
// hot, and prints the paper-style tables.
//
// Usage:
//
//	oo7bench [-exp all|table2|fig8|fig9|table5|table6|fig10|fig11|fig12|
//	          fig13|table7|fig14|fig15|fig16|fig17|ablations|extras|verify|
//	          prefetch|concurrency]
//	          [-medium] [-list] [-json] [-clients N] [-net] [-addr host:port]
//	          [-snapshot N] [-shards N]
//
// "-exp verify" asserts the paper's headline shape claims programmatically
// (one PASS/FAIL line each) and exits nonzero if any fails; it requires the
// full small-database scale and is not part of "all". "-exp prefetch"
// compares demand paging (what every paper table uses) with mapping-object
// read-ahead (what every other session gets) and is likewise not part of
// "all".
//
// "-clients N" runs only the multi-client concurrency bench: a wall-clock
// sweep of 1..N concurrent sessions against one page server, against a
// big-lock baseline, with group-commit force counts. Its table is always
// written to BENCH_concurrency.json. ("-exp concurrency" runs the same
// bench at the default 8 clients, and is not part of "all" because its
// wall-clock numbers are nondeterministic.)
//
// "-net" runs the concurrency bench over TCP instead of in-process
// transports: all sessions of each point share ONE multiplexed pipelined
// connection, A/B'd against ONE serial lock-step connection. The table goes
// to BENCH_net.json. With "-addr host:port" the bench targets an external
// page server ("qsstore serve") instead of an in-process loopback one.
//
// "-snapshot" runs only the read-mostly MVCC sweep: reader sessions using
// lock-free snapshot reads A/B'd against the 2PL Shared-lock baseline,
// both racing concurrent writers. The table goes to BENCH_snapshot.json;
// the snapshot runs must show zero reader lock-manager grants.
//
// "-shards N" runs only the horizontal scale-out sweep (DESIGN.md §16): a
// fixed session count over 1, 2, ..., N page servers behind client-side
// shard routers, each point measured partitioned (one-phase commits only)
// and mixed (a fraction of cross-shard presumed-abort 2PC commits). The
// table goes to BENCH_shards.json; the run fails if a 4-shard point falls
// below 3x the single-shard throughput or any transaction is left
// unresolved.
//
// "-warm" runs only the warm-cache coherence bench (DESIGN.md §18): a
// reader session that keeps its buffer warm across transactions, with a
// concurrent writer mutating the shared database, A/B'd against the
// drop-and-refetch baseline. The table goes to BENCH_warmcache.json; the
// run fails if the coherent mode ships less than 5x fewer bytes on the
// wire, or if either mode ever observes a stale read.
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
	clients := flag.Int("clients", 0, "run only the concurrency bench, sweeping 1..N clients (writes BENCH_concurrency.json)")
	netMode := flag.Bool("net", false, "run the concurrency bench over TCP: shared mux connection vs lock-step baseline (writes BENCH_net.json)")
	addr := flag.String("addr", "", "with -net: benchmark an external page server at host:port instead of an in-process one")
	snapshot := flag.Int("snapshot", 0, "run only the snapshot-read sweep, 1..N reader sessions vs the locked baseline (writes BENCH_snapshot.json); N<0 uses the default 8")
	shards := flag.Int("shards", 0, "run only the horizontal scale-out sweep over 1..N shards (writes BENCH_shards.json); N<0 uses the default 4")
	warm := flag.Bool("warm", false, "run only the warm-cache coherence bench: LSN-validated reuse vs drop-and-refetch (writes BENCH_warmcache.json)")
	flag.Parse()

	if *list {
		for _, n := range harness.ExperimentNames {
			fmt.Println(n)
		}
		return
	}
	suite := harness.NewSuite(os.Stdout, *medium)
	if *warm {
		res, err := suite.WarmExp(harness.WarmCacheOpts{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := writeJSON("warmcache", suite.TakeTables()); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := checkWarmGate(res); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		return
	}
	if *shards != 0 {
		opts := harness.ShardBenchOpts{}
		if *shards > 0 {
			opts.MaxShards = *shards
		}
		pts, err := suite.ShardExp(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := writeJSON("shards", suite.TakeTables()); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := checkShardGate(pts); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		return
	}
	if *snapshot != 0 {
		opts := harness.SnapshotBenchOpts{}
		if *snapshot > 0 {
			opts.MaxSessions = *snapshot
		}
		if err := suite.SnapshotExp(opts); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := writeJSON("snapshot", suite.TakeTables()); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		return
	}
	if *clients > 0 || *netMode || *addr != "" {
		opts := harness.ConcurrencyOpts{MaxClients: *clients, Net: *netMode, Addr: *addr}
		name := "concurrency"
		if opts.Net || opts.Addr != "" {
			name = "net"
		}
		if err := suite.ConcurrencyExp(opts); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		if err := writeJSON(name, suite.TakeTables()); err != nil {
			fmt.Fprintln(os.Stderr, "oo7bench:", err)
			os.Exit(1)
		}
		return
	}
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

// checkShardGate enforces the scale-out acceptance floor: every point
// must drain its 2PC state completely, and a 4-shard point must deliver
// at least 3x the single-shard throughput.
func checkShardGate(pts []harness.ShardPoint) error {
	for _, p := range pts {
		if p.UnresolvedOrInDoubt != 0 {
			return fmt.Errorf("shards=%d left %d transactions unresolved or in doubt", p.Shards, p.UnresolvedOrInDoubt)
		}
		if p.Shards == 4 && p.Speedup < 3 {
			return fmt.Errorf("4-shard speedup %.2fx is below the 3x acceptance floor", p.Speedup)
		}
	}
	return nil
}

// checkWarmGate enforces the warm-cache acceptance floor: the coherent
// run must ship at least 5x fewer bytes than drop-and-refetch, and
// neither run may ever return a value older than the oracle's.
func checkWarmGate(res harness.WarmCacheResult) error {
	if res.Coherent.StaleReads != 0 || res.Baseline.StaleReads != 0 {
		return fmt.Errorf("warm-cache bench observed stale reads (coherent=%d refetch=%d)",
			res.Coherent.StaleReads, res.Baseline.StaleReads)
	}
	if res.Reduction < 5 {
		return fmt.Errorf("warm-cache byte reduction %.2fx is below the 5x acceptance floor", res.Reduction)
	}
	return nil
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
