// Command qsstore creates and inspects QuickStore database volumes.
//
// Usage:
//
//	qsstore create     -db path.vol
//	qsstore info       -db path.vol
//	qsstore verify     -db path.vol
//	qsstore stats      -db path.vol | -addr host:port | -shard-map spec
//	qsstore serve      -db path.vol -listen host:port [-node-id name [-replica-of host:port] [-quorum n]]
//	                   [-shard-id n -shard-map spec [-resolve-every d]]
//	qsstore crashdrill [-repl|-shards] [-point name] [-victim coord|participant]
//	                   [-seeds n] [-seed n] [-hit n] [-short] [-torn] [-dir path]
//
// serve opens the volume (running restart recovery if the log demands it)
// and exposes the page server over TCP: each accepted connection speaks the
// multiplexed framed protocol, so one socket can carry many pipelined
// client sessions (bench/run.sh --workload cluster_commit drives load at a
// cluster of them; "stats -addr" observes one live). The process serves
// until killed; committed state is durable via the WAL, so
// no orderly shutdown is required.
//
// With -shard-id and -shard-map the server serves one shard of a
// horizontally partitioned cluster (DESIGN.md §16). The shard map — a
// comma-separated endpoint list, one entry per shard, identical on every
// node and client — is the single source of routing truth; clients route
// through it with "shard.Dial". Each shard is an ordinary page server in
// its own local id space, so sharding composes with replication: a map
// entry may be a "|"-separated replica group. The process also runs the
// presumed-abort resolution sweep every -resolve-every (default 15s),
// settling transactions left in doubt by a coordinator or client crash.
//
// With -node-id the server joins a replication cluster (DESIGN.md §14).
// Without -replica-of it serves as the leader: commits are acked only
// after a quorum of replicas (-quorum; 0 = majority) holds them durable.
// With -replica-of it serves as a follower: it registers with the leader,
// receives the shipped log (snapshot first if it is behind the leader's
// truncation point), and campaigns for the leadership if the leader goes
// silent. -listen doubles as the node's advertised address, so it must be
// a host:port the other nodes can dial.
//
// info prints the volume geometry and the log summary; verify walks every
// header-bearing page checking slotted-page invariants and, for QuickStore
// data pages, the meta-object and its mapping/bitmap references; stats
// opens the store and prints the page server's statistics snapshot
// (OpStats), including pages served in read-ahead reads, group-commit, and — when the
// server is a replication leader — quorum-commit and election counters.
// With -addr it queries a running server over TCP instead of opening a
// local volume, which is how cluster replication lag is observed live.
//
// crashdrill runs the deterministic fault-injection drill (DESIGN.md §9)
// on scratch volumes: seeded update workloads killed at named crash
// points, restarted, and checked against the recovery invariants. With no
// -point it sweeps every named point; with -point it runs one drill and
// prints its report. The exit status is non-zero if any invariant broke,
// and for input that would drill nothing (-seeds or -hit below 1, or a
// -victim other than coord or participant).
// With -repl the drill runs against a 3-node replication cluster instead
// (DESIGN.md §14): the leader is killed at the armed point, a follower is
// elected, and every quorum-acked commit must survive the failover.
// With -shards it runs the sharded 2PC drill (DESIGN.md §16): a two-shard
// cluster whose coordinator or participant (-victim) is killed at a 2PC
// crash point (-point; default: the full victim x point matrix), both
// shards restarted and swept, and every cross-shard transaction checked
// for atomicity — committed on both shards or neither, never mixed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/harness"
	"quickstore/internal/page"
	"quickstore/internal/repl"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
	"quickstore/quickstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	db := fs.String("db", "", "database volume path")
	point := fs.String("point", "", "crashdrill: crash point to arm (default: sweep all)")
	seed := fs.Int64("seed", 1, "crashdrill: base workload/fault seed")
	seeds := fs.Int("seeds", 4, "crashdrill: seeds per configuration in sweep mode")
	hitN := fs.Int("hit", 1, "crashdrill: fire the crash on the n-th hit of the point")
	short := fs.Bool("short", false, "crashdrill: crashing log flush keeps only a prefix")
	torn := fs.Bool("torn", false, "crashdrill: sub-page torn page writes (detection mode)")
	dir := fs.String("dir", "", "crashdrill: scratch directory (default: temp)")
	replDrillFlag := fs.Bool("repl", false, "crashdrill: drill a 3-node replication cluster (leader kill + failover)")
	listen := fs.String("listen", "127.0.0.1:7707", "serve: TCP address to listen on (and advertise to cluster peers)")
	nodeID := fs.String("node-id", "", "serve: join a replication cluster under this node name")
	replicaOf := fs.String("replica-of", "", "serve: follow the leader at this address (requires -node-id)")
	quorum := fs.Int("quorum", 0, "serve: replicas that must hold a commit durable before ack (0 = majority)")
	addr := fs.String("addr", "", "stats: query a running server at host:port instead of opening -db")
	shardID := fs.Int("shard-id", -1, "serve: serve this shard of the -shard-map cluster")
	shardMap := fs.String("shard-map", "", "serve/stats: comma-separated shard endpoint list (entries may be addr|addr|addr replica groups)")
	resolveEvery := fs.Duration("resolve-every", 15*time.Second, "serve: period of the in-doubt resolution sweep in sharded mode")
	victim := fs.String("victim", "", "crashdrill -shards: which shard dies, coord or participant (default: both in a matrix)")
	shardDrillFlag := fs.Bool("shards", false, "crashdrill: drill a 2-shard 2PC cluster (coordinator/participant kill + resolution sweep)")
	fs.Parse(os.Args[2:])
	if *db == "" && *addr == "" && *shardMap == "" && cmd != "crashdrill" {
		fmt.Fprintln(os.Stderr, "qsstore: -db is required")
		os.Exit(2)
	}
	var err error
	switch cmd {
	case "create":
		err = createStore(*db)
	case "info":
		err = info(*db)
	case "verify":
		err = verify(*db)
	case "stats":
		err = stats(*db, *addr, *shardMap)
	case "serve":
		err = serve(*db, *listen, *nodeID, *replicaOf, *quorum, *shardMap, *shardID, *resolveEvery)
	case "crashdrill":
		err = crashdrill(*point, *victim, *seed, *seeds, *hitN, *short, *torn, *replDrillFlag, *shardDrillFlag, *dir)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qsstore create|info|verify|stats -db <path>")
	fmt.Fprintln(os.Stderr, "       qsstore stats -addr host:port | -shard-map spec")
	fmt.Fprintln(os.Stderr, "       qsstore serve -db <path> [-listen host:port] [-node-id name [-replica-of host:port] [-quorum n]]")
	fmt.Fprintln(os.Stderr, "                     [-shard-id n -shard-map spec [-resolve-every d]]")
	fmt.Fprintln(os.Stderr, "       qsstore crashdrill [-repl|-shards] [-point name] [-victim coord|participant] [-seeds n] [-seed n] [-hit n] [-short] [-torn] [-dir path]")
	os.Exit(2)
}

// serve exposes a file-backed page server over TCP. Recovery runs at open
// (esm.OpenServer replays the log), then every accepted connection is
// multiplexed: requests from any number of pipelined sessions are dispatched
// to bounded per-connection workers and responses stream back coalesced.
//
// With a node ID the listener fronts a replication node instead of the bare
// server: a leader acks commits only after quorum, a follower consumes the
// shipped log and stands for election if the leader goes silent. The same
// listener keeps serving across a promotion — repl.Node swaps the inner
// server underneath it.
func serve(path, listen, nodeID, replicaOf string, quorum int, shardSpec string, shardID int, resolveEvery time.Duration) error {
	if replicaOf != "" && nodeID == "" {
		return fmt.Errorf("-replica-of requires -node-id")
	}
	if shardSpec != "" {
		m, err := shard.ParseMap(shardSpec)
		if err != nil {
			return err
		}
		if shardID < 0 || shardID >= m.NumShards() {
			return fmt.Errorf("-shard-id %d outside the %d-shard map (required with -shard-map)", shardID, m.NumShards())
		}
		fmt.Printf("serving shard %d of %d (presumed-abort resolver sweeps every %v)\n", shardID, m.NumShards(), resolveEvery)
		go shardResolver(m, resolveEvery)
	} else if shardID >= 0 {
		return fmt.Errorf("-shard-id requires -shard-map")
	}
	vol, err := disk.OpenFileVolume(path)
	if err != nil {
		return err
	}
	defer vol.Close()
	logf, err := wal.OpenFileLog(path + ".log")
	if err != nil {
		return err
	}
	defer logf.Close()
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}

	if nodeID == "" {
		srv, err := esm.OpenServer(vol, logf, esm.ServerConfig{})
		if err != nil {
			return err
		}
		fmt.Printf("serving %s on %s\n", path, ln.Addr())
		esm.Serve(ln, srv)
		return nil
	}

	cfg := repl.Config{
		ID:              nodeID,
		Addr:            listen,
		Quorum:          quorum,
		ElectionTimeout: 2 * time.Second,
		Dial: func(addr string) (esm.Transport, error) {
			return esm.DialTCPTimeout(addr, 5*time.Second)
		},
	}
	var node *repl.Node
	if replicaOf == "" {
		srv, err := esm.OpenServer(vol, logf, esm.ServerConfig{})
		if err != nil {
			return err
		}
		node = repl.NewLeader(srv, cfg)
		fmt.Printf("serving %s on %s as replication leader %q (quorum %d; 0 = majority)\n",
			path, ln.Addr(), nodeID, quorum)
	} else {
		// The follower's volume and log start from whatever state they
		// hold; the leader ships the delta, or a full snapshot if the
		// follower is behind the leader's log truncation point.
		node = repl.NewFollower(vol, logf, cfg)
		fmt.Printf("serving %s on %s as follower %q of %s\n", path, ln.Addr(), nodeID, replicaOf)
		go registerWithLeader(node, replicaOf, cfg.Dial)
	}
	defer node.Close()
	esm.Serve(ln, node)
	return nil
}

// shardResolver periodically sweeps the whole sharded cluster for
// transactions left in doubt by a coordinator or client crash, resolving
// each against its coordinator's log under presumed abort. Every shard
// server runs the sweep — it is idempotent, and a round is skipped
// whenever some shard is unreachable (resolution needs the coordinator's
// answer, so a partial cluster cannot settle anything anyway).
func shardResolver(m shard.Map, every time.Duration) {
	dial := func(addr string) (esm.Transport, error) {
		return esm.DialTCPTimeout(addr, 5*time.Second)
	}
	for {
		time.Sleep(every)
		trs, err := m.DialTransports(dial)
		if err != nil {
			continue
		}
		out, err := shard.ResolveAll(trs)
		for _, tr := range trs {
			_ = tr.Close()
		}
		if err != nil {
			continue
		}
		if out.Committed+out.Aborted+out.Forgotten > 0 {
			fmt.Printf("resolver: %d in doubt -> %d committed, %d aborted, %d decisions forgotten, %d pending\n",
				out.InDoubt, out.Committed, out.Aborted, out.Forgotten, out.Pending)
		}
	}
}

// statsShards prints each shard's statistics snapshot plus the
// cluster-wide aggregate, all through the Router — per the no-plain-access
// rule, CallShard is the sanctioned per-shard observability path.
func statsShards(spec string) error {
	m, err := shard.ParseMap(spec)
	if err != nil {
		return err
	}
	r, err := shard.Dial(m, func(addr string) (esm.Transport, error) {
		return esm.DialTCPTimeout(addr, 5*time.Second)
	}, shard.Config{})
	if err != nil {
		return err
	}
	defer r.Close()
	for i := 0; i < r.NumShards(); i++ {
		resp, err := r.CallShard(i, &esm.Request{Op: esm.OpStats})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if resp.Err != "" {
			return fmt.Errorf("shard %d: %s", i, resp.Err)
		}
		var ss esm.ServerStats
		if err := json.Unmarshal(resp.Data, &ss); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		fmt.Printf("=== shard %d/%d ===\n", i, r.NumShards())
		printServerStats(&ss, nil)
	}
	resp, err := r.Call(&esm.Request{Op: esm.OpStats})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	var agg esm.ServerStats
	if err := json.Unmarshal(resp.Data, &agg); err != nil {
		return err
	}
	fmt.Printf("=== cluster (%d shards, summed) ===\n", r.NumShards())
	printServerStats(&agg, nil)
	return nil
}

// registerWithLeader announces a follower to the leader, retrying until it
// answers: cluster nodes are typically started in arbitrary order, so the
// leader may not be up yet. The leader dials back the follower's advertised
// address and starts shipping.
func registerWithLeader(node *repl.Node, leaderAddr string, dial func(string) (esm.Transport, error)) {
	for attempt := 1; ; attempt++ {
		tr, err := dial(leaderAddr)
		if err == nil {
			err = node.RegisterWith(tr)
			_ = tr.Close()
			if err == nil {
				fmt.Printf("registered with leader at %s\n", leaderAddr)
				return
			}
		}
		if attempt == 1 || attempt%15 == 0 {
			fmt.Printf("leader at %s not answering (%v); retrying\n", leaderAddr, err)
		}
		time.Sleep(2 * time.Second)
	}
}

// crashdrill runs one drill of the chosen kind (with -point, or -victim
// under -shards) and prints its report, or sweeps the kind's matrix and
// prints each violation and a summary.
func crashdrill(point, victimName string, seed int64, seeds, hitN int, short, torn, replicated, sharded bool, dir string) error {
	pt, err := faultinject.ParsePoint(point)
	if err != nil {
		return err
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds %d: a sweep needs at least one seed", seeds)
	}
	if hitN < 1 {
		return fmt.Errorf("-hit %d: hits count from 1", hitN)
	}
	victim := slices.Index(harness.VictimNames, victimName)
	if victimName == "" {
		victim = 0
	} else if victim < 0 {
		return fmt.Errorf("unknown -victim %q (valid: %s)", victimName, strings.Join(harness.VictimNames, ", "))
	}
	scratch, err := os.MkdirTemp(dir, "qsdrill-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	// cell is one drill of the chosen kind.
	cell := func(pt faultinject.Point, hit int, seed int64, transient int) harness.Cell {
		name := pt.String()
		if name == "" {
			name = "(none)"
		}
		c := harness.Cell{Label: fmt.Sprintf("point=%s hit=%d seed=%d", name, hit, seed)}
		switch {
		case sharded:
			c.Label = fmt.Sprintf("victim=%s %s", harness.VictimNames[victim], c.Label)
			c.Run = func(dir string) (*harness.DrillReport, error) {
				return harness.RunShardDrill(harness.ShardDrillOpts{Seed: seed, Victim: victim, Point: pt, HitN: hit, Dir: dir})
			}
		case replicated:
			c.Run = func(string) (*harness.DrillReport, error) {
				return harness.RunReplDrill(harness.ReplDrillOpts{Seed: seed, Point: pt, HitN: hit})
			}
		default:
			c.Run = func(dir string) (*harness.DrillReport, error) {
				return harness.RunCrashDrill(harness.DrillOpts{
					Seed: seed, Point: pt, HitN: hit, Transient: transient,
					ShortFlush: short, TornWrite: torn, AbortEvery: 3, Dir: dir,
				})
			}
		}
		return c
	}

	if pt != 0 || sharded && victimName != "" {
		c := cell(pt, hitN, seed, 0)
		rep, err := c.Run(scratch)
		if err != nil {
			return err
		}
		printReport(c.Label, rep)
		if len(rep.Violations) > 0 {
			return fmt.Errorf("%d invariants violated", len(rep.Violations))
		}
		fmt.Println("all invariants held")
		return nil
	}

	title, unit := "crash drill", "runs"
	var cells []harness.Cell
	if sharded {
		title, unit, cells = "sharded crash drill", "cells", harness.ShardCells(seed)
	} else {
		hits := []int{1, 3}
		if replicated {
			title, hits = "replicated crash drill", []int{1, 2}
		}
		for _, pt := range append([]faultinject.Point{0}, faultinject.AllPoints()...) {
			for _, hit := range hits {
				if replicated && pt == 0 && hit > 1 {
					continue // the quiescent kill has no point to re-hit
				}
				for s := int64(0); s < int64(seeds); s++ {
					cells = append(cells, cell(pt, hit, seed+s*997+int64(hit), int(s%2)*2))
				}
			}
		}
	}
	tally, err := harness.Sweep(scratch, cells, func(c harness.Cell, rep *harness.DrillReport) {
		for _, v := range rep.Violations {
			fmt.Printf("VIOLATION [%s]: %s\n", c.Label, v)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d %s, %d crashed", title, tally.Runs, unit, tally.Crashed)
	if tally.Failovers > 0 {
		fmt.Printf(", %d failovers", tally.Failovers)
	}
	fmt.Printf(", %d violations\n", tally.Violations)
	if tally.Violations > 0 {
		return fmt.Errorf("%d invariants violated", tally.Violations)
	}
	return nil
}

// printReport prints one drill's report.
func printReport(label string, rep *harness.DrillReport) {
	fmt.Printf("drill:      %s\n", label)
	fmt.Printf("crashed:    %v\n", rep.Crashed)
	fmt.Printf("committed:  %d transactions, %d aborted, in-doubt=%v\n", rep.Committed, rep.Aborted, rep.InDoubt)
	if rep.NewLeader != "" {
		fmt.Printf("failover:   elected %q at term %d (forced kill: %v)\n", rep.NewLeader, rep.Term, rep.ForcedKill)
	}
	if r := rep.Resolved; r != nil {
		fmt.Printf("resolved:   %d in doubt -> %d committed, %d aborted, %d pending\n",
			r.InDoubt, r.Committed, r.Aborted, r.Pending)
	}
	if len(rep.Trace) > 0 {
		fmt.Printf("trace:      %v\n", rep.Trace)
	}
	for _, v := range rep.Violations {
		fmt.Printf("VIOLATION:  %s\n", v)
	}
}

func createStore(path string) error {
	st, err := quickstore.Create(path, quickstore.Options{})
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("created empty store at %s (log at %s.log)\n", path, path)
	return nil
}

func info(path string) error {
	vol, err := disk.OpenFileVolume(path)
	if err != nil {
		return err
	}
	defer vol.Close()
	fmt.Printf("volume:      %s\n", path)
	fmt.Printf("pages:       %d (%.1f MB)\n", vol.NumPages(),
		float64(vol.NumPages())*disk.PageSize/(1<<20))
	fmt.Printf("allocated:   %d data pages\n", vol.AllocatedPages())
	logf, err := wal.OpenFileLog(path + ".log")
	if err != nil {
		return err
	}
	defer logf.Close()
	var byType [wal.RecCatalog + 1]int64
	var payload, regions int64
	_ = logf.Iterate(func(r wal.Record) bool {
		if int(r.Type) < len(byType) {
			byType[r.Type]++
		}
		for it := r.Regions(); it.Next(); {
			payload += int64(len(it.Old) + len(it.New))
			if r.Type == wal.RecUpdate {
				regions++
			}
		}
		return true
	})
	fmt.Printf("log:         %s\n", logSummary(logf.Records(), logf.Bytes(), payload))
	fmt.Printf("  begins=%d updates=%d (%d regions) commits=%d aborts=%d clrs=%d prepares=%d decisions=%d catalogs=%d\n",
		byType[wal.RecBegin], byType[wal.RecUpdate], regions, byType[wal.RecCommit],
		byType[wal.RecAbort], byType[wal.RecCLR], byType[wal.RecPrepare], byType[wal.RecDecision],
		byType[wal.RecCatalog])
	return nil
}

// logSummary renders a log's size the way an operator sizes a log device:
// records, bytes, mean record size, and — when the image bytes are known
// (payload >= 0; only a scan of the log knows them) — the share of the log
// that is framing rather than before- and after-images.
func logSummary(records, bytes, payload int64) string {
	s := fmt.Sprintf("%d records, %d bytes", records, bytes)
	if records == 0 || bytes == 0 {
		return s
	}
	s += fmt.Sprintf(", %.1f bytes/record", float64(bytes)/float64(records))
	if payload >= 0 {
		s += fmt.Sprintf(", %.1f%% header overhead (%d image bytes)", 100*float64(bytes-payload)/float64(bytes), payload)
	}
	return s
}

// stats opens the store (running restart recovery if the log demands it)
// and prints the server's OpStats snapshot, with this session's read-ahead
// hit/wasted ratio. With addr it queries a
// running server over TCP instead — the only way to see live replication
// state, since a local open never has a cluster attached.
func stats(path, addr, shardSpec string) error {
	if shardSpec != "" {
		return statsShards(shardSpec)
	}
	if addr != "" {
		return statsRemote(addr)
	}
	st, err := quickstore.Open(path, quickstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	ss, err := st.ServerStats()
	if err != nil {
		return err
	}
	cs := st.Stats()
	printServerStats(ss, &cs)
	fmt.Printf("session:        %d pages read ahead, %d hits, %d wasted", cs.PrefetchIssued, cs.PrefetchHits, cs.PrefetchWasted)
	if cs.PrefetchIssued > 0 {
		fmt.Printf(" (%.1f%% hit, %.1f%% wasted)",
			100*float64(cs.PrefetchHits)/float64(cs.PrefetchIssued),
			100*float64(cs.PrefetchWasted)/float64(cs.PrefetchIssued))
	}
	fmt.Println()
	return nil
}

// statsRemote fetches the OpStats snapshot from a running server. Pointing
// it at a replication follower reports the leader's address instead (the
// follower redirects client ops).
func statsRemote(addr string) error {
	tr, err := esm.DialTCPTimeout(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer tr.Close()
	resp, err := tr.Call(&esm.Request{Op: esm.OpStats})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	var ss esm.ServerStats
	if err := json.Unmarshal(resp.Data, &ss); err != nil {
		return err
	}
	printServerStats(&ss, nil)
	return nil
}

// printServerStats prints a server's counters; cs, when the caller has a
// session of its own on that server, adds the session's side of lock-ahead.
func printServerStats(ss *esm.ServerStats, cs *quickstore.Stats) {
	fmt.Printf("server buffer:  %d/%d pages resident, %d frames allocated (%.1f MB)\n",
		ss.Resident, ss.BufferPages, ss.PoolAllocatedPages, float64(ss.PoolAllocatedPages)*disk.PageSize/(1<<20))
	fmt.Printf("pool:           %d hits, %d misses, %d evicted", ss.PoolHits, ss.PoolMisses, ss.PoolEvicted)
	if total := ss.PoolHits + ss.PoolMisses; total > 0 {
		fmt.Printf(" (%.1f%% hit rate)", 100*float64(ss.PoolHits)/float64(total))
	}
	fmt.Println()
	fmt.Printf("volume:         %d allocated data pages\n", ss.AllocatedPages)
	fmt.Printf("log:            %s\n", logSummary(ss.LogRecords, ss.LogBytes, -1))
	fmt.Printf("disk:           %d reads, %d writes\n", ss.DiskReads, ss.DiskWrites)
	fmt.Printf("read-ahead:     %d pages served in reads of 2+ pages\n", ss.PrefetchPages)
	fmt.Printf("lock-ahead:     %d granted, %d refused", ss.LockAheadGranted, ss.LockAheadRefused)
	if cs != nil {
		fmt.Printf("; client used %d, wasted %d", cs.LockAheadUsed, cs.LockAheadWasted)
	}
	fmt.Println()
	fmt.Printf("commit:         %d commits, %d log forces, %d piggybacked", ss.Commits, ss.LogForces, ss.LogPiggybacks)
	if ss.Commits > 0 {
		fmt.Printf(" (%.2f forces/commit)", float64(ss.LogForces)/float64(ss.Commits))
	}
	fmt.Printf("; %d page runs redone from the log, %d pages installed whole\n", ss.PagesLogApplied, ss.PagesInstalled)
	fullAvg := int64(0)
	if ss.CohFulls > 0 {
		fullAvg = ss.CohFullBytes / ss.CohFulls
	}
	fmt.Printf("coherence:      %d Begin checks, %d too-old Begin horizons; %d not modified, %d deltas (%d bytes), %d full pages (%d bytes per image); %d page-change index entries\n",
		ss.CohValidates, ss.CohFeedStale, ss.CohNotModified, ss.CohDeltas, ss.CohDeltaBytes, ss.CohFulls, fullAvg, ss.CohIndexEntries)
	if r := ss.Repl; r != nil {
		fmt.Printf("replication:    %s, term %d, leader %q, %d followers, quorum %d\n",
			r.Role, r.Term, r.Leader, r.Followers, r.Quorum)
		fmt.Printf("  quorum:       %d commits gated, %.1fms total wait", r.QuorumCommits, float64(r.QuorumWaitNs)/1e6)
		if r.QuorumCommits > 0 {
			fmt.Printf(" (%.2fms/commit)", float64(r.QuorumWaitNs)/1e6/float64(r.QuorumCommits))
		}
		fmt.Println()
		fmt.Printf("  shipping:     %d rounds, %d bytes, %d snapshots\n", r.ShipRounds, r.ShipBytes, r.SnapshotsSent)
		fmt.Printf("  lag:          durable lsn %d, quorum lsn %d, laggiest follower %d bytes behind\n",
			r.DurableLSN, r.QuorumLSN, r.MaxFollowerGap)
		fmt.Printf("  elections:    %d\n", r.Elections)
	}
}

func verify(path string) error {
	vol, err := disk.OpenFileVolume(path)
	if err != nil {
		return err
	}
	defer vol.Close()
	buf := make([]byte, disk.PageSize)
	var slotted, btree, other, objects, badPages int
	for pid := disk.PageID(2); uint32(pid) < vol.NumPages(); pid++ {
		if err := vol.ReadPage(pid, buf); err != nil {
			return err
		}
		p := page.MustWrap(buf)
		switch p.Type() {
		case page.TypeSlotted:
			slotted++
			ok := true
			p.LiveObjects(func(slot, off int, data []byte) bool {
				if off < page.HeaderSize || off+len(data) > disk.PageSize {
					ok = false
					return false
				}
				objects++
				return true
			})
			if !ok {
				badPages++
				fmt.Printf("page %d: object out of bounds\n", pid)
			}
		case page.TypeBTree:
			btree++
		default:
			other++ // raw large-object data or free; page 1, the root directory, is not walked
		}
	}
	fmt.Printf("verified %d pages: %d slotted (%d live objects), %d btree, %d other, %d bad\n",
		slotted+btree+other, slotted, objects, btree, other, badPages)
	if badPages > 0 {
		return fmt.Errorf("%d corrupt pages", badPages)
	}
	return nil
}
