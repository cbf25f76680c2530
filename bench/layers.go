package main

import (
	"math"
	"strings"
)

// cpuLayers are the buckets a CPU-profile sample can fall in: the leaf-most
// quickstore/internal/<pkg> frame on its stack, or else where the leaf is.
var cpuLayers = []string{"vmem", "core", "oo7", "esm", "buffer", "lock", "wal", "disk", "mvcc",
	"pagedelta", "btree", "shard", "repl", "sim", "page", "runtime", "syscall", "other"}

// perLayer lists the traced run's metrics in the order they are printed.
// They carry no bound: they explain a movement, they do not gate one.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// vmem + oo7: the mapped-pointer traversal itself.
		{Name: "vmem.accesses_per_op", Unit: "count", Better: "lower"},
		{Name: "vmem.faults_per_op", Unit: "count", Better: "lower"},
		{Name: "vmem.ns_per_access", Unit: "ns", Better: "lower"},
		// core: fault handling and the session's transaction boundaries.
		{Name: "core.fault_us", Unit: "us", Better: "lower"},
		{Name: "session.open_ms", Unit: "ms", Better: "lower"},
		{Name: "session.begin_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "session.commit_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "session.client_self_ms_per_op", Unit: "ms", Better: "lower"},
		// buffer.Pool at the client.
		{Name: "clientpool.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "clientpool.evictions_per_op", Unit: "count", Better: "lower"},
		// esm mux transport + Serve.
		{Name: "wire.calls_per_op", Unit: "count", Better: "lower"},
		{Name: "wire.self_us_per_call", Unit: "us", Better: "lower"},
		{Name: "wire.kb_out_per_op", Unit: "KB", Better: "lower"},
		{Name: "wire.kb_in_per_op", Unit: "KB", Better: "lower"},
		{Name: "wire.frames_per_flush", Unit: "ratio", Better: "higher"},
		{Name: "wire.inflight_hw", Unit: "count", Better: "higher"},
		// esm.Server: mean Handle time by op class.
		{Name: "server.read_us", Unit: "us", Better: "lower"},
		{Name: "server.lock_us", Unit: "us", Better: "lower"},
		{Name: "server.log_us", Unit: "us", Better: "lower"},
		{Name: "server.commit_us", Unit: "us", Better: "lower"},
		{Name: "server.validate_us", Unit: "us", Better: "lower"},
		{Name: "server.begin_us", Unit: "us", Better: "lower"},
		{Name: "server.other_us", Unit: "us", Better: "lower"},
		{Name: "server.self_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "server.checkpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "server.unattributed_frac", Unit: "ratio", Better: "lower"},
		// buffer.LatchPool at the server.
		{Name: "serverpool.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serverpool.evictions_per_op", Unit: "count", Better: "lower"},
		// lock.Manager.
		{Name: "lock.grants_per_op", Unit: "count", Better: "lower"},
		{Name: "lock.waits_per_op", Unit: "count", Better: "lower"},
		{Name: "lock.snap_grants_per_txn", Unit: "count", Better: "lower"},
		// disk.Volume.
		{Name: "disk.reads_per_op", Unit: "count", Better: "lower"},
		{Name: "disk.writes_per_op", Unit: "count", Better: "lower"},
		{Name: "disk.syncs_per_op", Unit: "count", Better: "lower"},
		{Name: "disk.read_us", Unit: "us", Better: "lower"},
		{Name: "disk.write_us", Unit: "us", Better: "lower"},
		{Name: "disk.sync_us", Unit: "us", Better: "lower"},
		// wal.Log.
		{Name: "wal.forces_per_commit", Unit: "ratio", Better: "lower"},
		{Name: "wal.piggybacks_per_commit", Unit: "ratio", Better: "higher"},
		{Name: "wal.kb_per_commit", Unit: "KB", Better: "lower"},
		{Name: "wal.records_per_commit", Unit: "count", Better: "lower"},
		{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
		// Warm-cache coherence (esm version table + pagedelta).
		{Name: "coh.validates_per_op", Unit: "count", Better: "lower"},
		{Name: "coh.not_modified_ratio", Unit: "ratio", Better: "higher"},
		{Name: "coh.delta_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "coh.fulls_per_op", Unit: "count", Better: "lower"},
		// mvcc version store.
		{Name: "mvcc.captures_per_op", Unit: "count", Better: "lower"},
		{Name: "mvcc.lookups_per_op", Unit: "count", Better: "lower"},
		{Name: "mvcc.version_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "mvcc.retained_mb", Unit: "MB", Better: "lower"},
		// shard.Router.
		{Name: "shard.single_commit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "shard.prepares_per_cross", Unit: "ratio", Better: "lower"},
		{Name: "shard.unresolved", Unit: "count", Better: "lower"},
		// repl quorum shipping.
		{Name: "repl.ship_rounds_per_commit", Unit: "ratio", Better: "lower"},
		{Name: "repl.quorum_wait_us_per_commit", Unit: "us", Better: "lower"},
		{Name: "repl.ship_kb_per_commit", Unit: "KB", Better: "lower"},
		{Name: "repl.max_follower_gap", Unit: "count", Better: "lower"},
		// Real-clock numbers of the untraced half of the run, overall and by
		// transaction class. Not gated: see the comment on endToEnd.
		{Name: "untraced.op_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "untraced.op_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "untraced.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "untraced.cpu_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "class.read_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "class.snap_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "class.update_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "class.cross_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "class.p95_ms", Unit: "ms", Better: "lower"},
		// The Go runtime under all of it.
		{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
		// How far the trace itself can be trusted.
		{Name: "trace.closure_err_frac", Unit: "ratio", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "trace.orphan_frac", Unit: "ratio", Better: "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: "cpu." + l + "_frac", Unit: "ratio", Better: "lower"})
	}
	for _, p := range probeNames {
		defs = append(defs, metricDef{Name: "probe." + p.name, Unit: p.unit, Better: "lower"})
	}
	return defs
}()

// layerMetrics fills res.Metrics with every per-layer metric: time from the
// spans of the traced window, counts from what the window counted (its
// operations only where apart could set the work between them aside), unit
// costs from the probes, and CPU shares from the profile.
func (r *run) layerMetrics(res *result, plain, win *window, profile []byte) error {
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	lt := r.t.analyze()
	ops := float64(len(win.all))
	n := func(c counter) float64 { return float64(win.counts[c]) }
	perOp := func(v float64) float64 { return ratio(v, ops) }
	us := func(name string) float64 { return ratio(lt.dur[name], float64(lt.count[name])) / 1e3 }
	allUs := func(name string) float64 { return ratio(lt.allDur[name], float64(lt.allCount[name])) / 1e3 }

	// vmem / oo7 / core.
	accesses, faults := float64(win.vm.accesses), float64(win.vm.faults)
	m["vmem.accesses_per_op"] = perOp(accesses)
	m["vmem.faults_per_op"] = perOp(faults)
	// Time inside ops but outside the transaction boundaries: the traversal
	// and whatever faults it took.
	body := lt.opNs - lt.dur["session.begin"] - lt.dur["session.commit"]
	hotNs := r.hotAccessNs // cost of a mapped access with no fault in it
	switch hot := r.notes["t1.hot"]; {
	case accesses == 0:
		hotNs = 0
	case len(hot) > 0:
		// Table 5's method: the cold run minus a hot run in the same session.
		m["core.fault_us"] = ratio((p50(win.all)-p50(hot))*1e3, perOp(faults))
		hotNs = p50(hot) * 1e6 / perOp(accesses)
	case faults == 0:
		hotNs = body / accesses
	default:
		m["core.fault_us"] = math.Max(0, body-accesses*hotNs) / faults / 1e3
	}
	m["vmem.ns_per_access"] = hotNs
	m["session.open_ms"] = mean(r.notes["session.open"])
	m["session.begin_ms_per_op"] = perOp(lt.dur["session.begin"]) / 1e6
	m["session.commit_ms_per_op"] = perOp(lt.dur["session.commit"]) / 1e6
	m["session.client_self_ms_per_op"] = perOp(lt.clientSelf) / 1e6

	// Client pool.
	m["clientpool.hit_ratio"] = ratio(float64(win.vm.hits), float64(win.vm.hits+win.vm.misses))
	m["clientpool.evictions_per_op"] = perOp(float64(win.vm.evicted))

	// Wire.
	var wireCalls, wireDur, serverUnderWire float64
	for name, n := range lt.count {
		if strings.HasPrefix(name, "wire.") {
			wireCalls += float64(n)
			wireDur += lt.dur[name]
			serverUnderWire += lt.dur[name] - lt.self[name]
		}
	}
	m["wire.calls_per_op"] = perOp(n(cMuxCalls))
	m["wire.self_us_per_call"] = ratio(wireDur-serverUnderWire, wireCalls) / 1e3
	m["wire.kb_out_per_op"] = perOp(n(cMuxBytesOut)) / 1024
	m["wire.kb_in_per_op"] = perOp(n(cNetBytesOut)) / 1024
	m["wire.frames_per_flush"] = ratio(n(cMuxFrames), n(cMuxFlushes))
	m["wire.inflight_hw"] = n(gInflightHW)

	// Server.
	for _, class := range []string{"read", "lock", "log", "commit", "validate", "begin", "other"} {
		m["server."+class+"_us"] = us("server." + class)
	}
	serverSelf := lt.serverSelf
	m["server.self_ms_per_op"] = perOp(serverSelf) / 1e6
	m["server.checkpoint_ms"] = allUs("server.checkpoint") / 1e3

	// Server pool, locks.
	hits, misses := n(cPoolHits), n(cPoolMisses)
	m["serverpool.hit_ratio"] = ratio(hits, hits+misses)
	m["serverpool.evictions_per_op"] = perOp(n(cPoolEvicted))
	grants := n(cLockGrants)
	m["lock.grants_per_op"] = perOp(grants)
	m["lock.waits_per_op"] = perOp(n(cLockWaits))
	m["lock.snap_grants_per_txn"] = ratio(float64(lt.snapLocks), float64(lt.count["op.snap"]))

	// Disk: counts and times from the volume decorator's spans, including
	// the I/O between ops (checkpoints, cache drops), which the ops caused.
	for _, k := range []string{"read", "write", "sync"} {
		m["disk."+k+"s_per_op"] = perOp(float64(lt.allCount["disk."+k]))
		m["disk."+k+"_us"] = allUs("disk." + k)
	}

	// WAL.
	commits, forces, records := n(cCommits), n(cLogForces), n(cLogRecords)
	m["wal.forces_per_commit"] = ratio(forces, commits)
	m["wal.piggybacks_per_commit"] = ratio(n(cLogPiggybacks), commits)
	m["wal.kb_per_commit"] = ratio(n(cLogBytes), commits) / 1024
	m["wal.records_per_commit"] = ratio(records, commits)
	m["wal.recover_ms"] = mean(r.notes["wal.recover"])

	// Coherence.
	cohDeltas, cohFulls, cohNM := n(cCohDeltas), n(cCohFulls), n(cCohNotModified)
	m["coh.validates_per_op"] = perOp(n(cCohValidates))
	m["coh.not_modified_ratio"] = ratio(cohNM, cohNM+cohDeltas+cohFulls)
	m["coh.delta_kb_per_op"] = perOp(n(cCohDeltaBytes)) / 1024
	m["coh.fulls_per_op"] = perOp(cohFulls)

	// MVCC.
	captures := n(cMVCCCaptures)
	m["mvcc.captures_per_op"] = perOp(captures)
	m["mvcc.lookups_per_op"] = perOp(n(cMVCCLookups))
	m["mvcc.version_hit_ratio"] = ratio(n(cMVCCVersionHits), n(cMVCCLookups))
	m["mvcc.retained_mb"] = n(gMVCCBytes) / (1 << 20)

	// Shard and replication.
	single, cross := n(cSingleCommits), n(cCrossCommits)
	m["shard.single_commit_ratio"] = ratio(single, single+cross)
	m["shard.prepares_per_cross"] = ratio(n(cPrepares), cross)
	m["shard.unresolved"] = n(gUnresolved)
	qc := n(cQuorumCommits)
	m["repl.ship_rounds_per_commit"] = ratio(n(cShipRounds), qc)
	m["repl.quorum_wait_us_per_commit"] = ratio(n(cQuorumWaitNs), qc) / 1e3
	m["repl.ship_kb_per_commit"] = ratio(n(cShipBytes), qc) / 1024
	m["repl.max_follower_gap"] = n(gFollowerGap)

	// Real-clock numbers from the untraced half.
	for name, v := range clockMetrics(plain) {
		m["untraced."+name] = v
	}
	for _, class := range []string{"read", "snap", "update", "cross"} {
		if ms := plain.lat[class]; len(ms) > 0 {
			m["class."+class+"_p50_ms"] = p50(ms)
			res.Timings["class."+class] = summarize(ms)
		}
	}
	m["class.p95_ms"] = pct(plain.all, 0.95)
	res.Timings["op.untraced"] = summarize(plain.all)
	res.Timings["op.traced"] = summarize(win.all)

	// Process.
	m["proc.alloc_kb_per_op"] = perOp(n(cAllocBytes)) / 1024
	m["proc.allocs_per_op"] = perOp(n(cMallocs))
	m["proc.gc_pause_ms"] = n(cGCPauseNs) / 1e6

	// Trace quality. Closure: the op spans' time against the self times of
	// everything under them, which are equal when every span found its parent.
	parts := lt.clientSelf + lt.wireSelf + lt.serverSelf + lt.diskNs
	m["trace.closure_err_frac"] = ratio(math.Abs(lt.opNs-parts), lt.opNs)
	m["trace.overhead_frac"] = ratio(p50(win.all), p50(plain.all)) - 1
	m["trace.orphan_frac"] = ratio(float64(lt.orphans), float64(lt.serverSpans))

	// CPU shares, the real-time twin of the paper's Table 7.
	shares, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_frac"] = shares[l]
	}

	// Probes: unit costs of the layers no interface seam separates, and
	// with them a Table 6 style split of the server's self time.
	probes, err := runProbes(r.cfg.outDir, r.cfg.probeScale)
	if err != nil {
		return err
	}
	for name, v := range probes {
		m["probe."+name] = v
	}
	explained := hits*probes["latchpool_hit_ns"] +
		misses*probes["latchpool_miss_us"]*1e3 +
		grants*probes["lock_acquire_release_ns"] +
		records*probes["wal_append_ns"] +
		forces*probes["wal_force_us"]*1e3 +
		cohDeltas*probes["pagedelta_encode_us"]*1e3 +
		captures*probes["mvcc_capture_lookup_ns"]
	if serverSelf > 0 {
		m["server.unattributed_frac"] = math.Max(0, 1-explained/serverSelf)
	}
	return nil
}
