package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"quickstore/internal/esm"
)

// metricDef declares one metric; BENCHMARK.json carries the same tables and
// bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: what running the store costs a user, in
// units that repeat from run to run. An op is one iteration for the
// single-session workloads and one transaction otherwise; the per-op numbers
// of a single-session workload count its operations only, not the untimed
// work between them (see run.apart). Every workload reports every metric and
// none can read zero: even a read-only commit is three round trips and one
// forced commit record.
//
// Wall-clock latency, throughput and CPU time are measured over the same
// window and reported beside these (clock, below) but carry no bound, so the
// gate cannot certify a latency gain or catch a latency loss; the diff
// subcommand over sets of paired runs can. On this two-vCPU sandbox their
// quartile spread over ten runs is 0.07-0.38 of the median, differently on
// every workload and from hour to hour, against the 0.25 the benchmark's
// contract allows a bound and the third of that it asks a spread to stay
// under. README.md has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rpcs_per_op", "count", "lower", 0.10},
	{"wire_kb_per_op", "KB", "lower", 0.10},
	{"log_kb_per_op", "KB", "lower", 0.05},
	{"fsyncs_per_op", "count", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.15},
	{"heap_mb", "MB", "lower", 0.15},
}

// clock are the real-clock numbers of the measured window. An untraced run
// prints and stores them; a traced run reports the ones from its untraced
// half as per-layer metrics named untraced.<name>.
var clock = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// timing is how every latency is stored: the median, the highest percentile
// that still has ten samples beyond it, and the sample count.
type timing struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

// quantile returns the q-quantile of sorted xs the way Python's
// statistics.quantiles does (its default, exclusive method), which is what
// the benchmark's driver judges spreads with. Percentiles, medians and the
// quartiles of diff.go all come from here.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return sorted[0]
	case lo >= n-1:
		return sorted[n-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(ms []float64) timing {
	xs := sorted(ms)
	t := timing{N: len(xs), P50: quantile(xs, 0.5), TailPct: 50}
	for _, pct := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(xs))*(100-pct)/100 >= 10 {
			t.TailPct = pct
			break
		}
	}
	t.Tail = quantile(xs, t.TailPct/100)
	return t
}

func p50(ms []float64) float64 { return pct(ms, 0.5) }

func pct(ms []float64, q float64) float64 { return quantile(sorted(ms), q) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counter names one public accessor the metrics are deltas of. Server-side
// numbers are summed over the nodes that serve clients (one, or the shard
// leaders).
type counter int

const (
	cCPUNs counter = iota // process CPU, user + system
	cMallocs
	cAllocBytes
	cGCPauseNs
	// esm.MuxStats of the client-side connections.
	cMuxCalls
	cMuxFlushes
	cMuxFrames
	cMuxBytesOut
	cForces // wal.Log.Forces on every node, followers included
	// esm.ServerStats.
	cPoolHits
	cPoolMisses
	cPoolEvicted
	cLogRecords
	cLogBytes
	cCommits
	cLogForces
	cLogPiggybacks
	cLockGrants
	cLockWaits
	cNetBytesOut
	cCohValidates
	cCohNotModified
	cCohDeltas
	cCohDeltaBytes
	cCohFulls
	cMVCCCaptures
	cMVCCLookups
	cMVCCVersionHits
	cQuorumCommits
	cQuorumWaitNs
	cShipRounds
	cShipBytes
	// shard.RouterStats.
	cSingleCommits
	cCrossCommits
	cPrepares
	// Levels, not running totals: a difference keeps the later reading.
	gUnresolved
	gInflightHW
	gFollowerGap
	gMVCCBytes
	nCounters

	firstGauge = gUnresolved
)

// counters is one reading of every counter.
type counters [nCounters]int64

// minus returns a without what b counted: what happened between two
// readings, or a stretch without a part of it.
func (a counters) minus(b counters) counters {
	for i := counter(0); i < firstGauge; i++ {
		a[i] -= b[i]
	}
	return a
}

// add accumulates a difference into a.
func (a *counters) add(d counters) {
	for i := counter(0); i < firstGauge; i++ {
		a[i] += d[i]
	}
}

func (n *node) stats() (esm.ServerStats, error) {
	var ss esm.ServerStats
	resp := n.srv.Handle(&esm.Request{Op: esm.OpStats})
	if resp.Err != "" {
		return ss, fmt.Errorf("stats %s: %s", n.addr(), resp.Err)
	}
	return ss, json.Unmarshal(resp.Data, &ss)
}

func (r *run) readCounters() (counters, error) {
	var c counters
	c[cCPUNs] = int64(cpuTime())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes], c[cGCPauseNs] = int64(ms.Mallocs), int64(ms.TotalAlloc), int64(ms.PauseTotalNs)
	for _, n := range r.st.leaders() {
		ss, err := n.stats()
		if err != nil {
			return c, err
		}
		c[cPoolHits] += ss.PoolHits
		c[cPoolMisses] += ss.PoolMisses
		c[cPoolEvicted] += ss.PoolEvicted
		c[cLogRecords] += ss.LogRecords
		c[cLogBytes] += ss.LogBytes
		c[cCommits] += ss.Commits
		c[cLogForces] += ss.LogForces
		c[cLogPiggybacks] += ss.LogPiggybacks
		c[cLockGrants] += ss.LockGrants
		c[cLockWaits] += ss.LockWaits
		c[cNetBytesOut] += ss.NetBytesOut
		c[cCohValidates] += ss.CohValidates
		c[cCohNotModified] += ss.CohNotModified
		c[cCohDeltas] += ss.CohDeltas
		c[cCohDeltaBytes] += ss.CohDeltaBytes
		c[cCohFulls] += ss.CohFulls
		if m := ss.MVCC; m != nil {
			c[cMVCCCaptures] += m.Captures
			c[cMVCCLookups] += m.Lookups
			c[cMVCCVersionHits] += m.VersionHits
			c[gMVCCBytes] += int64(m.Bytes)
		}
		if rs := ss.Repl; rs != nil {
			c[cQuorumCommits] += rs.QuorumCommits
			c[cQuorumWaitNs] += rs.QuorumWaitNs
			c[cShipRounds] += rs.ShipRounds
			c[cShipBytes] += rs.ShipBytes
			c[gFollowerGap] = max(c[gFollowerGap], int64(rs.MaxFollowerGap))
		}
	}
	for _, n := range r.st.nodes {
		c[cForces] += n.log.Forces()
	}
	r.st.mu.Lock()
	for _, m := range r.st.muxes {
		s := m.Stats()
		c[cMuxCalls] += s.Calls
		c[cMuxFlushes] += s.Flushes
		c[cMuxFrames] += s.Frames
		c[cMuxBytesOut] += s.BytesOut
		c[gInflightHW] = max(c[gInflightHW], s.InFlightHW)
	}
	r.st.mu.Unlock()
	for _, rt := range r.routers {
		s := rt.Stats()
		c[cSingleCommits] += s.SingleCommits
		c[cCrossCommits] += s.CrossCommits
		c[cPrepares] += s.Prepares
		c[gUnresolved] += s.Unresolved
	}
	return c, nil
}
