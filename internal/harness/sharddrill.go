package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
)

// ShardDrillOpts configures one sharded crash drill: a two-shard
// file-backed cluster, a workload of cross-shard transactions (each
// updates one object on every shard through presumed-abort 2PC), a
// process kill of either the coordinator or the participant shard at one
// named 2PC crash point, restart recovery of both shards, a resolution
// sweep, and an atomicity oracle over the recovered values.
type ShardDrillOpts struct {
	Seed   int64             // drives the fault plane trace
	Victim string            // which shard dies: "coord" (shard 0) or "participant" (shard 1)
	Point  faultinject.Point // crash point to arm on the victim; zero = kill after the workload
	HitN   int               // fire the crash on the n-th hit of Point; 0 = first
	Txns   int               // cross-shard transactions to attempt; 0 = 8
	Dir    string            // scratch directory for the volumes and logs
}

// ShardDrillReport is the outcome of one sharded drill. Violations lists
// every broken cross-shard invariant; a clean drill has none.
type ShardDrillReport struct {
	Victim     string               // the armed victim shard
	Point      faultinject.Point    // the armed crash point (zero = quiescent kill)
	Crashed    bool                 // the armed point fired during the workload
	Committed  int                  // transactions whose 2PC commit was acknowledged
	InDoubt    bool                 // one commit was cut off mid-protocol
	Resolved   shard.ResolveOutcome // what the post-restart sweep settled
	Violations []string             // broken invariants (empty = drill passed)
	Trace      []string             // victim fault-plane trace, for reproducing a failure
}

func (r *ShardDrillReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// ShardCrashPoints is the kill matrix's point list: every 2PC protocol
// step on both sides of the prepare/decision exchange.
var ShardCrashPoints = []faultinject.Point{
	faultinject.PtPrepareAfterInstall,
	faultinject.PtPrepareBeforeFlush,
	faultinject.PtPrepareAfterFlush,
	faultinject.PtDecisionBeforeFlush,
	faultinject.PtDecisionAfterFlush,
}

// shardDrillShard is one shard's on-disk state plus its live server.
type shardDrillShard struct {
	volPath, logPath string
	vol              *disk.FileVolume
	log              *wal.Log
	srv              *esm.Server
	plane            *faultinject.Plane
}

// RunShardDrill executes one sharded drill. The returned error reports
// harness problems (unusable scratch dir); invariant breaks go in the
// report instead.
func RunShardDrill(opts ShardDrillOpts) (*ShardDrillReport, error) {
	if opts.Txns == 0 {
		opts.Txns = 8
	}
	if opts.HitN == 0 {
		opts.HitN = 1
	}
	if opts.Victim == "" {
		opts.Victim = "coord"
	}
	victim := 0
	if opts.Victim == "participant" {
		victim = 1
	}
	rep := &ShardDrillReport{Victim: opts.Victim, Point: opts.Point}

	// Two file-backed shards. Only the victim gets the fault wiring: the
	// drill kills exactly one shard mid-protocol (then powers off both).
	shards := make([]*shardDrillShard, 2)
	for i := range shards {
		sd := &shardDrillShard{
			volPath: filepath.Join(opts.Dir, fmt.Sprintf("vol%d", i)),
			logPath: filepath.Join(opts.Dir, fmt.Sprintf("log%d", i)),
		}
		vol, err := disk.CreateFileVolume(sd.volPath)
		if err != nil {
			return nil, err
		}
		logf, err := wal.CreateFileLog(sd.logPath)
		if err != nil {
			return nil, err
		}
		sd.vol, sd.log = vol, logf
		cfg := esm.ServerConfig{BufferPages: 8}
		var hooked disk.Volume = vol
		if i == victim {
			sd.plane = faultinject.New(opts.Seed)
			hooked = disk.WithHook(vol, sd.plane)
			logf.FlushHook = sd.plane.FlushHook()
			cfg.Fault = sd.plane
		}
		srv, err := esm.NewServer(hooked, logf, cfg)
		if err != nil {
			return nil, err
		}
		sd.srv = srv
		shards[i] = sd
	}
	trs := func() []esm.Transport {
		return []esm.Transport{esm.NewInProcTransport(shards[0].srv), esm.NewInProcTransport(shards[1].srv)}
	}

	// Baseline: one oracle object per shard, committed and checkpointed
	// before the fault is armed. Both start at sequence 0.
	oids := make([]esm.OID, 2)
	for sh := range oids {
		r, err := shard.NewRouter(trs(), shard.Config{Affinity: sh})
		if err != nil {
			return nil, err
		}
		c := esm.NewClient(r, esm.ClientConfig{BufferPages: 4})
		if err := c.Begin(); err != nil {
			return nil, err
		}
		fid, err := c.CreateFile(shard.NameOnShard(fmt.Sprintf("sdrill.%d", sh), sh, 2))
		if err != nil {
			return nil, err
		}
		oid, data, err := c.CreateObject(c.NewCluster(fid), payloadSize)
		if err != nil {
			return nil, err
		}
		putValue(data, 0)
		if err := c.SetRoot(fmt.Sprintf("sdrill.obj.%d", sh), oid, 0); err != nil {
			return nil, err
		}
		if err := c.Commit(); err != nil {
			return nil, err
		}
		oids[sh] = oid
	}
	for _, sd := range shards {
		if err := sd.srv.Checkpoint(); err != nil {
			return nil, err
		}
	}

	if opts.Point != 0 {
		shards[victim].plane.ArmCrash(opts.Point, opts.HitN)
	}

	// Workload: every transaction writes sequence t to BOTH objects —
	// shard 0 first, so shard 0 coordinates — and commits through 2PC.
	// The first error is the crash cutting the protocol off.
	router, err := shard.NewRouter(trs(), shard.Config{Affinity: 0})
	if err != nil {
		return nil, err
	}
	w := esm.NewClient(router, esm.ClientConfig{BufferPages: 4})
	inFlight := 0
	for t := 1; t <= opts.Txns; t++ {
		if err := w.Begin(); err != nil {
			break
		}
		ok := true
		for sh := 0; sh < 2; sh++ {
			data, off, frame, err := w.ReadObjectAt(oids[sh])
			if err != nil {
				ok = false
				break
			}
			old := append([]byte(nil), data[:12]...)
			putValue(data, uint64(t))
			w.Pool().MarkDirty(frame)
			w.LogUpdate(oids[sh].Page, off, old, append([]byte(nil), data[:12]...))
		}
		if !ok {
			inFlight = t
			break
		}
		if err := w.Commit(); err != nil {
			inFlight = t
			rep.InDoubt = true
			break
		}
		rep.Committed = t
	}
	rep.Crashed = shards[victim].plane != nil && shards[victim].plane.Crashed()
	if shards[victim].plane != nil {
		rep.Trace = shards[victim].plane.Trace()
	}
	if opts.Point != 0 && !rep.Crashed {
		rep.violate("armed point %s never fired", opts.Point)
	}

	// Power failure: kill both shards with no orderly shutdown, then
	// restart each the way a fresh process would.
	for _, sd := range shards {
		if err := sd.vol.Abandon(); err != nil {
			return nil, err
		}
		_ = sd.log.Close()
	}
	rtrs := make([]esm.Transport, 2)
	rsrvs := make([]*esm.Server, 2)
	for i, sd := range shards {
		vol, err := disk.OpenFileVolume(sd.volPath)
		if err != nil {
			rep.violate("shard %d: reopen volume: %v", i, err)
			return rep, nil
		}
		defer vol.Close()
		logf, err := wal.OpenFileLog(sd.logPath)
		if err != nil {
			rep.violate("shard %d: reopen log: %v", i, err)
			return rep, nil
		}
		defer logf.Close()
		srv, err := esm.OpenServer(vol, logf, esm.ServerConfig{BufferPages: 16})
		if err != nil {
			rep.violate("shard %d: restart recovery: %v", i, err)
			return rep, nil
		}
		rsrvs[i] = srv
		rtrs[i] = esm.NewInProcTransport(srv)
	}

	// Presumed abort: a restarted coordinator must answer every inquiry
	// immediately — never Pending — so one sweep settles everything.
	out, err := shard.ResolveAll(rtrs)
	if err != nil {
		rep.violate("resolution sweep: %v", err)
		return rep, nil
	}
	rep.Resolved = out
	if out.Pending != 0 {
		rep.violate("coordinator answered Pending for %d transactions after restart", out.Pending)
	}
	for i, srv := range rsrvs {
		if n := srv.InDoubtCount(); n != 0 {
			rep.violate("shard %d still holds %d in-doubt transactions after the sweep", i, n)
		}
	}
	if n := rsrvs[0].DecisionCount(); n != 0 {
		rep.violate("coordinator still remembers %d decisions after a clean sweep", n)
	}

	// Atomicity oracle: both objects must hold the SAME sequence — the
	// cross-shard transaction either happened on both shards or neither —
	// and that sequence must cover every acknowledged commit.
	vr, err := shard.NewRouter(rtrs, shard.Config{Affinity: 0})
	if err != nil {
		return nil, err
	}
	v := esm.NewClient(vr, esm.ClientConfig{BufferPages: 4})
	if err := v.Begin(); err != nil {
		rep.violate("post-recovery begin: %v", err)
		return rep, nil
	}
	seqs := make([]uint64, 2)
	for sh := range oids {
		data, _, err := v.ReadObject(oids[sh])
		if err != nil {
			rep.violate("shard %d oracle object unreadable: %v", sh, err)
			return rep, nil
		}
		got, ckOK := getValue(data)
		if !ckOK {
			rep.violate("shard %d oracle object checksum broken", sh)
		}
		seqs[sh] = got
	}
	if seqs[0] != seqs[1] {
		rep.violate("ATOMICITY: shard 0 at seq %d, shard 1 at seq %d — a cross-shard commit applied on one shard only", seqs[0], seqs[1])
	}
	if seqs[0] < uint64(rep.Committed) {
		rep.violate("DURABILITY: recovered seq %d below last acknowledged commit %d", seqs[0], rep.Committed)
	}
	if inFlight > 0 && seqs[0] > uint64(inFlight) {
		rep.violate("recovered seq %d beyond any attempted transaction %d", seqs[0], inFlight)
	}

	// The cluster must accept new cross-shard work: every lock the
	// in-doubt transaction held has to be gone.
	if err := v.Abort(); err != nil {
		rep.violate("post-recovery abort: %v", err)
	}
	if err := v.Begin(); err != nil {
		rep.violate("post-recovery begin 2: %v", err)
		return rep, nil
	}
	for sh := range oids {
		data, off, frame, err := v.ReadObjectAt(oids[sh])
		if err != nil {
			rep.violate("post-recovery update read shard %d: %v", sh, err)
			return rep, nil
		}
		old := append([]byte(nil), data[:12]...)
		putValue(data, seqs[0]+1)
		v.Pool().MarkDirty(frame)
		v.LogUpdate(oids[sh].Page, off, old, append([]byte(nil), data[:12]...))
	}
	if err := v.Commit(); err != nil {
		rep.violate("post-recovery cross-shard commit failed: %v", err)
	}
	return rep, nil
}

// RunShardDrillMatrix runs the full kill matrix — each victim shard at
// every 2PC crash point — returning one report per cell. dir gets one
// scratch subdirectory per cell.
func RunShardDrillMatrix(seed int64, dir string) ([]*ShardDrillReport, error) {
	var reps []*ShardDrillReport
	for _, victim := range []string{"coord", "participant"} {
		for _, point := range ShardCrashPoints {
			sub := filepath.Join(dir, fmt.Sprintf("%s-%s", victim, pathSafe(point.String())))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return nil, err
			}
			rep, err := RunShardDrill(ShardDrillOpts{
				Seed:   seed,
				Victim: victim,
				Point:  point,
				Dir:    sub,
			})
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", victim, point, err)
			}
			reps = append(reps, rep)
			seed++
		}
	}
	return reps, nil
}

func pathSafe(s string) string {
	out := []byte(s)
	for i := range out {
		if out[i] == '/' || out[i] == '.' {
			out[i] = '_'
		}
	}
	return string(out)
}
