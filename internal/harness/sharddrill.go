package harness

import (
	"fmt"
	"path/filepath"

	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/shard"
)

// ShardDrillOpts configures one sharded crash drill: a two-shard
// file-backed cluster, a workload of cross-shard transactions (each
// updates one object on every shard through presumed-abort 2PC), a
// process kill of either the coordinator or the participant shard at one
// named 2PC crash point, restart recovery of both shards, a resolution
// sweep, and an atomicity oracle over the recovered values.
type ShardDrillOpts struct {
	Seed   int64             // drives the fault plane trace
	Victim int               // the shard that dies, an index into VictimNames
	Point  faultinject.Point // crash point to arm on the victim; zero = kill after the workload
	HitN   int               // fire the crash on the n-th hit of Point; 0 = first
	Txns   int               // cross-shard transactions to attempt; 0 = 8
	Dir    string            // scratch directory for the volumes and logs
}

// VictimNames names the sharded drill's shards by index: shard 0
// coordinates every transaction, shard 1 participates.
var VictimNames = []string{"coord", "participant"}

// ShardCrashPoints is the kill matrix's point lists, one per victim
// (VictimNames order): every 2PC protocol step the victim runs. The
// coordinator does not prepare: its one round installs its part, then
// forces its decision record. The participant prepares, then commits on
// the verdict.
var ShardCrashPoints = [][]faultinject.Point{
	{
		faultinject.PtCommitAfterInstall,
		faultinject.PtDecisionBeforeFlush,
		faultinject.PtDecisionAfterFlush,
	},
	{
		faultinject.PtPrepareAfterInstall,
		faultinject.PtPrepareBeforeFlush,
		faultinject.PtPrepareAfterFlush,
		faultinject.PtDecisionBeforeFlush,
		faultinject.PtDecisionAfterFlush,
	},
}

// RunShardDrill executes one sharded drill. The returned error reports
// harness problems (unusable scratch dir, no such victim); invariant
// breaks go in the report instead.
func RunShardDrill(opts ShardDrillOpts) (*DrillReport, error) {
	if opts.Txns == 0 {
		opts.Txns = 8
	}
	if opts.HitN == 0 {
		opts.HitN = 1
	}
	if opts.Victim < 0 || opts.Victim >= len(VictimNames) {
		return nil, fmt.Errorf("shard drill: victim %d is not a shard of the %d-shard cluster", opts.Victim, len(VictimNames))
	}
	rep := &DrillReport{}

	// Two file-backed shards. Only the victim gets the fault plane: the
	// drill kills exactly one shard mid-protocol (then powers off both).
	plane := faultinject.New(opts.Seed)
	nodes := make([]*drillNode, len(VictimNames))
	trs := make([]esm.Transport, len(nodes))
	for i := range nodes {
		var pl *faultinject.Plane
		if i == opts.Victim {
			pl = plane
		}
		n, err := newDrillNode(filepath.Join(opts.Dir, fmt.Sprintf("shard%d", i)), pl, esm.ServerConfig{BufferPages: 8})
		if err != nil {
			return nil, err
		}
		nodes[i], trs[i] = n, esm.NewInProcTransport(n.srv)
	}

	// Baseline: one oracle object per shard, committed and checkpointed
	// before the fault is armed. Both start at sequence 0.
	oids := make([]esm.OID, len(nodes))
	for sh := range oids {
		r, err := shard.NewRouter(trs, shard.Config{Affinity: sh})
		if err != nil {
			return nil, err
		}
		c := esm.NewClient(r, esm.ClientConfig{BufferPages: 4})
		if err := c.Begin(); err != nil {
			return nil, err
		}
		fid, err := c.CreateFile(shard.NameOnShard(fmt.Sprintf("sdrill.%d", sh), sh, len(nodes)))
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
	for _, n := range nodes {
		if err := n.srv.Checkpoint(); err != nil {
			return nil, err
		}
	}

	if opts.Point != 0 {
		plane.ArmCrash(opts.Point, opts.HitN)
	}

	// Workload: every transaction writes sequence t to BOTH objects —
	// shard 0 first, so shard 0 coordinates — and commits through 2PC.
	// The first error is the crash cutting the protocol off. The two
	// objects are one oracle group, so the oracle's all-or-nothing rule is
	// cross-shard atomicity.
	keys := make(oracle, len(oids))
	router, err := shard.NewRouter(trs, shard.Config{Affinity: 0})
	if err != nil {
		return nil, err
	}
	w := esm.NewClient(router, esm.ClientConfig{BufferPages: 4})
	for t := 1; t <= opts.Txns; t++ {
		if err := w.Begin(); err != nil {
			break
		}
		vals := map[int]uint64{}
		for sh := range oids {
			if err = writeValue(w, oids[sh], uint64(t)); err != nil {
				break
			}
			vals[sh] = uint64(t)
		}
		if err != nil {
			break // never reached commit: recovery must roll it back
		}
		if err := w.Commit(); err != nil {
			rep.InDoubt = true
			keys.cutOff(vals)
			break
		}
		keys.acked(vals)
		rep.Committed++
	}
	rep.Crashed = plane.Crashed()
	rep.Trace = plane.Trace()
	if opts.Point != 0 && !rep.Crashed {
		rep.violate("armed point %s never fired", opts.Point)
	}

	// Power failure: kill both shards with no orderly shutdown, then
	// restart each the way a fresh process would.
	for _, n := range nodes {
		if err := n.kill(); err != nil {
			return nil, err
		}
	}
	trs = make([]esm.Transport, len(nodes)) // the routers above keep the old slice
	for i, n := range nodes {
		srv, err := n.restart(esm.ServerConfig{BufferPages: 16})
		if err != nil {
			rep.violate("shard %d: %v", i, err)
			return rep, nil
		}
		defer n.close()
		trs[i] = esm.NewInProcTransport(srv)
	}

	// Presumed abort: a restarted coordinator must answer every inquiry
	// immediately — never Pending — so one sweep settles everything.
	out, err := shard.ResolveAll(trs)
	if err != nil {
		rep.violate("resolution sweep: %v", err)
		return rep, nil
	}
	rep.Resolved = &out
	if out.Pending != 0 {
		rep.violate("coordinator answered Pending for %d transactions after restart", out.Pending)
	}
	for i, n := range nodes {
		if c := n.srv.InDoubtCount(); c != 0 {
			rep.violate("shard %d still holds %d in-doubt transactions after the sweep", i, c)
		}
	}
	if c := nodes[0].srv.DecisionCount(); c != 0 {
		rep.violate("coordinator still remembers %d decisions after a clean sweep", c)
	}

	vr, err := shard.NewRouter(trs, shard.Config{Affinity: 0})
	if err != nil {
		return nil, err
	}
	v := esm.NewClient(vr, esm.ClientConfig{BufferPages: 4})
	if err := v.Begin(); err != nil {
		rep.violate("post-recovery begin: %v", err)
		return rep, nil
	}
	keys.verify(rep, func(i int) ([]byte, error) {
		data, _, err := v.ReadObject(oids[i])
		return data, err
	})

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
		if err := writeValue(v, oids[sh], uint64(opts.Txns)+1); err != nil {
			rep.violate("post-recovery update read shard %d: %v", sh, err)
			return rep, nil
		}
	}
	if err := v.Commit(); err != nil {
		rep.violate("post-recovery cross-shard commit failed: %v", err)
	}
	return rep, nil
}

// ShardCells is the 2PC kill matrix as sweep cells: each victim shard
// killed at every 2PC crash point on its side, one seed per cell counting
// up from seed.
func ShardCells(seed int64) []Cell {
	var cells []Cell
	for victim, name := range VictimNames {
		for _, pt := range ShardCrashPoints[victim] {
			opts := ShardDrillOpts{Seed: seed, Victim: victim, Point: pt}
			cells = append(cells, Cell{
				Label: fmt.Sprintf("victim=%s point=%s seed=%d", name, pt, seed),
				Run: func(dir string) (*DrillReport, error) {
					opts.Dir = dir
					return RunShardDrill(opts)
				},
			})
			seed++
		}
	}
	return cells
}
