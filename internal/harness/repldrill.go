package harness

import (
	"fmt"
	"math/rand"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/repl"
	"quickstore/internal/wal"
)

// ReplDrillOpts configures one replicated crash drill: a three-node
// in-process cluster (leader + 2 followers, quorum 2), a seeded update
// workload through the leader, the leader killed at one named crash point,
// an explicit failover to the most-durable follower, and a sweep through a
// Director verifying that no quorum-acked commit was lost.
type ReplDrillOpts struct {
	Seed  int64             // drives the workload, the fault plane, and the values
	Point faultinject.Point // crash point to arm on the leader; zero = kill after the workload
	HitN  int               // fire the crash on the n-th hit of Point; 0 = first

	Txns int // update transactions to attempt; 0 = 12
	Keys int // oracle objects (named roots); 0 = 6
}

// RunReplDrill executes one replicated drill. The workload runs through the
// full QuickStore (core) layer so the diff-based commit logs every changed
// page byte — exactly what a follower needs to reconstruct pages from the
// shipped log at promotion. The returned error reports harness problems;
// invariant breaks go in the report instead.
func RunReplDrill(opts ReplDrillOpts) (*DrillReport, error) {
	if opts.Txns == 0 {
		opts.Txns = 12
	}
	if opts.Keys == 0 {
		opts.Keys = 6
	}
	if opts.HitN == 0 {
		opts.HitN = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &DrillReport{}

	// The leader is the fault-wired node, with the plane in its repl node
	// too, so the repl.* points fire on its paths as well. Followers run
	// clean: the drill kills exactly one node.
	plane := faultinject.New(opts.Seed)
	leader, err := newDrillNode("", plane, esm.ServerConfig{BufferPages: 8})
	if err != nil {
		return nil, err
	}
	nodeCfg := func(id string, pl *faultinject.Plane) repl.Config {
		return repl.Config{
			ID:                id,
			Quorum:            2,
			HeartbeatInterval: 5 * time.Millisecond,
			QuorumTimeout:     time.Second,
			Server:            esm.ServerConfig{BufferPages: 64},
			Fault:             pl,
		}
	}
	logs := []*wal.Log{leader.log, wal.NewMemLog(), wal.NewMemLog()}
	nodes := []*repl.Node{repl.NewLeader(leader.srv, nodeCfg("n1", plane))}
	for i := 1; i < 3; i++ {
		nodes = append(nodes, repl.NewFollower(disk.NewMemVolume(), logs[i], nodeCfg(fmt.Sprintf("n%d", i+1), nil)))
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				a.AddPeer(b.ID(), "", b.Transport())
			}
		}
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	// Baseline: every key committed and quorum-acked before any fault is
	// armed. Failures here are harness problems, not invariant breaks.
	st, err := core.New(esm.NewClient(nodes[0].Transport(), esm.ClientConfig{BufferPages: 32}), core.Config{})
	if err != nil {
		return nil, fmt.Errorf("repl drill baseline: %w", err)
	}
	if err := st.Begin(); err != nil {
		return nil, fmt.Errorf("repl drill baseline: %w", err)
	}
	cl := st.NewCluster()
	keys := make(oracle, opts.Keys)
	refs := make([]core.Ref, opts.Keys)
	buf := make([]byte, 16)
	for i := range keys {
		keys[i].committed = rng.Uint64()
		if refs[i], err = st.Alloc(cl, 16, nil); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
		putValue(buf, keys[i].committed)
		if err := st.Space().WriteBytes(refs[i], buf); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
		if err := st.SetRoot(fmt.Sprintf("k%d", i), refs[i]); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
	}
	if err := st.Commit(); err != nil {
		return nil, fmt.Errorf("repl drill baseline: %w", err)
	}

	if opts.Point != 0 {
		plane.ArmCrash(opts.Point, opts.HitN)
	}

	// Workload: seeded update transactions against the acked baseline. A
	// commit error after the crash latch marks that one transaction in
	// doubt; everything acked before it stays in the oracle.
	for t := 1; t <= opts.Txns && !plane.Crashed(); t++ {
		if err := st.Begin(); err != nil {
			break
		}
		picked := rng.Perm(len(keys))[:1+rng.Intn(3)]
		vals := map[int]uint64{}
		var err error
		for _, i := range picked {
			v := rng.Uint64()
			putValue(buf, v)
			if err = st.Space().WriteBytes(refs[i], buf); err != nil {
				break
			}
			vals[i] = v
		}
		if err != nil {
			// The transaction never reached commit: recovery must roll it
			// back wholesale, so the oracle keeps the committed values.
			break
		}
		err = st.Commit()
		if err == nil {
			keys.acked(vals)
			rep.Committed++
			continue
		}
		if !plane.Crashed() {
			rep.violate("commit failed without a crash: %v", err)
			return rep, nil
		}
		// Cut off mid-commit: the new leader's recovery decides whether
		// this transaction happened.
		rep.InDoubt = true
		keys.cutOff(vals)
		break
	}
	rep.Crashed = plane.Crashed()
	if !rep.Crashed {
		// The armed point never fired (or none was armed): kill the leader
		// at quiescence instead, so every drill exercises failover. The
		// ship point is armed and hit directly — the latch is what matters.
		rep.ForcedKill = true
		plane.ArmCrash(faultinject.PtReplShip, 1)
		_ = plane.Hit(faultinject.PtReplShip)
	}
	rep.Trace = plane.Trace()

	// Failover: promote the follower with the longest durable log. With
	// quorum 2 of 3 it is guaranteed to hold every acked commit.
	best, other := 1, 2
	if logs[other].FlushedLSN() > logs[best].FlushedLSN() {
		best, other = other, best
	}
	if err := nodes[best].Campaign(); err != nil {
		if err2 := nodes[other].Campaign(); err2 != nil {
			rep.violate("no follower could be elected: %v / %v", err, err2)
			return rep, nil
		}
		best = other
	}
	rep.NewLeader = nodes[best].ID()
	rep.Term = nodes[best].Term()
	if rep.Term < 2 {
		rep.violate("failover did not advance the term: %d", rep.Term)
	}

	// Verification runs the way a real client would come back: through a
	// Director over every endpoint, which routes around the dead leader.
	var eps []repl.Endpoint
	for _, n := range nodes {
		eps = append(eps, repl.Endpoint{ID: n.ID(), Tr: n.Transport()})
	}
	d := repl.NewDirector(eps, repl.DirectorConfig{})
	defer d.Close()
	vs, err := core.Open(esm.NewClient(d, esm.ClientConfig{BufferPages: 32}), core.Config{})
	if err != nil {
		rep.violate("reopen through director after failover: %v", err)
		return rep, nil
	}
	if err := vs.Begin(); err != nil {
		rep.violate("begin on new leader: %v", err)
		return rep, nil
	}
	keys.verify(rep, func(i int) ([]byte, error) {
		ref, err := vs.Root(fmt.Sprintf("k%d", i))
		if err != nil {
			return nil, fmt.Errorf("root lost after failover: %w", err)
		}
		return buf, vs.Space().ReadInto(ref, buf)
	})
	if err := vs.Abort(); err != nil {
		rep.violate("abort verify txn: %v", err)
	}

	// Liveness: the surviving pair is still a quorum; a fresh commit must
	// ack and read back through the Director.
	if err := vs.Begin(); err != nil {
		rep.violate("post-failover begin: %v", err)
		return rep, nil
	}
	const sentinel = 0xFEEDFACECAFEBEEF
	putValue(buf, sentinel)
	ref, err := vs.Root("k0")
	if err == nil {
		err = vs.Space().WriteBytes(ref, buf)
	}
	if err == nil {
		err = vs.Commit()
	}
	if err != nil {
		rep.violate("post-failover commit failed: %v", err)
		return rep, nil
	}
	if err := vs.Begin(); err != nil {
		rep.violate("post-failover read: %v", err)
		return rep, nil
	}
	defer func() {
		if err := vs.Abort(); err != nil {
			rep.violate("abort final read txn: %v", err)
		}
	}()
	if ref, err = vs.Root("k0"); err == nil {
		err = vs.Space().ReadInto(ref, buf)
	}
	if err != nil {
		rep.violate("post-failover read: %v", err)
	} else if got, ok := getValue(buf); !ok || got != sentinel {
		rep.violate("post-failover write not visible: got %#x ok=%v", got, ok)
	}
	return rep, nil
}
