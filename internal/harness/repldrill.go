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

// ReplDrillReport is the outcome of one replicated drill. Violations lists
// every broken replication invariant; a clean drill has none.
type ReplDrillReport struct {
	Point      faultinject.Point // the armed crash point (zero = quiescent kill)
	Crashed    bool              // the armed point fired during the workload
	ForcedKill bool              // the point never fired; the leader was killed after the workload
	Committed  int               // transactions whose commit was quorum-acked
	InDoubt    bool              // one commit was cut off mid-protocol by the crash
	FailedOver bool              // a follower won the election
	NewLeader  string            // the elected node's ID
	Term       uint64            // the cluster term after failover
	Violations []string          // broken invariants (empty = drill passed)
	Trace      []string          // leader fault-plane trace, for reproducing a failure
}

func (r *ReplDrillReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// replKey is one oracle-tracked named object.
type replKey struct {
	name      string
	ref       core.Ref
	committed uint64 // last value whose commit was quorum-acked
	inDoubt   uint64 // value proposed by the in-doubt transaction, if any
	touched   bool   // the in-doubt transaction updated this key
}

// replDrillNode is one cluster member's storage plus its repl node.
type replDrillNode struct {
	log  *wal.Log
	node *repl.Node
}

// RunReplDrill executes one replicated drill. The workload runs through the
// full QuickStore (core) layer so the diff-based commit logs every changed
// page byte — exactly what a follower needs to reconstruct pages from the
// shipped log at promotion. The returned error reports harness problems;
// invariant breaks go in the report instead.
func RunReplDrill(opts ReplDrillOpts) (*ReplDrillReport, error) {
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
	rep := &ReplDrillReport{Point: opts.Point}

	// The leader gets the full fault wiring — hooked volume, hooked log
	// flush, plane in both the server and the repl node — so disk, wal,
	// commit, steal, and repl.* points all fire on its paths. Followers run
	// clean: the drill kills exactly one node.
	plane := faultinject.New(opts.Seed)
	leaderVol := disk.WithHook(disk.NewMemVolume(), plane)
	leaderLog := wal.NewMemLog()
	leaderLog.FlushHook = plane.FlushHook()
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
	srv, err := esm.NewServer(leaderVol, leaderLog, esm.ServerConfig{BufferPages: 8, Fault: plane})
	if err != nil {
		return nil, err
	}
	nodes := []*replDrillNode{{log: leaderLog}}
	nodes[0].node = repl.NewLeader(srv, nodeCfg("n1", plane))
	for i := 2; i <= 3; i++ {
		fLog := wal.NewMemLog()
		nodes = append(nodes, &replDrillNode{
			log:  fLog,
			node: repl.NewFollower(disk.NewMemVolume(), fLog, nodeCfg(fmt.Sprintf("n%d", i), nil)),
		})
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				a.node.AddPeer(b.node.ID(), "", b.node.Transport())
			}
		}
	}
	defer func() {
		for _, dn := range nodes {
			_ = dn.node.Close()
		}
	}()

	// Baseline: every key committed and quorum-acked before any fault is
	// armed. Failures here are harness problems, not invariant breaks.
	leader := nodes[0].node
	st, err := core.New(esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 32}), core.Config{})
	if err != nil {
		return nil, fmt.Errorf("repl drill baseline: %w", err)
	}
	if err := st.Begin(); err != nil {
		return nil, fmt.Errorf("repl drill baseline: %w", err)
	}
	cl := st.NewCluster()
	keys := make([]*replKey, opts.Keys)
	buf := make([]byte, 16)
	for i := range keys {
		k := &replKey{name: fmt.Sprintf("k%d", i), committed: rng.Uint64()}
		if k.ref, err = st.Alloc(cl, 16, nil); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
		putValue(buf, k.committed)
		if err := st.Space().WriteBytes(k.ref, buf); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
		if err := st.SetRoot(k.name, k.ref); err != nil {
			return nil, fmt.Errorf("repl drill baseline: %w", err)
		}
		keys[i] = k
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
		proposed := map[*replKey]uint64{}
		preCommitErr := false
		for _, i := range picked {
			v := rng.Uint64()
			putValue(buf, v)
			if err := st.Space().WriteBytes(keys[i].ref, buf); err != nil {
				preCommitErr = true
				break
			}
			proposed[keys[i]] = v
		}
		if preCommitErr {
			// The transaction never reached commit: recovery must roll it
			// back wholesale, so the oracle keeps the committed values.
			break
		}
		err := st.Commit()
		if err == nil {
			for k, v := range proposed {
				k.committed = v
			}
			rep.Committed++
			continue
		}
		if !plane.Crashed() {
			rep.violate("commit failed without a crash: %v", err)
			return rep, nil
		}
		// Cut off mid-commit: the new leader's recovery decides whether
		// this transaction happened, and must pick one outcome for all of
		// its keys.
		rep.InDoubt = true
		for k, v := range proposed {
			k.inDoubt = v
			k.touched = true
		}
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
	best, other := nodes[1], nodes[2]
	if other.log.FlushedLSN() > best.log.FlushedLSN() {
		best, other = other, best
	}
	if err := best.node.Campaign(); err != nil {
		if err2 := other.node.Campaign(); err2 != nil {
			rep.violate("no follower could be elected: %v / %v", err, err2)
			return rep, nil
		}
		best = other
	}
	rep.FailedOver = true
	rep.NewLeader = best.node.ID()
	rep.Term = best.node.Term()
	if rep.Term < 2 {
		rep.violate("failover did not advance the term: %d", rep.Term)
	}

	// Verification runs the way a real client would come back: through a
	// Director over every endpoint, which routes around the dead leader.
	d := repl.NewDirector([]repl.Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, repl.DirectorConfig{})
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
	sawCommitted, sawProposed := false, false
	for _, k := range keys {
		ref, err := vs.Root(k.name)
		if err != nil {
			rep.violate("%s: root lost after failover: %v", k.name, err)
			continue
		}
		if err := vs.Space().ReadInto(ref, buf); err != nil {
			rep.violate("%s: unreadable after failover: %v", k.name, err)
			continue
		}
		got, ok := getValue(buf)
		if !ok {
			rep.violate("%s: checksum broken after failover (value %#x)", k.name, got)
			continue
		}
		switch {
		case got == k.committed:
			if k.touched {
				sawCommitted = true
			}
		case k.touched && got == k.inDoubt:
			sawProposed = true
		default:
			rep.violate("%s: quorum-acked value lost: got %#x want %#x", k.name, got, k.committed)
		}
	}
	if err := vs.Abort(); err != nil {
		rep.violate("abort verify txn: %v", err)
	}
	if sawCommitted && sawProposed {
		rep.violate("in-doubt transaction resolved non-atomically: some keys rolled back, some committed")
	}

	// Liveness: the surviving pair is still a quorum; a fresh commit must
	// ack and read back through the Director.
	if err := vs.Begin(); err != nil {
		rep.violate("post-failover begin: %v", err)
		return rep, nil
	}
	const sentinel = 0xFEEDFACECAFEBEEF
	putValue(buf, sentinel)
	ref, err := vs.Root(keys[0].name)
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
	if ref, err = vs.Root(keys[0].name); err == nil {
		err = vs.Space().ReadInto(ref, buf)
	}
	if err != nil {
		rep.violate("post-failover read: %v", err)
	} else if got, ok := getValue(buf); !ok || got != sentinel {
		rep.violate("post-failover write not visible: got %#x ok=%v", got, ok)
	}
	return rep, nil
}
