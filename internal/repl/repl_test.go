package repl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// testNode bundles one cluster member's storage with its repl node.
type testNode struct {
	vol   *disk.MemVolume
	log   *wal.Log
	plane *faultinject.Plane
	node  *Node
}

func testCfg(id string, quorum int, plane *faultinject.Plane) Config {
	return Config{
		ID:                id,
		Quorum:            quorum,
		HeartbeatInterval: 10 * time.Millisecond,
		QuorumTimeout:     5 * time.Second,
		Server:            esm.ServerConfig{BufferPages: 64, MVCC: true},
		Fault:             plane,
	}
}

// newCluster builds a leader plus followers-1 follower nodes, fully wired
// with in-process transports.
func newCluster(t *testing.T, n, quorum int) []*testNode {
	t.Helper()
	return newWiredCluster(t, n, quorum, nil)
}

// newWiredCluster is newCluster with each node's transport to another
// passed through wire(from, to, tr), when wire is not nil.
func newWiredCluster(t *testing.T, n, quorum int, wire func(from, to string, tr esm.Transport) esm.Transport) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		tn := &testNode{
			vol:   disk.NewMemVolume(),
			log:   wal.NewMemLog(),
			plane: faultinject.New(int64(i + 1)),
		}
		id := fmt.Sprintf("n%d", i+1)
		cfg := testCfg(id, quorum, tn.plane)
		if i == 0 {
			scfg := cfg.Server
			scfg.Fault = tn.plane
			srv, err := esm.NewServer(tn.vol, tn.log, scfg)
			if err != nil {
				t.Fatal(err)
			}
			tn.node = NewLeader(srv, cfg)
		} else {
			tn.node = NewFollower(tn.vol, tn.log, cfg)
		}
		nodes[i] = tn
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				tr := b.node.Transport()
				if wire != nil {
					tr = wire(a.node.ID(), b.node.ID(), tr)
				}
				a.node.AddPeer(b.node.ID(), "", tr)
			}
		}
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.node.Close()
		}
	})
	return nodes
}

// waitConverged blocks until every node's durable LSN matches the
// leader's (nodes[0]) and every node follows the leader's term.
func waitConverged(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		target, term := nodes[0].node.DurableLSN(), nodes[0].node.Term()
		ok := true
		for _, tn := range nodes[1:] {
			if tn.log.FlushedLSN() != target || tn.node.Term() != term {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never converged")
		}
		time.Sleep(time.Millisecond)
	}
}

func kill(tn *testNode) {
	tn.plane.ArmCrash(faultinject.PtDiskRead, 1)
	tn.plane.Hit(faultinject.PtDiskRead)
}

// openStore attaches a full QuickStore session through tr; the core layer's
// diff-based commit logs every changed page byte, which is exactly what log
// shipping needs for followers to reconstruct pages at promotion.
func openStore(t *testing.T, tr esm.Transport) *core.Store {
	t.Helper()
	c := esm.NewClient(tr, esm.ClientConfig{BufferPages: 64})
	s, err := core.Open(c, core.Config{})
	if err != nil {
		s, err = core.New(c, core.Config{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// putValue commits one named object through tr.
func putValue(t *testing.T, tr esm.Transport, name, value string) {
	t.Helper()
	s := openStore(t, tr)
	if err := s.Begin(); err != nil {
		t.Fatalf("put %s: begin: %v", name, err)
	}
	cl := s.NewCluster()
	ref, err := s.Alloc(cl, 72, nil)
	if err != nil {
		t.Fatalf("put %s: alloc: %v", name, err)
	}
	buf := make([]byte, 72)
	buf[0] = byte(len(value))
	copy(buf[1:], value)
	if err := s.Space().WriteBytes(ref, buf); err != nil {
		t.Fatalf("put %s: write: %v", name, err)
	}
	if err := s.SetRoot(name, ref); err != nil {
		t.Fatalf("put %s: set root: %v", name, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("put %s: commit: %v", name, err)
	}
}

// getValue reads a named object back through tr.
func getValue(t *testing.T, tr esm.Transport, name string) (string, error) {
	t.Helper()
	s := openStore(t, tr)
	if err := s.Begin(); err != nil {
		return "", err
	}
	defer s.Abort()
	ref, err := s.Root(name)
	if err != nil {
		return "", err
	}
	buf := make([]byte, 72)
	if err := s.Space().ReadInto(ref, buf); err != nil {
		return "", err
	}
	n := int(buf[0])
	if n > 71 {
		return "", fmt.Errorf("corrupt payload length %d", n)
	}
	return string(buf[1 : 1+n]), nil
}

func TestQuorumCommitReplicates(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	putValue(t, leader.Transport(), "a", "alpha")
	putValue(t, leader.Transport(), "b", "beta")

	st := leader.ReplStats()
	if st.QuorumCommits < 2 {
		t.Fatalf("quorum commits = %d, want >= 2", st.QuorumCommits)
	}
	// With quorum 2 of 3, at least one follower is durable through the
	// last commit at ack time; the heartbeat catches the other up. Wait
	// for full convergence, then check byte-for-byte log equality.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if nodes[1].log.FlushedLSN() == leader.DurableLSN() &&
			nodes[2].log.FlushedLSN() == leader.DurableLSN() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never converged: leader=%d f1=%d f2=%d",
				leader.DurableLSN(), nodes[1].log.FlushedLSN(), nodes[2].log.FlushedLSN())
		}
		time.Sleep(time.Millisecond)
	}
	if v, err := getValue(t, leader.Transport(), "a"); err != nil || v != "alpha" {
		t.Fatalf("read a = %q, %v", v, err)
	}
}

func TestFollowerRedirectsClients(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	follower := nodes[1].node
	resp := follower.Handle(&esm.Request{Op: esm.OpBegin})
	if !IsNotLeader(resp.Err) {
		t.Fatalf("follower answered a client op: %+v", resp)
	}
	// A Director pointed at the follower first still lands on the leader.
	d := NewDirector([]Endpoint{
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
		{ID: "n1", Tr: nodes[0].node.Transport()},
	}, DirectorConfig{})
	putValue(t, d, "r", "routed")
	if v, err := getValue(t, d, "r"); err != nil || v != "routed" {
		t.Fatalf("read via director = %q, %v", v, err)
	}
}

func TestFailoverPreservesAckedCommits(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	for i := 0; i < 8; i++ {
		putValue(t, leader.Transport(), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	kill(nodes[0])

	// Elect the follower with the longest durable log; with quorum 2 it is
	// guaranteed to hold every acked commit, catalog records included, and
	// the vote compares nothing else, so its first campaign wins.
	best := nodes[1]
	if nodes[2].log.FlushedLSN() > best.log.FlushedLSN() {
		best = nodes[2]
	}
	if err := best.node.Campaign(); err != nil {
		t.Fatalf("campaign on %s: %v", best.node.ID(), err)
	}
	if best.node.Role() != RoleLeader {
		t.Fatalf("campaign won but role = %v", best.node.Role())
	}
	if best.node.Term() < 2 {
		t.Fatalf("term after failover = %d, want >= 2", best.node.Term())
	}

	// Clients re-dial through the Director and find the new leader.
	d := NewDirector([]Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, DirectorConfig{})
	for i := 0; i < 8; i++ {
		v, err := getValue(t, d, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("k%d lost after failover: %v", i, err)
		}
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q after failover", i, v)
		}
	}
	// And the new leader still reaches quorum (itself + the other
	// follower) for fresh commits.
	putValue(t, d, "post", "failover")
	if v, err := getValue(t, d, "post"); err != nil || v != "failover" {
		t.Fatalf("post-failover write = %q, %v", v, err)
	}
	if st := best.node.ReplStats(); st.Elections != 1 {
		t.Fatalf("elections = %d, want 1", st.Elections)
	}
}

// countingTransport counts the calls it forwards.
type countingTransport struct {
	esm.Transport
	calls int
}

func (c *countingTransport) Call(req *esm.Request) (*esm.Response, error) {
	c.calls++
	return c.Transport.Call(req)
}

// brokenTransport fails every call, as a connection that died mid-request.
type brokenTransport struct{}

func (brokenTransport) Call(*esm.Request) (*esm.Response, error) {
	return nil, errors.New("connection reset")
}
func (brokenTransport) Close() error { return nil }

// TestDirectorFailsOverOnlyUnrunBeginningCommits: an OpCommit that begins
// its own transaction (esm.TxBegin) fails over like an OpBegin when a
// crashed node's latch refused it unrun — the next leader begins and
// commits it. A transport error, or a crash that fired inside the commit
// (here after its force), may have left it committed: it surfaces as in
// doubt and no other node is asked. An ordinary commit names a local id
// only its own node knows, so even a refusal unrun is not failed over.
func TestDirectorFailsOverOnlyUnrunBeginningCommits(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	// Both followers hear from the leader before it dies, so the one that
	// campaigns does so in a later term than the dead leader's: in its
	// term they follow it and vote for no one else.
	waitConverged(t, nodes)
	commit := func(tx uint64) *esm.Request { return &esm.Request{Op: esm.OpCommit, Tx: tx} }

	leader := &countingTransport{Transport: nodes[0].node.Transport()}
	d := NewDirector([]Endpoint{{ID: "broken", Tr: brokenTransport{}}, {ID: "n1", Tr: leader}}, DirectorConfig{})
	if _, err := d.Call(commit(esm.TxBegin)); err == nil || leader.calls != 0 {
		t.Fatalf("a beginning commit lost to a transport error: err %v, %d calls failed over", err, leader.calls)
	}

	nodes[0].plane.ArmCrash(faultinject.PtCommitAfterFlush, 1)
	follower := &countingTransport{Transport: nodes[1].node.Transport()}
	d = NewDirector([]Endpoint{{ID: "n1", Tr: nodes[0].node.Transport()}, {ID: "n2", Tr: follower}}, DirectorConfig{})
	resp, err := d.Call(commit(esm.TxBegin))
	if err != nil || !faultinject.IsCrash(errors.New(resp.Err)) || faultinject.IsDown(errors.New(resp.Err)) || follower.calls != 0 {
		t.Fatalf("a beginning commit crashed after its force: %+v, %v, %d calls failed over; want the crash, not failed over", resp, err, follower.calls)
	}

	d = NewDirector([]Endpoint{{ID: "n1", Tr: nodes[0].node.Transport()}, {ID: "n2", Tr: follower}}, DirectorConfig{})
	resp, err = d.Call(commit(5))
	if err != nil || !faultinject.IsDown(errors.New(resp.Err)) || follower.calls != 0 {
		t.Fatalf("an ordinary commit refused unrun: %+v, %v, %d calls failed over; want the refusal, not failed over", resp, err, follower.calls)
	}

	best := nodes[1]
	if nodes[2].log.FlushedLSN() > best.log.FlushedLSN() {
		best = nodes[2]
	}
	if err := best.node.Campaign(); err != nil {
		t.Fatalf("campaign on %s: %v", best.node.ID(), err)
	}
	d = NewDirector([]Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, DirectorConfig{})
	resp, err = d.Call(commit(esm.TxBegin))
	if err != nil || resp.Err != "" {
		t.Fatalf("a beginning commit refused unrun by the dead leader was not failed over: %+v, %v", resp, err)
	}
	commits := 0
	if err := best.log.Iterate(func(r wal.Record) bool {
		if r.Type == wal.RecCommit && uint64(r.LSN) == resp.N {
			commits++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Fatalf("the new leader %s holds no commit record at the answered LSN %d", best.node.ID(), resp.N)
	}
}

// TestCatalogReachesPromotedFollowerThroughTheLog: a file created on the
// leader before an acked commit is a catalog record below the commit's LSN,
// and a root set in it is a record of the commit itself, so the quorum that
// acks the commit holds both, and a promoted follower reads them back from
// its own log. No snapshot is involved.
func TestCatalogReachesPromotedFollowerThroughTheLog(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	c := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("cat.file")
	if err != nil {
		t.Fatal(err)
	}
	root := esm.OID{Page: 9, Slot: 2, Unique: 3, File: fid}
	if err := c.SetRoot("cat.root", root, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := leader.ReplStats(); st.SnapshotsSent != 0 {
		t.Fatalf("leader sent %d snapshots, want 0", st.SnapshotsSent)
	}
	kill(nodes[0])

	best := nodes[1]
	if nodes[2].log.FlushedLSN() > best.log.FlushedLSN() {
		best = nodes[2]
	}
	if err := best.node.Campaign(); err != nil {
		t.Fatalf("campaign on %s: %v", best.node.ID(), err)
	}
	v := esm.NewClient(best.node.Transport(), esm.ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	if got, aux, err := v.GetRoot("cat.root"); err != nil || got != root || aux != 42 {
		t.Fatalf("root on the promoted follower = %v/%d, %v; want %v/42", got, aux, err, root)
	}
	if got, err := v.OpenFile("cat.file"); err != nil || got != fid {
		t.Fatalf("file on the promoted follower = %d, %v; want %d", got, err, fid)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRootReadsBackOnPromotedFollower: a root committed on the leader reads
// back on a promoted follower, and one whose transaction aborted on the
// leader does not: the follower redoes the directory page's records from
// the log it was shipped, commit and abort alike.
func TestRootReadsBackOnPromotedFollower(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	c := esm.NewClient(nodes[0].node.Transport(), esm.ClientConfig{BufferPages: 8})
	kept, dropped := esm.OID{Page: 9, Slot: 1}, esm.OID{Page: 9, Slot: 2}
	for _, commit := range []bool{true, false} {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		oid := kept
		if !commit {
			oid = dropped
		}
		for _, name := range []string{"root.kept", fmt.Sprintf("root.%v", commit)} {
			if err := c.SetRoot(name, oid, 5); err != nil {
				t.Fatal(err)
			}
		}
		end := c.Commit
		if !commit {
			end = c.Abort
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, nodes)
	kill(nodes[0])
	best := nodes[1]
	if nodes[2].log.FlushedLSN() > best.log.FlushedLSN() {
		best = nodes[2]
	}
	if err := best.node.Campaign(); err != nil {
		t.Fatalf("campaign on %s: %v", best.node.ID(), err)
	}
	v := esm.NewClient(best.node.Transport(), esm.ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"root.kept", "root.true"} {
		if got, aux, err := v.GetRoot(name); err != nil || got != kept || aux != 5 {
			t.Errorf("%s on the promoted follower = %v/%d, %v; want %v/5", name, got, aux, err, kept)
		}
	}
	if got, _, err := v.GetRoot("root.false"); err == nil {
		t.Errorf("the aborted root.false is on the promoted follower: %v", got)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleLeaderIsFenced(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	oldLeader := nodes[0].node
	putValue(t, oldLeader.Transport(), "pre", "one")
	waitConverged(t, nodes)

	// Promote n2 while n1 is still alive: n1 must step down on the vote
	// (term 2 > term 1) and refuse client work afterwards.
	if err := nodes[1].node.Campaign(); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for oldLeader.Role() == RoleLeader {
		if time.Now().After(deadline) {
			t.Fatal("old leader never stepped down")
		}
		time.Sleep(time.Millisecond)
	}
	resp := oldLeader.Handle(&esm.Request{Op: esm.OpBegin})
	if !IsNotLeader(resp.Err) {
		t.Fatalf("deposed leader still serving: %+v", resp)
	}
	// A ship frame stamped with the dead term is fenced.
	resp = nodes[2].node.Handle(&esm.Request{Op: esm.OpReplAppend, Tx: 1, N: 1, Name: "n1", Data: (&shipPayload{}).appendTo(nil)})
	if !IsStaleTerm(resp.Err) {
		t.Fatalf("stale-term append accepted: %+v", resp)
	}
	// Data written under term 1 survives under term 2.
	if v, err := getValue(t, nodes[1].node.Transport(), "pre"); err != nil || v != "one" {
		t.Fatalf("pre-failover data = %q, %v", v, err)
	}
}

func TestQuorumTimeoutWhenFollowersUnreachable(t *testing.T) {
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, err := esm.NewServer(vol, logf, esm.ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg("n1", 2, nil)
	cfg.QuorumTimeout = 200 * time.Millisecond
	leader := NewLeader(srv, cfg)
	defer leader.Close()
	// The only follower is dead from the start: quorum 2 is unreachable.
	dead := &testNode{plane: faultinject.New(1)}
	deadVol, deadLog := disk.NewMemVolume(), wal.NewMemLog()
	dead.node = NewFollower(deadVol, deadLog, testCfg("n2", 2, dead.plane))
	defer dead.node.Close()
	kill(dead)
	leader.AddPeer("n2", "", dead.node.Transport())

	c := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("f"); err != nil {
		t.Fatal(err)
	}
	err = c.Commit()
	if err == nil {
		t.Fatal("commit acked without quorum")
	}
	if !strings.Contains(err.Error(), ErrQuorumTimeout.Error()) {
		t.Fatalf("commit error = %v, want quorum timeout", err)
	}
}

// TestLateFollowerCatchesUpBySnapshot: a follower behind the leader's log
// cut is brought up by a snapshot. The snapshot settles the membership
// version too: no ship frame after it carries the member list or is
// answered with a request for it.
func TestLateFollowerCatchesUpBySnapshot(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	leader := nodes[0].node
	putValue(t, leader.Transport(), "old", "data")
	// Checkpoint truncates the log: a follower attaching now cannot be
	// served by log shipping alone.
	if err := leader.CurrentServer().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if leader.log.StartLSN() == 1 {
		t.Fatal("setup: checkpoint did not truncate the log")
	}

	fVol, fLog := disk.NewMemVolume(), wal.NewMemLog()
	f := NewFollower(fVol, fLog, testCfg("n2", 1, nil))
	defer f.Close()
	f.AddPeer("n1", "", leader.Transport())
	tap := &frameTap{Transport: f.Transport()}
	leader.AddPeer("n2", "", tap)

	deadline := time.Now().Add(5 * time.Second)
	for fLog.FlushedLSN() != leader.DurableLSN() || f.Role() != RoleFollower {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader=%d follower=%d",
				leader.DurableLSN(), fLog.FlushedLSN())
		}
		time.Sleep(time.Millisecond)
	}
	if st := leader.ReplStats(); st.SnapshotsSent < 1 {
		t.Fatalf("snapshots sent = %d, want >= 1", st.SnapshotsSent)
	}
	putValue(t, leader.Transport(), "new", "data")
	waitFor(t, "the follower to catch up", func() bool { return fLog.FlushedLSN() == leader.DurableLSN() })
	time.Sleep(50 * time.Millisecond) // a few heartbeats
	frames := tap.since(0)
	if len(frames) < 3 {
		t.Fatalf("%d ship frames after the snapshot, want a commit's and heartbeats", len(frames))
	}
	for i, fr := range frames {
		if fr.members || fr.askedForMembers {
			t.Fatalf("frame %d after the snapshot: carried the list %v, asked for it %v", i, fr.members, fr.askedForMembers)
		}
	}
	// Promote the snapshot-fed follower and read the data back from it.
	if err := f.Campaign(); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if v, err := getValue(t, f.Transport(), "old"); err != nil || v != "data" {
		t.Fatalf("snapshot data on promoted follower = %q, %v", v, err)
	}
}

func TestWaitQuorumFencedOnStepDown(t *testing.T) {
	nodes := newCluster(t, 3, 3) // quorum 3: unreachable once a follower dies
	leader := nodes[0].node
	kill(nodes[2])
	done := make(chan error, 1)
	go func() {
		done <- leader.WaitQuorum(leader.DurableLSN())
	}()
	// A campaign from n2 deposes the leader; the in-flight wait must
	// resolve to a fence, not hang until timeout.
	time.Sleep(20 * time.Millisecond)
	_ = nodes[1].node.Campaign() // may fail for lack of majority; the vote alone deposes n1
	select {
	case err := <-done:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("WaitQuorum = %v, want ErrFenced", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("WaitQuorum hung after step-down")
	}
}

// TestFollowerVotesForNoOneElseInItsLeadersTerm: a follower that follows
// the leader of term 1 refuses its vote to a candidate campaigning in term
// 1 (one that never heard from the leader), and grants it in term 2, so a
// term has at most one leader.
func TestFollowerVotesForNoOneElseInItsLeadersTerm(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	waitConverged(t, nodes)
	vote := func(term uint64) uint64 {
		resp := nodes[2].node.Handle(&esm.Request{Op: esm.OpReplAck, Mode: ModeVote, Tx: term, N: uint64(nodes[0].node.DurableLSN()), Name: "n2"})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp.N
	}
	if vote(1) != 0 {
		t.Fatal("a follower of term 1's leader voted for another candidate in term 1")
	}
	if vote(2) != 1 {
		t.Fatal("the vote in term 2 was refused")
	}
}
