package repl

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/oo7"
	"quickstore/internal/wal"
)

// frameTap records, for every ship frame through it, whether the frame
// carried a member list and whether the answer asked for one.
type frameTap struct {
	esm.Transport
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct{ members, askedForMembers bool }

func (f *frameTap) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op != esm.OpReplAppend {
		return f.Transport.Call(req)
	}
	p, perr := parseShip(req.Data)
	resp, err := f.Transport.Call(req)
	if perr == nil && err == nil && resp.Err == "" {
		f.mu.Lock()
		f.frames = append(f.frames, tappedFrame{members: p.Members != nil, askedForMembers: resp.Mode&ackNeedMembers != 0})
		f.mu.Unlock()
	}
	return resp, err
}

// since returns the frames recorded from index from on.
func (f *frameTap) since(from int) []tappedFrame {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.frames[min(from, len(f.frames)):])
}

func (f *frameTap) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.frames)
}

// memberIDs lists the membership n holds, sorted.
func memberIDs(n *Node) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var ids []string
	for id := range n.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerLearnsMembershipChange: a member added to the leader after
// its followers caught up reaches every follower, the new one included,
// through the ship frames. Each follower acks the new version once, and
// the frames after that ack carry no member list; one that loses the list
// asks for it again. A follower promoted
// afterwards counts the new majority: with four members its campaign needs
// three votes, so the two it can reach (its own and a peer's) lose, and
// three win.
func TestFollowerLearnsMembershipChange(t *testing.T) {
	taps := map[string]*frameTap{}
	nodes := newWiredCluster(t, 3, 2, func(from, to string, tr esm.Transport) esm.Transport {
		if from != "n1" {
			return tr
		}
		taps[to] = &frameTap{Transport: tr}
		return taps[to]
	})
	leader := nodes[0].node

	putValue(t, leader.Transport(), "a", "alpha")
	waitConverged(t, nodes)
	three := []string{"n1", "n2", "n3"}
	for _, tn := range nodes[1:] {
		if got := memberIDs(tn.node); !slices.Equal(got, three) {
			t.Fatalf("%s holds members %v, want %v", tn.node.ID(), got, three)
		}
	}

	n4 := &testNode{vol: disk.NewMemVolume(), log: wal.NewMemLog(), plane: faultinject.New(4)}
	n4.node = NewFollower(n4.vol, n4.log, testCfg("n4", 2, n4.plane))
	t.Cleanup(func() { n4.node.Close() })
	marks := map[string]int{}
	for id, tap := range taps {
		marks[id] = tap.count()
	}
	leader.AddPeer("n4", "", n4.node.Transport())
	four := []string{"n1", "n2", "n3", "n4"}
	for _, tn := range append(nodes[1:], n4) {
		waitFor(t, tn.node.ID()+" to learn n4", func() bool { return slices.Equal(memberIDs(tn.node), four) })
	}
	// The leader also hears each follower's ack of the new version, and
	// ships to them on: a commit and a few heartbeats.
	waitFor(t, "every follower's ack of the membership", func() bool {
		leader.mu.Lock()
		defer leader.mu.Unlock()
		for _, p := range leader.peers {
			if p.acked != leader.memberVer {
				return false
			}
		}
		return true
	})
	putValue(t, leader.Transport(), "b", "beta")
	time.Sleep(50 * time.Millisecond)
	for id, tap := range taps {
		frames := tap.since(marks[id])
		withList := 0
		for i, f := range frames {
			if f.askedForMembers {
				t.Fatalf("frame %d to %s: the follower asked for the member list", i, id)
			}
			if f.members {
				if withList++; i != 0 {
					t.Fatalf("frame %d to %s carried the member list, after the follower acked it with frame 0", i, id)
				}
			}
		}
		if withList != 1 || len(frames) < 3 {
			t.Fatalf("%s got %d frames after the change, %d of them with the member list; want one, then frames without", id, len(frames), withList)
		}
	}

	// A follower that lost the membership (a restarted process holds only
	// itself) asks for the list in its next answer, and gets it.
	n3 := nodes[2].node
	n3.mu.Lock()
	n3.members = map[string]string{}
	n3.setMemberLocked("n3", "")
	n3.heldTerm, n3.heldVer = 0, 0
	n3.mu.Unlock()
	waitFor(t, "n3 to learn the membership again", func() bool { return slices.Equal(memberIDs(n3), four) })

	// Promote n2 with the leader dead. n4 is a member n2 learned but cannot
	// reach (it has no transport to it), so n2's two votes lose under the
	// four-member majority; with a transport to n4 the third vote wins.
	kill(nodes[0])
	err := nodes[1].node.Campaign()
	if err == nil || !strings.Contains(err.Error(), "2/3 votes") {
		t.Fatalf("campaign with 2 of 4 members reachable: %v, want a loss at 2/3 votes", err)
	}
	nodes[1].node.AddPeer("n4", "", n4.node.Transport())
	if got := memberIDs(nodes[1].node); !slices.Equal(got, four) {
		t.Fatalf("n2 holds members %v after adding a transport to n4, want %v", got, four)
	}
	if err := nodes[1].node.Campaign(); err != nil {
		t.Fatalf("campaign with 3 of 4 members reachable: %v", err)
	}
	if v, err := getValue(t, nodes[1].node.Transport(), "b"); err != nil || v != "beta" {
		t.Fatalf("read on the promoted follower = %q, %v", v, err)
	}
}

// maxReplicatedCommitAllocs bounds the allocations of one replicated
// commit: the log's group-commit batch is one, and a follower's pooled
// answer is allocated now and again under the race detector, whose
// sync.Pool drops a quarter of what is put back. Shipping that allocated a
// frame, a request or a waiter per commit (34 in all) fails it.
const maxReplicatedCommitAllocs = 4

// TestReplicatedCommitAllocs: in steady state, a replicated commit — a
// record appended to the leader's log, its group-commit force and the
// quorum wait, with the leader shipping it to two followers that append,
// force and ack it — allocates at most maxReplicatedCommitAllocs objects
// across every goroutine: the leader's frames, requests and waiters are
// reused, and a frame to a follower that holds the membership carries no
// member list.
func TestReplicatedCommitAllocs(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0]
	rec := wal.Record{Tx: 1, Type: wal.RecUpdate, Page: 1, Off: 64, New: bytes.Repeat([]byte{7}, 32)}
	commit := func() {
		lsn := leader.log.Append(rec)
		if err := leader.log.FlushCommit(lsn); err != nil {
			t.Fatal(err)
		}
		if err := leader.node.WaitQuorum(lsn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		commit()
	}
	waitConverged(t, nodes)
	allocs := testing.AllocsPerRun(500, commit)
	t.Logf("%.2f allocations per replicated commit", allocs)
	if allocs > maxReplicatedCommitAllocs {
		t.Fatalf("%.2f allocations per replicated commit, want <= %d", allocs, maxReplicatedCommitAllocs)
	}
	waitConverged(t, nodes)
	if st := leader.node.ReplStats(); st.QuorumCommits < 700 {
		t.Fatalf("%d quorum-gated commits, want every one of the 700", st.QuorumCommits)
	}
}

// stallTransport holds every call until its gate closes: a follower
// whose network is slow.
type stallTransport struct {
	esm.Transport
	mu   sync.Mutex
	gate chan struct{}
}

func (s *stallTransport) Call(req *esm.Request) (*esm.Response, error) {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	<-gate
	return s.Transport.Call(req)
}

// TestCommitWaitsOnlyForTheQuorum: with a quorum of two out of three, a
// commit is acked once the leader and its faster follower hold it, while
// the frame to the other follower is still stuck in flight; that follower
// catches up once its link clears.
func TestCommitWaitsOnlyForTheQuorum(t *testing.T) {
	stall := &stallTransport{gate: make(chan struct{})}
	close(stall.gate)
	nodes := newWiredCluster(t, 3, 2, func(from, to string, tr esm.Transport) esm.Transport {
		if from != "n1" || to != "n3" {
			return tr
		}
		stall.Transport = tr
		return stall
	})
	leader := nodes[0].node
	putValue(t, leader.Transport(), "a", "alpha")
	waitConverged(t, nodes)
	stall.mu.Lock()
	stall.gate = make(chan struct{})
	stall.mu.Unlock()
	released := false
	release := func() {
		if !released {
			close(stall.gate)
			released = true
		}
	}
	defer release()

	putValue(t, leader.Transport(), "b", "beta")
	if nodes[2].log.FlushedLSN() == leader.DurableLSN() {
		t.Fatal("setup: the stalled follower holds the commit")
	}
	release()
	waitConverged(t, nodes)
}

// snapTap records the size of every snapshot frame through it.
type snapTap struct {
	esm.Transport
	mu    sync.Mutex
	sizes []int
}

func (s *snapTap) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op == esm.OpReplSnapshot {
		s.mu.Lock()
		s.sizes = append(s.sizes, len(req.Data))
		s.mu.Unlock()
	}
	return s.Transport.Call(req)
}

// TestSnapshotShipsSparse: a leader volume of 1,024 pages, 16 of them
// holding a 128-byte object, reaches a late follower in a snapshot frame
// under 64 KB, where the pages raw are over 8 MB, and the follower's volume
// is then the leader's byte for byte. Building the snapshot allocates far
// fewer times than it has pages: each page is read into one buffer and
// encoded straight into the frame.
func TestSnapshotShipsSparse(t *testing.T) {
	const numPages = 1024
	nodes := newCluster(t, 1, 1)
	leader, vol := nodes[0].node, nodes[0].vol
	putValue(t, leader.Transport(), "old", "data")
	checkpoint(t, leader) // a follower attaching now needs a snapshot
	if err := vol.Grow(numPages); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	page := make([]byte, disk.PageSize)
	for i := 0; i < 16; i++ {
		clear(page)
		rng.Read(page[256*i : 256*i+128])
		if err := vol.WritePage(disk.PageID(numPages-1-60*i), page); err != nil {
			t.Fatal(err)
		}
	}

	fVol, fLog := disk.NewMemVolume(), wal.NewMemLog()
	f := NewFollower(fVol, fLog, testCfg("n2", 1, nil))
	defer f.Close()
	f.AddPeer("n1", "", leader.Transport())
	tap := &snapTap{Transport: f.Transport()}
	leader.AddPeer("n2", "", tap)
	waitFor(t, "the follower to install a snapshot", func() bool {
		return leader.ReplStats().SnapshotsSent >= 1 && fLog.FlushedLSN() == leader.DurableLSN()
	})
	tap.mu.Lock()
	sizes := slices.Clone(tap.sizes)
	tap.mu.Unlock()
	if len(sizes) == 0 || sizes[0] >= 64<<10 {
		t.Fatalf("snapshot frames of %v bytes, want one under 64 KB (raw pages: %d bytes)", sizes, (numPages-1)*disk.PageSize)
	}
	if got := fVol.NumPages(); got != numPages {
		t.Fatalf("follower volume of %d pages, want %d", got, numPages)
	}
	want := make([]byte, disk.PageSize)
	for pid := disk.PageID(1); pid < numPages; pid++ {
		if err := vol.ReadPage(pid, want); err != nil {
			t.Fatal(err)
		}
		if err := fVol.ReadPage(pid, page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, want) {
			t.Fatalf("follower page %d differs from the leader's", pid)
		}
	}

	srv := leader.CurrentServer()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := leader.buildSnapshot(srv, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > numPages/16 {
		t.Fatalf("building a snapshot of %d pages: %v allocs, want at most %d", numPages-1, allocs, numPages/16)
	}
	t.Logf("snapshot frame %d bytes; %v allocs to build", sizes[0], allocs)
}

// BenchmarkSnapshotOO7Small builds a leader's snapshot of the OO7 small
// database (bulk-loaded, then checkpointed) and installs it on a follower,
// each as a sub-benchmark. Both report the frame's size and the size of the
// volume's pages raw. The follower's volume is checked against the
// leader's once, before timing.
func BenchmarkSnapshotOO7Small(b *testing.B) {
	vol, log := disk.NewMemVolume(), wal.NewMemLog()
	cfg := testCfg("n1", 1, nil)
	srv, err := esm.NewServer(vol, log, cfg.Server)
	if err != nil {
		b.Fatal(err)
	}
	leader := NewLeader(srv, cfg)
	defer leader.Close()
	st, err := core.New(esm.NewClient(leader.Transport(), esm.ClientConfig{}), core.Config{BulkLoad: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := oo7.Generate(oo7.NewQS(st, false), oo7.Small()); err != nil {
		b.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	frame, start, err := leader.buildSnapshot(srv, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	req := &esm.Request{Op: esm.OpReplSnapshot, Tx: leader.Term(), N: uint64(start), Name: "n1", Data: frame}
	fVol := disk.NewMemVolume()
	f := NewFollower(fVol, wal.NewMemLog(), testCfg("n2", 1, nil))
	defer f.Close()
	install := func(b *testing.B) {
		if resp := f.Handle(req); resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
	install(b)
	want, got := make([]byte, disk.PageSize), make([]byte, disk.PageSize)
	for pid := disk.PageID(1); pid < disk.PageID(vol.NumPages()); pid++ {
		if err := vol.ReadPage(pid, want); err != nil {
			b.Fatal(err)
		}
		if err := fVol.ReadPage(pid, got); err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			b.Fatalf("follower page %d differs from the leader's", pid)
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(frame))/1024, "frame_kb")
		b.ReportMetric(float64((vol.NumPages()-1)*disk.PageSize)/1024, "raw_kb")
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := leader.buildSnapshot(srv, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("install", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			install(b)
		}
		report(b)
	})
}
