package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// call sends req through h and fails the test on an error answer.
func call(t *testing.T, h esm.Handler, req esm.Request) *esm.Response {
	t.Helper()
	resp := h.Handle(&req)
	if resp.Err != "" {
		t.Fatalf("%v tx %d: %s", req.Op, req.Tx, resp.Err)
	}
	return resp
}

// update is a commit payload of one update record: new written at off of
// pid over old.
func update(pid disk.PageID, off int, old, new string) []byte {
	body := wal.AppendWire(nil, &wal.WireUpdate{Page: uint32(pid), Off: uint16(off), Undo: old != "", New: []byte(new)})
	return append(binary.LittleEndian.AppendUint32(nil, 1), body...)
}

// checkpoint runs a checkpoint on the leader's server.
func checkpoint(t *testing.T, leader *Node) {
	t.Helper()
	if err := leader.CurrentServer().Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// waitAcked blocks until the leader has seen every follower ack its whole
// durable log: a follower the leader saw caught up is one a checkpoint
// waits for.
func waitAcked(t *testing.T, leader *Node) {
	t.Helper()
	waitFor(t, "the followers' acks", func() bool { return leader.ReplStats().MaxFollowerGap == 0 })
}

// bytesAt reads n bytes at off of page pid from vol.
func bytesAt(t *testing.T, vol disk.Volume, pid disk.PageID, off, n int) string {
	t.Helper()
	buf := make([]byte, disk.PageSize)
	if err := vol.ReadPage(pid, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf[off : off+n])
}

// heapInuse is HeapInuse once garbage, and the sync.Pools' victim caches,
// are gone.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestReplicaGroupHeapBoundedByCheckpoint commits N and then 3N more small
// transactions through a leader with two followers, checkpointing after
// each run: after the checkpoint the group holds no more heap at 4N
// commits than at N. Without the group cut each follower kept its whole
// log, and the leader's page-change index its largest size between cuts.
func TestReplicaGroupHeapBoundedByCheckpoint(t *testing.T) {
	const n = 5000
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	c := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 8})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	pid, err := c.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	var v uint64
	commits := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			f, err := c.FetchPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			data := c.PageData(f)
			old := string(data[64:72])
			v++
			binary.LittleEndian.PutUint64(data[64:], v)
			c.LogUpdate(pid, 64, []byte(old), data[64:72])
			if err := c.MarkDirty(pid); err != nil {
				t.Fatal(err)
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		waitConverged(t, nodes)
		waitAcked(t, leader)
		checkpoint(t, leader)
	}
	commits(n)
	before := heapInuse()
	commits(3 * n)
	after := heapInuse()
	t.Logf("HeapInuse %.2f MB after %d commits, %.2f MB after %d", float64(before)/(1<<20), n, float64(after)/(1<<20), 4*n)
	if after > before && after-before >= 512<<10 {
		t.Fatalf("the replica group's heap grew %d KB from %d to %d commits, each run ending in a checkpoint", (after-before)>>10, n, 4*n)
	}
	for _, tn := range nodes[1:] {
		if got, want := tn.log.StartLSN(), leader.log.StartLSN(); got != want {
			t.Errorf("%s: log starts at %d, the leader's at %d", tn.node.ID(), got, want)
		}
	}
}

// TestFollowerCutsWhereLeaderCut: once a checkpoint returns, each follower
// that was caught up starts its log where the leader's starts, and its
// volume holds every committed byte the cut dropped from its log. A
// follower held back below the checkpoint's durable end keeps its log
// until it catches up, and then cuts it there too.
func TestFollowerCutsWhereLeaderCut(t *testing.T) {
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
	const off = 100
	pid1, pid2, _ := commitPages(t, leader.Transport(), off, []byte("first-run"))
	waitConverged(t, nodes)
	waitAcked(t, leader)
	checkpoint(t, leader)
	start := leader.log.StartLSN()
	if start == 1 {
		t.Fatal("setup: the checkpoint did not cut the leader's log")
	}
	for _, tn := range nodes[1:] {
		if got := tn.log.StartLSN(); got != start {
			t.Errorf("%s: log starts at %d after the checkpoint, the leader's at %d", tn.node.ID(), got, start)
		}
		for _, pid := range []disk.PageID{pid1, pid2} {
			if got := bytesAt(t, tn.vol, pid, off, 9); got != "first-run" {
				t.Errorf("%s: page %d holds %q on its volume, want the committed bytes", tn.node.ID(), pid, got)
			}
		}
	}

	// U, left open, keeps the next cut below what n3 holds; then n3 falls
	// behind, and the next commit and the checkpoint's catalog reach only
	// n2. The checkpoint waits for n3, which was caught up to the cut, and
	// n3 does not cut below the checkpoint's durable end.
	u := call(t, leader, esm.Request{Op: esm.OpBegin}).N
	waitConverged(t, nodes)
	waitAcked(t, leader)
	stall.mu.Lock()
	stall.gate = make(chan struct{})
	stall.mu.Unlock()
	commitPages(t, leader.Transport(), off, []byte("second-run"))
	done := make(chan error, 1)
	go func() { done <- leader.CurrentServer().Checkpoint() }()
	waitFor(t, "the leader and n2 to cut", func() bool {
		return leader.log.StartLSN() > start && nodes[1].log.StartLSN() == leader.log.StartLSN()
	})
	start = leader.log.StartLSN()
	time.Sleep(20 * time.Millisecond)
	if got := nodes[2].log.StartLSN(); got == start {
		t.Fatal("n3 cut its log below a durable end it never reached")
	}
	select {
	case err := <-done:
		t.Fatalf("the checkpoint returned (%v) before n3, caught up to its cut, cut too", err)
	default:
	}
	close(stall.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := nodes[2].log.StartLSN(); got != start {
		t.Errorf("n3: log starts at %d once the checkpoint returned, the leader's at %d", got, start)
	}
	call(t, leader, esm.Request{Op: esm.OpAbort, Tx: u})
}

// TestPromotedFollowerAfterCutKeepsAckedCommits: a follower promoted after
// its log was cut reads back every acked commit, keeps a prepared
// participant in doubt and a coordinator's unforgotten decision, both open
// across the checkpoint (the decision's update lies below the cut, its
// record above). So does a follower killed between its volume sync and its
// log cut and restarted, and a follower that cut further than the one
// promoted catches up by snapshot.
func TestPromotedFollowerAfterCutKeepsAckedCommits(t *testing.T) {
	t.Run("promoted", func(t *testing.T) {
		nodes := newCluster(t, 3, 2)
		leader := nodes[0].node
		putValue(t, leader.Transport(), "before", "cut")
		pages, err := leader.CurrentServer().Volume().Allocate(2)
		if err != nil {
			t.Fatal(err)
		}
		pidD, pidP := pages, pages+1
		d := call(t, leader, esm.Request{Op: esm.OpBegin}).N
		call(t, leader, esm.Request{Op: esm.OpCommitDecision, Tx: d, Mode: esm.DecisionCommit | esm.DecisionCoord,
			Data: update(pidD, 200, "\x00\x00\x00\x00", "DDDD")})
		p := call(t, leader, esm.Request{Op: esm.OpBegin}).N
		call(t, leader, esm.Request{Op: esm.OpPrepare, Tx: p, Page: 1, N: 77, Data: update(pidP, 200, "\x00\x00\x00\x00", "PPPP")})
		waitConverged(t, nodes)
		waitAcked(t, leader)
		checkpoint(t, leader)
		cut := leader.log.StartLSN()
		for _, tn := range nodes[1:] {
			if got := tn.log.StartLSN(); got != cut {
				t.Fatalf("%s: log starts at %d, the leader's at %d", tn.node.ID(), got, cut)
			}
		}
		if got := bytesAt(t, nodes[1].vol, pidD, 200, 4); got != "DDDD" {
			t.Fatalf("setup: the decided update is not below the cut (n2's volume holds %q)", got)
		}
		putValue(t, leader.Transport(), "after", "cut")
		waitConverged(t, nodes)

		kill(nodes[0])
		if err := nodes[1].node.Campaign(); err != nil {
			t.Fatal(err)
		}
		next := nodes[1].node
		for name, want := range map[string]string{"before": "cut", "after": "cut"} {
			if v, err := getValue(t, next.Transport(), name); err != nil || v != want {
				t.Errorf("%s reads %q (%v) on the promoted follower, want %q", name, v, err, want)
			}
		}
		srv := next.CurrentServer()
		if srv.InDoubtCount() != 1 || srv.DecisionCount() != 1 {
			t.Fatalf("promoted follower holds %d in doubt and %d decisions, want the prepared participant and the decision", srv.InDoubtCount(), srv.DecisionCount())
		}
		if r := call(t, next, esm.Request{Op: esm.OpResolveTx, Mode: esm.ResolveModeInquire, Tx: d}); r.N != esm.ResolveCommitted {
			t.Errorf("inquiry for the decided transaction answers %d, want committed", r.N)
		}
		call(t, next, esm.Request{Op: esm.OpCommitDecision, Tx: p, Mode: esm.DecisionCommit})
		checkpoint(t, next)
		for pid, want := range map[disk.PageID]string{pidD: "DDDD", pidP: "PPPP"} {
			if got := bytesAt(t, nodes[1].vol, pid, 200, 4); got != want {
				t.Errorf("page %d holds %q after the verdicts, want %q", pid, got, want)
			}
		}
	})

	t.Run("killed between sync and cut", func(t *testing.T) {
		nodes := newCluster(t, 3, 2)
		leader := nodes[0].node
		putValue(t, leader.Transport(), "k", "v1")
		waitConverged(t, nodes)
		waitAcked(t, leader)
		nodes[1].plane.ArmCrash(faultinject.PtCheckpointBeforeTruncate, 1)
		checkpoint(t, leader)
		if !nodes[1].plane.Crashed() {
			t.Fatal("setup: n2 never reached its log cut")
		}
		if nodes[1].log.StartLSN() != 1 {
			t.Fatal("setup: n2 cut its log before it crashed")
		}
		kill(nodes[0])
		restarted := NewFollower(nodes[1].vol, nodes[1].log, testCfg("n2", 2, nil))
		t.Cleanup(func() { restarted.Close() })
		restarted.AddPeer("n1", "", nodes[0].node.Transport())
		restarted.AddPeer("n3", "", nodes[2].node.Transport())
		// A restarted node remembers no term: its first campaign, at the
		// dead leader's term, finds n3 following that leader.
		if err := restarted.Campaign(); err != nil {
			if err := restarted.Campaign(); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := getValue(t, restarted.Transport(), "k"); err != nil || v != "v1" {
			t.Fatalf("k reads %q (%v) on the restarted follower, want v1", v, err)
		}
	})

	t.Run("cut further than the promoted follower", func(t *testing.T) {
		link := &failTransport{}
		nodes := newWiredCluster(t, 3, 2, func(from, to string, tr esm.Transport) esm.Transport {
			if from != "n1" || to != "n3" {
				return tr
			}
			link.Transport = tr
			return link
		})
		leader := nodes[0].node
		putValue(t, leader.Transport(), "k", "v1")
		// U, left open, pins the cut at what n3 holds; n3's link fails
		// through the next commit and the checkpoint, so n3 catches up by
		// log, not by snapshot, and then refuses every cut: its log keeps
		// the history n2's dropped.
		call(t, leader, esm.Request{Op: esm.OpBegin})
		waitConverged(t, nodes)
		waitAcked(t, leader)
		link.fail.Store(true)
		putValue(t, leader.Transport(), "k2", "v2")
		checkpoint(t, leader)
		nodes[2].plane.ArmTransient(faultinject.PtCheckpointBeforeTruncate, 1<<30)
		link.fail.Store(false)
		waitConverged(t, nodes)
		if nodes[1].log.StartLSN() == 1 || nodes[2].log.StartLSN() != 1 {
			t.Fatalf("setup: n2's log starts at %d, n3's at %d", nodes[1].log.StartLSN(), nodes[2].log.StartLSN())
		}
		// n2 answers a frame from the start of n3's log as it always has:
		// compacted, snapshot required.
		frame := (&shipPayload{LeaderDurable: nodes[2].log.FlushedLSN(), Log: mustDurable(t, nodes[2].log)}).appendTo(nil)
		if r := nodes[1].node.Handle(&esm.Request{Op: esm.OpReplAppend, Tx: leader.Term(), N: 1, Data: frame}); r.Page != ackSnapshot {
			t.Fatalf("n2 answered a frame below its log's start with %+v, want a snapshot request", r)
		}
		kill(nodes[0])
		if err := nodes[2].node.Campaign(); err != nil {
			t.Fatal(err)
		}
		next := nodes[2].node
		waitFor(t, "n2 to catch up with the promoted n3 by snapshot", func() bool {
			return nodes[1].log.StartLSN() == nodes[2].log.StartLSN() && nodes[1].log.FlushedLSN() == nodes[2].log.FlushedLSN() &&
				next.ReplStats().SnapshotsSent >= 1
		})
		for name, want := range map[string]string{"k": "v1", "k2": "v2"} {
			if v, err := getValue(t, next.Transport(), name); err != nil || v != want {
				t.Errorf("%s reads %q (%v), want %q", name, v, err, want)
			}
		}
	})
}

// failTransport fails every call while fail is set: a follower whose link
// is down.
type failTransport struct {
	esm.Transport
	fail atomic.Bool
}

func (f *failTransport) Call(req *esm.Request) (*esm.Response, error) {
	if f.fail.Load() {
		return nil, errors.New("link down")
	}
	return f.Transport.Call(req)
}

// mustDurable is l's whole durable log.
func mustDurable(t *testing.T, l *wal.Log) []byte {
	t.Helper()
	b, err := l.DurableFrom(l.StartLSN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFollowerSnapReadBelowCutRefused: T updates a page, U begins, T
// commits, and a checkpoint cuts the log at U's first record. A follower
// holding the page's image with T's bytes and a log without T's record —
// whether it cut at the leader's checkpoint or was installed by snapshot
// after it — refuses a snapshot between U's begin and T's commit rather
// than serve T's bytes as committed, and serves a snapshot after T's
// commit.
func TestFollowerSnapReadBelowCutRefused(t *testing.T) {
	interleave := func(t *testing.T, leader *Node) (pid disk.PageID, tCommit wal.LSN) {
		t.Helper()
		pages, err := leader.CurrentServer().Volume().Allocate(2)
		if err != nil {
			t.Fatal(err)
		}
		tx := call(t, leader, esm.Request{Op: esm.OpBegin}).N
		call(t, leader, esm.Request{Op: esm.OpLog, Tx: tx, Data: update(pages, 300, "\x00\x00\x00\x00", "TTTT")})
		u := call(t, leader, esm.Request{Op: esm.OpBegin}).N
		call(t, leader, esm.Request{Op: esm.OpLog, Tx: u, Data: update(pages+1, 300, "\x00\x00\x00\x00", "UUUU")})
		tCommit = wal.LSN(call(t, leader, esm.Request{Op: esm.OpCommit, Tx: tx}).N)
		checkpoint(t, leader)
		if start := leader.log.StartLSN(); start >= tCommit {
			t.Fatalf("setup: the cut at %d is not below T's commit at %d", start, tCommit)
		}
		return pages, tCommit
	}
	check := func(t *testing.T, f *Node, fVol disk.Volume, pid disk.PageID, tCommit wal.LSN) {
		t.Helper()
		if got := bytesAt(t, fVol, pid, 300, 4); got != "TTTT" {
			t.Fatalf("setup: the follower's volume holds %q, not T's bytes", got)
		}
		entries := esm.AppendPageEntry(nil, uint32(pid), 0)
		resp := f.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid), N: uint64(tCommit - 1), Data: entries})
		if !strings.Contains(resp.Err, "snapshot too old") {
			if resp.Err == "" {
				a := esm.ReadAnswers(entries, resp.Data)
				a.Next()
				t.Fatalf("a snapshot below T's commit was served %q, want it refused as too old", fullImage(t, a)[300:304])
			}
			t.Fatalf("a snapshot below T's commit: %s, want it refused as too old", resp.Err)
		}
		begin := f.Handle(&esm.Request{Op: esm.OpBeginSnapshot})
		if begin.Err != "" {
			t.Fatal(begin.Err)
		}
		if got := string(fullImage(t, readPage(t, f, pid, 0, begin.N))[300:304]); got != "TTTT" {
			t.Errorf("a snapshot after T's commit reads %q, want T's bytes", got)
		}
	}

	t.Run("cut", func(t *testing.T) {
		nodes := newCluster(t, 2, 2)
		pid, tCommit := interleave(t, nodes[0].node)
		if got, want := nodes[1].log.StartLSN(), nodes[0].log.StartLSN(); got != want {
			t.Fatalf("setup: the follower's log starts at %d, the leader's at %d", got, want)
		}
		check(t, nodes[1].node, nodes[1].vol, pid, tCommit)
	})

	t.Run("install", func(t *testing.T) {
		nodes := newCluster(t, 1, 1)
		leader := nodes[0].node
		pid, tCommit := interleave(t, leader)
		fVol, fLog := disk.NewMemVolume(), wal.NewMemLog()
		f := NewFollower(fVol, fLog, testCfg("n2", 1, nil))
		defer f.Close()
		f.AddPeer("n1", "", leader.Transport())
		leader.AddPeer("n2", "", f.Transport())
		waitFor(t, "the follower's install", func() bool { return fLog.FlushedLSN() == leader.DurableLSN() })
		if leader.ReplStats().SnapshotsSent < 1 {
			t.Fatal("setup: the follower was not installed by snapshot")
		}
		check(t, f, fVol, pid, tCommit)
	})
}

// TestFollowerSnapReadsAcrossCuts reads a follower's snapshots from two
// goroutines while the leader commits and checkpoints, so the follower
// cuts under them. Each read is answered with the page as of its snapshot
// or refused as too old, never anything else, and a snapshot begun after
// the last cut reads the last value.
func TestFollowerSnapReadsAcrossCuts(t *testing.T) {
	nodes := newCluster(t, 2, 2)
	leader, f := nodes[0].node, nodes[1].node
	const off = 100
	pid, _, _ := commitPages(t, leader.Transport(), off, []byte("v00"))
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				begin := f.Handle(&esm.Request{Op: esm.OpBeginSnapshot})
				entries := esm.AppendPageEntry(nil, uint32(pid), 0)
				resp := f.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid), N: begin.N, Data: entries})
				if strings.Contains(resp.Err, "snapshot too old") {
					continue
				}
				if begin.Err != "" || resp.Err != "" {
					errs <- fmt.Errorf("snapshot at %d: %s%s", begin.N, begin.Err, resp.Err)
					return
				}
				a := esm.ReadAnswers(entries, resp.Data)
				img := make([]byte, disk.PageSize)
				if !a.Next() || a.Apply(img) != nil || img[off] != 'v' {
					errs <- fmt.Errorf("snapshot at %d: page reads %q", begin.N, img[off:off+3])
					return
				}
			}
		}()
	}
	c := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 8})
	defer c.Close()
	for i := 1; i <= 20; i++ {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		fr, err := c.FetchPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		data := c.PageData(fr)
		val := fmt.Sprintf("v%02d", i)
		old := string(data[off : off+3])
		copy(data[off:], val)
		c.LogUpdate(pid, off, []byte(old), []byte(val))
		if err := c.MarkDirty(pid); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		checkpoint(t, leader)
	}
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	waitConverged(t, nodes)
	begin := call(t, f, esm.Request{Op: esm.OpBeginSnapshot})
	if got := string(fullImage(t, readPage(t, f, pid, 0, begin.N))[off : off+3]); got != "v20" {
		t.Errorf("a snapshot after the last cut reads %q, want v20", got)
	}
}
