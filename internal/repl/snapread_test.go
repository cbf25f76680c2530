package repl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/wal"
)

// commitPages writes value into two freshly allocated pages at off through
// the leader, commits, and returns the two page ids plus the committing
// client's last-seen LSN (the commit's LSN — what read-your-writes threads).
func commitPages(t *testing.T, tr esm.Transport, off int, value []byte) (disk.PageID, disk.PageID, uint64) {
	t.Helper()
	c := esm.NewClient(tr, esm.ClientConfig{BufferPages: 8})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	pid1, err := c.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	pid2 := pid1 + 1
	for _, pid := range []disk.PageID{pid1, pid2} {
		i, err := c.FetchPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		data := c.PageData(i)
		old := append([]byte(nil), data[off:off+len(value)]...)
		copy(data[off:], value)
		c.LogUpdate(pid, off, old, value)
		if err := c.MarkDirty(pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return pid1, pid2, c.LastSeenLSN()
}

// A snapshot session begun on the leader keeps reading after the leader
// dies, with no election: the Director fails the retryable snapshot ops
// over to a follower, which reconstructs pages at the session's LSN from
// its installed volume plus the shipped WAL.
func TestSnapshotReadsSurviveLeaderDeath(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	const off = 100
	want := []byte("snapshot-bytes")
	pid1, pid2, _ := commitPages(t, leader.Transport(), off, want)
	waitConverged(t, nodes)

	d := NewDirector([]Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, DirectorConfig{})
	sc := esm.NewClient(d, esm.ClientConfig{BufferPages: 8})
	if err := sc.BeginSnapshot(); err != nil {
		t.Fatalf("begin snapshot: %v", err)
	}
	i, err := sc.FetchPage(pid1) // leader alive: served from its version store
	if err != nil {
		t.Fatalf("snap fetch on leader: %v", err)
	}
	if got := sc.PageData(i)[off : off+len(want)]; string(got) != string(want) {
		t.Fatalf("leader snap read = %q, want %q", got, want)
	}

	kill(nodes[0])

	// Same session, next page: the dead leader's crash latch makes the
	// Director advance, and a follower answers by point-in-time recovery.
	i, err = sc.FetchPage(pid2)
	if err != nil {
		t.Fatalf("snap fetch after leader death: %v", err)
	}
	if got := sc.PageData(i)[off : off+len(want)]; string(got) != string(want) {
		t.Fatalf("follower snap read = %q, want %q", got, want)
	}
	if err := sc.EndSnapshot(); err != nil {
		t.Fatalf("end snapshot: %v", err)
	}
}

// A follower's point-in-time page reconstruction must honor the snapshot
// LSN exactly: a transaction whose effects reached the follower's volume
// via a snapshot install, but which was unresolved at the snapshot point,
// is rolled back in the served image — and stays rolled back at that
// snapshot even after it commits.
func TestFollowerSnapReadUndoesUnresolvedTx(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	leader := nodes[0].node
	const off = 200
	base := []byte("base")
	pid, _, _ := commitPages(t, leader.Transport(), off, base)

	// Truncate the log so the follower attaching later must be fed by
	// snapshot install, whose page images include stolen uncommitted data.
	if err := leader.CurrentServer().Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Open a transaction that overwrites the page and force a mid-tx steal
	// (tiny client pool): the server's frame now holds uncommitted bytes
	// and the update record is durable, but no commit record exists.
	wc := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 2})
	defer wc.Close()
	if err := wc.Begin(); err != nil {
		t.Fatal(err)
	}
	i, err := wc.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	dirty := []byte("DIRT")
	copy(wc.PageData(i)[off:], dirty)
	wc.LogUpdate(pid, off, base, dirty)
	if err := wc.MarkDirty(pid); err != nil {
		t.Fatal(err)
	}
	spare, err := wc.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ { // evicts pid from the 2-frame pool -> steal
		if _, err := wc.FetchPage(spare + disk.PageID(k)); err != nil {
			t.Fatal(err)
		}
	}

	fVol, fLog := disk.NewMemVolume(), wal.NewMemLog()
	f := NewFollower(fVol, fLog, testCfg("n2", 1, nil))
	defer f.Close()
	f.AddPeer("n1", "", leader.Transport())
	leader.AddPeer("n2", "", f.Transport())
	deadline := time.Now().Add(5 * time.Second)
	for fLog.FlushedLSN() != leader.DurableLSN() {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}

	// The installed image carries the stolen uncommitted bytes; a snapshot
	// read must not.
	resp := f.Handle(&esm.Request{Op: esm.OpBeginSnapshot})
	if resp.Err != "" {
		t.Fatalf("follower snap begin: %s", resp.Err)
	}
	snapOld := resp.N
	read := func(at uint64) []byte {
		t.Helper()
		return fullImage(t, readPage(t, f, pid, 0, at))[off : off+len(base)]
	}
	if got := read(snapOld); string(got) != string(base) {
		t.Fatalf("unresolved tx leaked into snapshot: %q, want %q", got, base)
	}

	// Commit the writer; the old snapshot must still see the old bytes
	// (the commit LSN is beyond it), while a fresh snapshot sees the new.
	if err := wc.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for fLog.FlushedLSN() != leader.DurableLSN() {
		if time.Now().After(deadline) {
			t.Fatal("follower never received the commit")
		}
		time.Sleep(time.Millisecond)
	}
	if got := read(snapOld); string(got) != string(base) {
		t.Fatalf("snapshot at %d drifted after later commit: %q, want %q", snapOld, got, base)
	}
	resp = f.Handle(&esm.Request{Op: esm.OpBeginSnapshot})
	if resp.Err != "" {
		t.Fatalf("fresh snap begin: %s", resp.Err)
	}
	if got := read(resp.N); string(got) != string(dirty) {
		t.Fatalf("fresh snapshot missed the commit: %q, want %q", got, dirty)
	}
}

// Read-your-writes across failover: a replica that has not received a
// commit the client already saw refuses the snapshot begin, and the
// Director advances to one that has it.
func TestSnapshotBeginBehindAdvances(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	_, _, lastSeen := commitPages(t, leader.Transport(), 64, []byte("rw"))
	waitConverged(t, nodes)

	// A stale replica that never received a single ship frame.
	stale := NewFollower(disk.NewMemVolume(), wal.NewMemLog(), testCfg("nx", 2, nil))
	defer stale.Close()

	resp := stale.Handle(&esm.Request{Op: esm.OpBeginSnapshot, N: lastSeen})
	if !esm.IsSnapshotBehind(errors.New(resp.Err)) {
		t.Fatalf("stale follower accepted a snapshot it cannot serve: %+v", resp)
	}

	// Director pointed at the stale replica first: the behind error is a
	// refusal, so it must advance and land the begin on a caught-up node.
	d := NewDirector([]Endpoint{
		{ID: "nx", Tr: stale.Transport()},
		{ID: "n1", Tr: leader.Transport()},
	}, DirectorConfig{})
	resp, err := d.Call(&esm.Request{Op: esm.OpBeginSnapshot, N: lastSeen})
	if err != nil {
		t.Fatalf("director begin: %v", err)
	}
	if resp.Err != "" {
		t.Fatalf("director begin: %s", resp.Err)
	}
	if resp.N < lastSeen {
		t.Fatalf("snapshot %d older than client's last-seen %d", resp.N, lastSeen)
	}
}

// The full failover drill at the store level: a snapshot session begun
// under the old leader is killed mid-read, a follower is promoted, and the
// session (a) never sees the promoted leader serve its stale snapshot from
// an empty version store, and (b) re-begins at an LSN covering every
// commit it saw (read-your-writes), recovering all data.
func TestSnapshotSessionAcrossFailover(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node
	putValue(t, leader.Transport(), "k1", "v1")
	putValue(t, leader.Transport(), "k2", "v2")
	waitConverged(t, nodes)

	d := NewDirector([]Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, DirectorConfig{})
	s := openStore(t, d)
	if err := s.BeginSnapshot(); err != nil {
		t.Fatalf("begin snapshot: %v", err)
	}
	readRoot := func(name string) (string, error) {
		ref, err := s.Root(name)
		if err != nil {
			return "", err
		}
		buf := make([]byte, 72)
		if err := s.Space().ReadInto(ref, buf); err != nil {
			return "", err
		}
		return string(buf[1 : 1+int(buf[0])]), nil
	}
	if v, err := readRoot("k1"); err != nil || v != "v1" {
		t.Fatalf("pre-failover snap read k1 = %q, %v", v, err)
	}

	kill(nodes[0])
	best, other := nodes[1], nodes[2]
	if other.log.FlushedLSN() > best.log.FlushedLSN() {
		best, other = other, best
	}
	if err := best.node.Campaign(); err != nil {
		t.Logf("campaign on %s denied (%v); trying %s", best.node.ID(), err, other.node.ID())
		best = other
		if err := best.node.Campaign(); err != nil {
			t.Fatalf("campaign: %v", err)
		}
	}

	// The promoted leader's version store is empty: it must refuse the old
	// snapshot rather than serve it too-new data. The session then restarts
	// its snapshot and reads everything it has seen.
	_, err := readRoot("k2")
	if err == nil {
		t.Fatal("promoted leader served a snapshot older than its version store")
	}
	if !strings.Contains(err.Error(), "snapshot too old") {
		t.Fatalf("stale snapshot error = %v, want snapshot-too-old", err)
	}
	if err := s.EndSnapshot(); err != nil {
		t.Fatalf("end stale snapshot: %v", err)
	}
	if err := s.BeginSnapshot(); err != nil {
		t.Fatalf("re-begin snapshot after failover: %v", err)
	}
	for name, want := range map[string]string{"k1": "v1", "k2": "v2"} {
		if v, err := readRoot(name); err != nil || v != want {
			t.Fatalf("post-failover snap read %s = %q, %v (want %q)", name, v, err, want)
		}
	}
	if err := s.EndSnapshot(); err != nil {
		t.Fatalf("end snapshot: %v", err)
	}
}

// writeRegions overwrites value at each of offs on page pid within c's open
// transaction, one LogUpdate per offset: ascending offsets on one page, so the
// client folds them into one multi-region record.
func writeRegions(t *testing.T, c *esm.Client, pid disk.PageID, offs []int, value string) {
	t.Helper()
	i, err := c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	data := c.PageData(i)
	for _, off := range offs {
		old := append([]byte(nil), data[off:off+len(value)]...)
		copy(data[off:], value)
		c.LogUpdate(pid, off, old, []byte(value))
	}
	if err := c.MarkDirty(pid); err != nil {
		t.Fatal(err)
	}
}

// A follower reconstructs a page at a snapshot LSN from records that each
// carry several regions, and a record is visible whole or not at all: a
// transaction unresolved at the snapshot has every region of its record
// undone from the installed image, one committed by then but shipped after
// the install has every region redone, and a snapshot standing between two
// such records of one page sees all of the first and none of the second.
func TestFollowerSnapReadBetweenRegionRecords(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	leader := nodes[0].node
	offs := []int{100, 300, 500}
	wc := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 8})
	defer wc.Close()
	if err := wc.Begin(); err != nil {
		t.Fatal(err)
	}
	pid, err := wc.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	writeRegions(t, wc, pid, offs, "aaaa")
	if err := wc.Commit(); err != nil {
		t.Fatal(err)
	}
	// The follower attaching below is fed by snapshot install: the image it
	// gets holds transaction B's record, shipped and redone at the leader
	// but not committed.
	if err := leader.CurrentServer().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := wc.Begin(); err != nil {
		t.Fatal(err)
	}
	writeRegions(t, wc, pid, offs, "bbbb")
	if err := wc.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if err := leader.CurrentServer().Checkpoint(); err != nil { // B's bytes reach the volume
		t.Fatal(err)
	}

	fVol, fLog := disk.NewMemVolume(), wal.NewMemLog()
	f := NewFollower(fVol, fLog, testCfg("n2", 1, nil))
	defer f.Close()
	f.AddPeer("n1", "", leader.Transport())
	leader.AddPeer("n2", "", f.Transport())
	caughtUp := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for fLog.FlushedLSN() != leader.DurableLSN() {
			if time.Now().After(deadline) {
				t.Fatal("follower never caught up")
			}
			time.Sleep(time.Millisecond)
		}
	}
	caughtUp()
	installed := make([]byte, disk.PageSize)
	if err := fVol.ReadPage(pid, installed); err != nil {
		t.Fatal(err)
	}
	if string(installed[300:304]) != "bbbb" {
		t.Fatalf("setup: the installed image does not hold the uncommitted record (%q)", installed[300:304])
	}
	begin := func() uint64 {
		t.Helper()
		resp := f.Handle(&esm.Request{Op: esm.OpBeginSnapshot})
		if resp.Err != "" {
			t.Fatalf("follower snap begin: %s", resp.Err)
		}
		return resp.N
	}
	check := func(at uint64, want ...string) {
		t.Helper()
		img := fullImage(t, readPage(t, f, pid, 0, at))
		for i, off := range append(offs, 700) {
			if got := string(img[off : off+4]); got != want[i] {
				t.Errorf("snapshot at %d, offset %d: %q, want %q (all of a record or none of it)", at, off, got, want[i])
			}
		}
	}
	const zero = "\x00\x00\x00\x00"
	beforeB := begin()
	check(beforeB, "aaaa", "aaaa", "aaaa", zero) // B unresolved: every region undone

	if err := wc.Commit(); err != nil {
		t.Fatal(err)
	}
	caughtUp()
	afterB := begin()
	if err := wc.Begin(); err != nil {
		t.Fatal(err)
	}
	writeRegions(t, wc, pid, []int{100, 500, 700}, "dddd")
	if err := wc.Commit(); err != nil {
		t.Fatal(err)
	}
	caughtUp()
	check(beforeB, "aaaa", "aaaa", "aaaa", zero)   // B's commit is beyond it
	check(afterB, "bbbb", "bbbb", "bbbb", zero)    // between B's record and D's: all of B, none of D
	check(begin(), "dddd", "bbbb", "dddd", "dddd") // D arrived by log: every region redone
	var runs, regions int
	if err := fLog.Iterate(func(r wal.Record) bool {
		if r.Type == wal.RecUpdate && r.Page == uint32(pid) {
			runs++
			for it := r.Regions(); it.Next(); {
				regions++
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || regions != 6 {
		t.Errorf("the follower's log holds %d update records of %d regions for the page, want B's and D's, 3 regions each", runs, regions)
	}
}

// TestFollowerReadPagesRoundTrip: a snapshot read of several pages is
// answered by a follower in the leader's format — every entry stale and
// answered with its whole image and no token, in request order — while a
// live read (N = 0) stays leader-only.
func TestFollowerReadPagesRoundTrip(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader, f := nodes[0].node, nodes[1].node
	const off = 100
	want := []byte("both-pages")
	pid1, pid2, seen := commitPages(t, leader.Transport(), off, want)
	waitConverged(t, nodes)

	entries := esm.AppendPageEntry(esm.AppendPageEntry(nil, uint32(pid2), 0), uint32(pid1), 0)
	images := map[string][][]byte{}
	for name, n := range map[string]*Node{"leader": leader, "follower": f} {
		begin := n.Handle(&esm.Request{Op: esm.OpBeginSnapshot, N: seen})
		if begin.Err != "" {
			t.Fatalf("%s: snapshot begin: %s", name, begin.Err)
		}
		resp := n.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid2), N: begin.N, Data: entries})
		if resp.Err != "" {
			t.Fatalf("%s: snapshot read: %s", name, resp.Err)
		}
		a := esm.ReadAnswers(entries, resp.Data)
		for _, pid := range []disk.PageID{pid2, pid1} {
			if !a.Next() || !a.Stale || !a.Answered || a.Kind != esm.PageFull || a.Token != 0 {
				t.Fatalf("%s: page %d: stale %v answered %v kind %d token %d, %d bytes (%v); want its whole image without a token",
					name, pid, a.Stale, a.Answered, a.Kind, a.Token, len(a.Data), a.Err())
			}
			img := make([]byte, disk.PageSize)
			if err := a.Apply(img); err != nil {
				t.Fatalf("%s: page %d: %v", name, pid, err)
			}
			if got := img[off : off+len(want)]; string(got) != string(want) {
				t.Errorf("%s: page %d reads %q, want %q", name, pid, got, want)
			}
			images[name] = append(images[name], img[8:])
		}
		if a.Next() || a.Err() != nil {
			t.Fatalf("%s: answer runs past the request: %v", name, a.Err())
		}
		n.Handle(&esm.Request{Op: esm.OpEndSnapshot, N: begin.N})
	}
	for i := range images["leader"] {
		if string(images["leader"][i]) != string(images["follower"][i]) {
			t.Errorf("entry %d: the follower's reconstruction differs from the leader's image", i)
		}
	}
	if resp := f.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid2), Data: entries}); !IsNotLeader(resp.Err) {
		t.Errorf("follower answered a live read: %+v", resp)
	}
}
