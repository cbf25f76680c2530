package esm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// seedCohObject commits one small object holding val and returns its OID.
func seedCohObject(t *testing.T, srv *Server, val string) OID {
	t.Helper()
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("coh")
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewCluster(fid)
	oid, data, err := c.CreateObject(cl, 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, val)
	if err := c.SetRoot("coh", oid, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

// updateCohObject overwrites the object's first bytes with val in one
// committed transaction. old and val must have equal length.
func updateCohObject(t *testing.T, c *Client, oid OID, old, val string) {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, off, idx, err := c.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(obj[:len(old)]); got != old {
		t.Fatalf("writer read %q, want %q", got, old)
	}
	copy(obj, val)
	c.Pool().MarkDirty(idx)
	c.LogUpdate(oid.Page, off, []byte(old), []byte(val))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readCohObject reads the object's first n bytes in one committed
// transaction.
func readCohObject(t *testing.T, c *Client, oid OID, n int) string {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, _, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := string(obj[:n])
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return got
}

func cohStats(t *testing.T, c *Client) *ServerStats {
	t.Helper()
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTwoClientStaleReadRegression is the warm-cache sharing regression
// test: client A keeps a page cached across transactions while client B
// commits over it. Without coherence, A's next transaction would reuse
// the cached frame and read B's overwritten value — the exact stale read
// the Begin-validation protocol exists to prevent.
func TestTwoClientStaleReadRegression(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "value-00")

	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})

	if got := readCohObject(t, a, oid, 8); got != "value-00" {
		t.Fatalf("A's first read: %q", got)
	}
	prev := "value-00"
	for round := 1; round <= 4; round++ {
		val := fmt.Sprintf("value-%02d", round)
		updateCohObject(t, b, oid, prev, val)
		// A's page is still resident from the previous transaction; Begin
		// validation must observe B's commit before A reads through it.
		if got := readCohObject(t, a, oid, 8); got != val {
			t.Fatalf("round %d: A read %q, want %q (stale cached page)", round, got, val)
		}
		prev = val
	}

	st := cohStats(t, a)
	if st.CohValidates == 0 {
		t.Error("no ReadCheck request reached the server")
	}
	if st.CohDeltas+st.CohFulls == 0 {
		t.Error("no validation ever repaired a stale frame")
	}
}

// TestBeginValidationNotModified: with no writer in between, Begin must keep
// the resident frames — same token, no repair bytes, no simulated read
// charge (warm hits were free before coherence and must stay free) — and,
// the change feed having nothing to report, send no ReadCheck at all.
func TestBeginValidationNotModified(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "steady")

	tap := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tap, ClientConfig{BufferPages: 8, Clock: clock})
	if got := readCohObject(t, c, oid, 6); got != "steady" {
		t.Fatalf("first read: %q", got)
	}
	i, ok := c.Pool().Lookup(oid.Page)
	if !ok {
		t.Fatal("page not resident after commit")
	}
	token := c.Pool().Frame(i).LSN
	if token == 0 {
		t.Fatal("cached header page has no coherence token")
	}

	st0 := cohStats(t, c)
	reads0 := clock.Count(sim.CtrClientRead)
	tap.checked = nil
	for round := 0; round < 3; round++ {
		if got := readCohObject(t, c, oid, 6); got != "steady" {
			t.Fatalf("round %d: %q", round, got)
		}
	}
	st1 := cohStats(t, c)
	if len(tap.checked) != 0 || st1.CohValidates != st0.CohValidates {
		t.Errorf("unchanged Begins sent %d ReadCheck requests naming pages %v, want none",
			st1.CohValidates-st0.CohValidates, tap.checked)
	}
	if st1.CohDeltas != st0.CohDeltas || st1.CohFulls != st0.CohFulls {
		t.Errorf("unmodified frames were repaired: deltas %d->%d fulls %d->%d",
			st0.CohDeltas, st1.CohDeltas, st0.CohFulls, st1.CohFulls)
	}
	if n := clock.Count(sim.CtrClientRead); n != reads0 {
		t.Errorf("warm revalidation charged %d client reads", n-reads0)
	}
	i2, ok := c.Pool().Lookup(oid.Page)
	if !ok {
		t.Fatal("frame evicted by clean validation")
	}
	if got := c.Pool().Frame(i2).LSN; got != token {
		t.Errorf("token moved %d -> %d without a write", token, got)
	}
}

// TestDeltaRepairShipsPatch: a small committed change to a cached page is
// repaired with a pagedelta patch, not a full page.
func TestDeltaRepairShipsPatch(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "delta-v1")

	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if got := readCohObject(t, a, oid, 8); got != "delta-v1" {
		t.Fatalf("A's first read: %q", got)
	}
	st0 := cohStats(t, a)
	updateCohObject(t, b, oid, "delta-v1", "delta-v2")
	if got := readCohObject(t, a, oid, 8); got != "delta-v2" {
		t.Fatalf("A after repair: %q", got)
	}
	st1 := cohStats(t, a)
	if st1.CohDeltas != st0.CohDeltas+1 {
		t.Fatalf("deltas %d -> %d, want exactly one patch repair", st0.CohDeltas, st1.CohDeltas)
	}
	if grew := st1.CohDeltaBytes - st0.CohDeltaBytes; grew <= 0 || grew >= disk.PageSize {
		t.Errorf("delta bytes grew by %d, want a small patch", grew)
	}
}

// TestLockResponseStaleFlag covers the mid-transaction hole Begin
// validation cannot see: A validates a page, B commits over it while A's
// transaction is open, then A locks the page. The grant must find A's
// cached copy stale and revalidate it to B's bytes before Lock returns.
func TestLockResponseStaleFlag(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "lock-v1")

	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadObject(oid); err != nil {
		t.Fatal(err)
	}
	// B slips a commit in while A's transaction is open (A holds no lock
	// on the page yet).
	updateCohObject(t, b, oid, "lock-v1", "lock-v2")

	if err := a.Lock(lock.KindPage, uint32(oid.Page), lock.Shared); err != nil {
		t.Fatal(err)
	}
	i, ok := a.Pool().Lookup(oid.Page)
	if !ok {
		t.Fatal("page not resident")
	}
	// The grant itself refreshed the frame: a reader that reaches the page
	// through its own mapping of the frame (internal/core) never calls
	// FetchPage again, so a flag left for the next fetch would not help it.
	if a.Pool().Frame(i).Stale {
		t.Fatal("stale grant left the cached frame flagged instead of refreshing it")
	}
	obj, _, err := a.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(obj[:7]); got != "lock-v2" {
		t.Fatalf("A read %q through a stale grant, want lock-v2", got)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

// commitTap records the answers to the commits a client sends. It copies
// what it checks when Call returns: the client releases an answer once it
// has read it, and a pooled one is reused.
type commitTap struct {
	Transport
	acks []commitAck
}

// commitAck is what one commit answer carried.
type commitAck struct {
	N         uint64
	Mode      uint8
	DataBytes int
}

func (c *commitTap) Call(req *Request) (*Response, error) {
	resp, err := c.Transport.Call(req)
	if req.Op == OpCommit && resp != nil {
		c.acks = append(c.acks, commitAck{N: resp.N, Mode: resp.Mode, DataBytes: len(resp.Data)})
	}
	return resp, err
}

// TestCommitHintsMarkFramesStale: B commits over a page A caches while A's
// transaction is open. A's commit response is the commit LSN alone — no page
// list rides on it and no frame is flagged — and A's next Begin repairs the
// frame in place.
func TestCommitHintsMarkFramesStale(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "hint-v1")

	tap := &commitTap{Transport: NewInProcTransport(srv)}
	a := NewClient(tap, ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadObject(oid); err != nil {
		t.Fatal(err)
	}
	updateCohObject(t, b, oid, "hint-v1", "hint-v2")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if ack := tap.acks[len(tap.acks)-1]; ack.Mode != 0 || ack.DataBytes != 0 || ack.N == 0 {
		t.Errorf("commit response %+v, want the commit LSN alone", ack)
	}
	i, ok := a.Pool().Lookup(oid.Page)
	if !ok {
		t.Fatal("page not resident after A's commit")
	}
	if a.Pool().Frame(i).Stale {
		t.Error("A's commit flagged the frame")
	}
	st0 := cohStats(t, a)
	if got := readCohObject(t, a, oid, 7); got != "hint-v2" {
		t.Fatalf("A read %q after B's commit, want hint-v2", got)
	}
	if st1 := cohStats(t, a); st1.CohDeltas+st1.CohFulls != st0.CohDeltas+st0.CohFulls+1 {
		t.Errorf("Begin repaired %d frames, want the one B committed over",
			st1.CohDeltas+st1.CohFulls-st0.CohDeltas-st0.CohFulls)
	}
}

// TestAbortPinLeakCounter: a pin held across Abort used to be zeroed
// silently, erasing the evidence of an object-layer leak. It must now be
// counted — and the frame still reclaimed so the session stays usable.
func TestAbortPinLeakCounter(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "pinned-1")

	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, idx, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj, "pinned-2")
	c.Pool().MarkDirty(idx)
	c.Pin(idx) // leaked: never unpinned before Abort
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := c.AbortPinLeaks(); n != 1 {
		t.Fatalf("AbortPinLeaks = %d, want 1", n)
	}
	if _, ok := c.Pool().Lookup(oid.Page); ok {
		t.Error("dirty frame survived Abort despite the leaked pin")
	}
	// The session is still usable and sees the committed value.
	if got := readCohObject(t, c, oid, 8); got != "pinned-1" {
		t.Fatalf("post-abort read: %q", got)
	}
	if n := c.AbortPinLeaks(); n != 1 {
		t.Errorf("clean commit changed the leak count to %d", n)
	}
}

// seedLargeObject commits a large object holding payload (a whole number of
// pages) and returns its OID and descriptor.
func seedLargeObject(t *testing.T, c *Client, payload []byte) (OID, LargeInfo) {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("raw")
	if err != nil {
		t.Fatal(err)
	}
	large, info, err := c.CreateLarge(c.NewCluster(fid), uint64(len(payload)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LargeWriteAt(large, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return large, info
}

// writeLargeObject overwrites the large object with payload in one committed
// transaction.
func writeLargeObject(t *testing.T, c *Client, large OID, payload []byte) {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.LargeWriteAt(large, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readLargeObject reads the large object's first n bytes in one committed
// transaction.
func readLargeObject(t *testing.T, c *Client, large OID, n int) []byte {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := c.LargeReadAt(large, got, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRawPagesStayUnversioned: raw large-object data pages carry object
// bytes where header pages carry an LSN, yet the frames holding them carry
// real coherence tokens like any other — and repeated Begins over them, with
// no writer in between, keep them as they are instead of repairing them
// every transaction.
func TestRawPagesStayUnversioned(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	payload := make([]byte, 3*disk.PageSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	large, info := seedLargeObject(t, c, payload)

	readBack := func() {
		t.Helper()
		if got := readLargeObject(t, c, large, len(payload)); !bytes.Equal(got, payload) {
			t.Fatal("large object read back different bytes")
		}
	}
	readBack()
	for p := uint32(0); p < info.Pages; p++ {
		pid := info.First + disk.PageID(p)
		i, ok := c.Pool().Lookup(pid)
		if !ok {
			t.Fatalf("raw page %d not resident", pid)
		}
		if c.Pool().Frame(i).LSN == 0 {
			t.Errorf("raw page %d holds no token", pid)
		}
	}
	// Repeated transactions over the resident raw pages must not trigger
	// a repair storm: their tokens stay current across Begins.
	tokens := map[disk.PageID]uint64{}
	for p := uint32(0); p < info.Pages; p++ {
		pid := info.First + disk.PageID(p)
		i, _ := c.Pool().Lookup(pid)
		tokens[pid] = c.Pool().Frame(i).LSN
	}
	st0 := cohStats(t, c)
	readBack()
	readBack()
	st1 := cohStats(t, c)
	if st1.CohFulls != st0.CohFulls || st1.CohDeltas != st0.CohDeltas {
		t.Errorf("raw pages were repaired every Begin: fulls %d->%d deltas %d->%d",
			st0.CohFulls, st1.CohFulls, st0.CohDeltas, st1.CohDeltas)
	}
	for pid, token := range tokens {
		if i, ok := c.Pool().Lookup(pid); !ok || c.Pool().Frame(i).LSN != token || !srv.coh.isCurrent(pid, token) {
			t.Errorf("raw page %d lost its current token %d across Begins", pid, token)
		}
	}
}

// TestRawPagesRevalidatedAtBegin: A keeps a large object's raw data pages
// warm, B overwrites the object and commits, and A's next transaction must
// read B's bytes — Begin validation covers raw frames like any other.
func TestRawPagesRevalidatedAtBegin(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	const size = 3 * disk.PageSize
	seeder := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	large, _ := seedLargeObject(t, seeder, bytes.Repeat([]byte{1}, size))

	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	if got := readLargeObject(t, a, large, size); !bytes.Equal(got, bytes.Repeat([]byte{1}, size)) {
		t.Fatal("A's first read is not the seeded object")
	}
	for round := byte(2); round <= 4; round++ {
		writeLargeObject(t, b, large, bytes.Repeat([]byte{round}, size))
		got := readLargeObject(t, a, large, size)
		for i, v := range got {
			if v != round {
				t.Fatalf("round %d: A read byte %d = %d, want %d (stale raw frame)", round, i, v, round)
			}
		}
	}
}

// wireTap carries calls to tr and records what crosses it: the calls and
// their exact framed size on a socket (frame header plus marshaled request
// and response), the OpBegin share apart, the page of every ReadCheck
// entry sent, the page-section bytes of OpCommit payloads, and a copy of
// every non-empty commit payload, whether an OpLog, OpCommit or OpPrepare
// carries it. While fail is set, those calls fail with it instead.
type wireTap struct {
	tr         Transport
	calls      int64
	bytes      int64
	beginBytes int64
	checked    []uint32
	commitData int
	batches    [][]byte
	fail       error
	scratch    []byte // marshal buffer, reused across calls
}

func (w *wireTap) Call(req *Request) (*Response, error) {
	switch {
	case req.Op == OpReadPages && req.Mode&ReadCheck != 0:
		for i := 0; i < len(req.Data)/PageEntryBytes; i++ {
			pid, _ := PageEntry(req.Data, i)
			w.checked = append(w.checked, pid)
		}
	case (req.Op == OpLog || req.Op == OpCommit || req.Op == OpPrepare) && len(req.Data) != 0:
		pl, err := ReadPayload(req.Data)
		if err != nil {
			return nil, err
		}
		for _, _, image, ok := pl.Page(); ok; _, _, image, ok = pl.Page() {
			if req.Op == OpCommit {
				w.commitData += payloadPageHead + 4 + len(image) // head, length, image
			}
		}
		w.batches = append(w.batches, bytes.Clone(req.Data))
		if w.fail != nil {
			return nil, w.fail
		}
	}
	w.scratch = req.appendTo(w.scratch[:0])
	n := int64(frameHdrSize + len(w.scratch))
	resp, err := w.tr.Call(req)
	if resp != nil {
		w.scratch = resp.appendTo(w.scratch[:0])
		n += int64(frameHdrSize + len(w.scratch))
	}
	w.calls++
	w.bytes += n
	if req.Op == OpBegin {
		w.beginBytes += n
	}
	return resp, err
}

func (w *wireTap) Close() error { return w.tr.Close() }

// TestWarmCacheShipsFewerBytes: a reader that keeps its cache warm across
// 20 rounds, while a writer commits over 10% of 128 shared objects before
// each one, must never read a stale value — and must move at least 5x
// fewer framed bytes than a reader that could not trust its cache and
// refetched every page each round (rounds x pages x PageSize).
func TestWarmCacheShipsFewerBytes(t *testing.T) {
	const (
		objects = 128
		size    = 1024
		rounds  = 20
		dirty   = objects / 10
	)
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	writer := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 64})
	if err := writer.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := writer.CreateFile("warm")
	if err != nil {
		t.Fatal(err)
	}
	cl := writer.NewCluster(fid)
	oids := make([]OID, objects)
	oracle := make([]uint64, objects)
	pages := map[disk.PageID]bool{}
	for i := range oids {
		oid, data, err := writer.CreateObject(cl, size)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = uint64(i)
		binary.LittleEndian.PutUint64(data, oracle[i])
		oids[i] = oid
		pages[oid.Page] = true
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	meter := &wireTap{tr: NewInProcTransport(srv)}
	reader := NewClient(meter, ClientConfig{BufferPages: 256})
	stale := 0
	readAll := func() {
		t.Helper()
		if err := reader.Begin(); err != nil {
			t.Fatal(err)
		}
		for i, oid := range oids {
			data, _, err := reader.ReadObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(data) != oracle[i] {
				stale++
			}
		}
		if err := reader.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	readAll() // the cold fetch is the same with or without a warm cache
	meter.bytes = 0
	st0 := cohStats(t, writer)

	for r := 1; r <= rounds; r++ {
		if err := writer.Begin(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < dirty; k++ {
			i := (r*dirty + k) % objects
			data, off, frame, err := writer.ReadObjectAt(oids[i])
			if err != nil {
				t.Fatal(err)
			}
			old := append([]byte(nil), data[:8]...)
			oracle[i] = uint64(r)<<32 | uint64(i)
			binary.LittleEndian.PutUint64(data, oracle[i])
			writer.Pool().MarkDirty(frame)
			writer.LogUpdate(oids[i].Page, off, old, append([]byte(nil), data[:8]...))
		}
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
		readAll()
	}

	if stale != 0 {
		t.Fatalf("warm reader saw %d stale values", stale)
	}
	if st := cohStats(t, writer); st.CohDeltas+st.CohFulls == st0.CohDeltas+st0.CohFulls {
		t.Fatal("no frame was repaired: the writer's commits never reached the warm cache")
	}
	refetch := int64(rounds * len(pages) * disk.PageSize)
	if meter.bytes*5 > refetch {
		t.Fatalf("warm reader moved %d bytes, want <= 1/5 of refetching %d pages x %d rounds (%d)",
			meter.bytes, len(pages), rounds, refetch)
	}
	t.Logf("%d pages, %d rounds: %d bytes warm vs %d refetched (%.1fx)",
		len(pages), rounds, meter.bytes, refetch, float64(refetch)/float64(meter.bytes))
}

// TestVersionTableSurvivesRestart: tokens handed out before a crash must
// never validate as current after restart if the page changed — and the
// restarted server must still serve correct bytes for tokens it cannot
// prove current. The restart mints a new epoch instead of scanning the
// volume, and the catalog comes from the log: over a checkpointed volume it
// reads no page at all.
func TestVersionTableSurvivesRestart(t *testing.T) {
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, err := NewServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "restart1")
	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if got := readCohObject(t, a, oid, 8); got != "restart1" {
		t.Fatalf("read: %q", got)
	}
	i, ok := a.Pool().Lookup(oid.Page)
	if !ok {
		t.Fatal("page not resident")
	}
	oldToken := a.Pool().Frame(i).LSN
	if oldToken == 0 {
		t.Fatal("no token before restart")
	}
	// Writer commits over the page; a checkpoint truncates the log so the
	// restart cannot lean on the log tail; then the server "restarts".
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	updateCohObject(t, b, oid, "restart1", "restart2")
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reads := &countingHook{}
	srv2, err := OpenServer(disk.WithHook(vol, reads), logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := reads.reads.Load(); n != 0 {
		t.Errorf("restart read %d pages, want none", n)
	}
	// No token handed out before the restart — a commit LSN either client
	// holds, or the old epoch any untouched page was served under — is the
	// new epoch.
	handed := map[uint64]bool{srv.coh.epoch: true}
	for _, c := range []*Client{a, b} {
		for i := 0; i < c.Pool().Len(); i++ {
			if f := c.Pool().Frame(i); f.Page != disk.InvalidPage {
				handed[f.LSN] = true
			}
		}
	}
	if handed[srv2.coh.epoch] {
		t.Fatalf("the restart's epoch %#x was handed out before it", srv2.coh.epoch)
	}
	// Present A's pre-restart token to the restarted server. The page
	// changed after the token was handed out, so "not modified" here would
	// be a silent stale read — the staleness invariant's worst violation.
	a1 := readOne(t, srv2, uint32(oid.Page), oldToken)
	if !a1.Stale {
		t.Fatal("restarted server validated a pre-restart token for a changed page")
	}
	if a1.Kind == PageFull {
		if got, want := imageOf(t, a1), imageOf(t, readOne(t, srv2, uint32(oid.Page), 0)); !bytes.Equal(got, want) {
			t.Fatalf("full read differs from a fresh one at byte %d", mismatch(got, want))
		}
	}
	// A fresh session sees the committed value.
	a2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
	if got := readCohObject(t, a2, oid, 8); got != "restart2" {
		t.Fatalf("restarted server served %q, want restart2", got)
	}
}

// TestLockRevalidatesUnversionedFrame: a read that overlaps another
// transaction's pending write is cached without a token, and Begin
// validation skips such frames. When B aborts the write that A read
// unlocked, A's later shared lock on the page must not vouch for the copy:
// the grant refetches it, and A reads the committed bytes, not B's aborted
// ones.
func TestLockRevalidatesUnversionedFrame(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "commit-1")
	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})

	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(lock.KindPage, uint32(oid.Page), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	obj, off, idx, err := b.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj, "aborted!")
	b.Pool().MarkDirty(idx)
	b.LogUpdate(oid.Page, off, []byte("commit-1"), []byte("aborted!"))
	if err := b.FlushLog(); err != nil {
		t.Fatal(err)
	}

	if got := readCohObject(t, a, oid, 8); got != "aborted!" {
		t.Fatalf("A's unlocked read saw %q, want B's pending bytes", got)
	}
	if i, ok := a.Pool().Lookup(oid.Page); !ok || a.Pool().Frame(i).LSN != 0 {
		t.Fatal("a read over a pending write left a resident frame with a token")
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(lock.KindPage, uint32(oid.Page), lock.Shared); err != nil {
		t.Fatal(err)
	}
	obj, _, err = a.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(obj[:8]); got != "commit-1" {
		t.Fatalf("A read %q under a shared lock, want the committed commit-1", got)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

// writeBackGate holds one page's write-back open: the first write of page
// once armed waits hold before it lands, and reads of the page meanwhile are
// counted — each of them saw the image the write is about to replace.
type writeBackGate struct {
	mu         sync.Mutex
	page       uint32
	armed      bool
	writing    bool
	readDuring int
	hold       time.Duration
	started    chan struct{}
}

func (g *writeBackGate) BeforeRead(id uint32) error {
	g.mu.Lock()
	if g.writing && id == g.page {
		g.readDuring++
	}
	g.mu.Unlock()
	return nil
}

func (g *writeBackGate) BeforeWrite(id uint32, _ int) (int, error) {
	g.mu.Lock()
	if !g.armed || id != g.page {
		g.mu.Unlock()
		return 0, nil
	}
	g.armed, g.writing = false, true
	g.mu.Unlock()
	close(g.started)
	time.Sleep(g.hold)
	g.mu.Lock()
	g.writing = false
	g.mu.Unlock()
	return 0, nil
}

// TestValidationDuringEvictionWriteBack: while the server evicts a dirty
// page, the page is in neither its pool's index nor, until the write-back
// lands, on the volume. Begin validation reads through the non-perturbing
// pool snapshot and falls back to the volume; a fallback taken during the
// write-back serves the image the write is replacing, labelled with the
// current token, and the warm client reads a committed value that has been
// overwritten. The snapshot must wait for the write-back instead.
func TestValidationDuringEvictionWriteBack(t *testing.T) {
	gate := &writeBackGate{hold: 100 * time.Millisecond, started: make(chan struct{})}
	srv, err := NewServer(disk.WithHook(disk.NewMemVolume(), gate), wal.NewMemLog(), ServerConfig{BufferPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	oid := seedCohObject(t, srv, "evict-v1")
	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if got := readCohObject(t, a, oid, 8); got != "evict-v1" {
		t.Fatalf("A's first read: %q", got)
	}
	updateCohObject(t, b, oid, "evict-v1", "evict-v2") // the server's one frame: the page, dirty

	// Reading another page evicts the object's page; its write-back is held.
	gate.mu.Lock()
	gate.page, gate.armed = uint32(oid.Page), true
	gate.mu.Unlock()
	evicted := make(chan *Response)
	go func() {
		evicted <- srv.Handle(&Request{Op: OpReadPages, Page: uint32(reservedPage), Data: AppendPageEntry(nil, uint32(reservedPage), 0)})
	}()
	<-gate.started
	if got := readCohObject(t, a, oid, 8); got != "evict-v2" {
		t.Errorf("A read %q after validating during the write-back, want evict-v2", got)
	}
	if resp := <-evicted; resp.Err != "" {
		t.Fatal(resp.Err)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.readDuring != 0 {
		t.Errorf("the page was read from the volume %d times while its write-back was in flight", gate.readDuring)
	}
}

// writeCohObject overwrites the object's first bytes with val inside the
// open transaction of c. A logged write ships as a log record; an unlogged
// one dirties the frame through plain MarkDirty, so the commit installs the
// whole page.
func writeCohObject(t *testing.T, c *Client, oid OID, old, val string, logged bool) {
	t.Helper()
	obj, off, idx, err := c.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(obj[:len(old)]); got != old {
		t.Fatalf("writer read %q, want %q", got, old)
	}
	copy(obj, val)
	if !logged {
		c.Pool().MarkDirty(idx)
		return
	}
	c.Pool().MarkDirtyLogged(idx)
	c.LogUpdate(oid.Page, off, []byte(old), []byte(val))
}

// frameMatchesServer fails the test unless c's frame of pid equals a full
// read of the page from srv, all of its bytes, header included.
func frameMatchesServer(t *testing.T, c *Client, srv *Server, pid disk.PageID) {
	t.Helper()
	i, ok := c.Pool().Lookup(pid)
	if !ok {
		t.Fatalf("page %d not resident", pid)
	}
	full := imageOf(t, readOne(t, srv, uint32(pid), 0))
	if !bytes.Equal(c.Pool().Frame(i).Data, full) {
		t.Fatalf("repaired frame of page %d differs from a full read at byte %d", pid, mismatch(c.Pool().Frame(i).Data, full))
	}
}

// repairOf presents token for pid to srv, brings a copy of img (the bytes
// token names) to the answer, checks the result against a full read, and
// returns the answer's kind.
func repairOf(t *testing.T, srv *Server, pid disk.PageID, img []byte, token uint64) uint8 {
	t.Helper()
	a := readOne(t, srv, uint32(pid), token)
	if !a.Stale {
		t.Fatalf("token %#x of page %d still current", token, pid)
	}
	got := bytes.Clone(img)
	if err := a.Apply(got); err != nil {
		t.Fatal(err)
	}
	if full := imageOf(t, readOne(t, srv, uint32(pid), 0)); !bytes.Equal(got, full) {
		t.Fatalf("repaired copy of page %d differs from a full read at byte %d", pid, mismatch(got, full))
	}
	return a.Kind
}

// TestDeltaRepairAcrossCommits: the page-change index patches a cached copy
// from whatever committed version it holds — several commits back, across an
// aborted writer's undo, over a whole-image install — and refuses a token
// older than its floor, which a checkpoint or a restart raises, with the
// full page. Every repaired copy equals a full read byte for byte.
func TestDeltaRepairAcrossCommits(t *testing.T) {
	type fixture struct {
		srv  *Server
		vol  disk.Volume
		log  *wal.Log
		oid  OID
		a, b *Client
	}
	setup := func(t *testing.T) *fixture {
		fx := &fixture{vol: disk.NewMemVolume(), log: wal.NewMemLog()}
		var err error
		if fx.srv, err = NewServer(fx.vol, fx.log, ServerConfig{BufferPages: 64}); err != nil {
			t.Fatal(err)
		}
		fx.oid = seedCohObject(t, fx.srv, "value-v1")
		fx.a = NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 8})
		fx.b = NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 8})
		if got := readCohObject(t, fx.a, fx.oid, 8); got != "value-v1" {
			t.Fatalf("A's first read: %q", got)
		}
		return fx
	}
	commit := func(t *testing.T, c *Client, oid OID, old, val string, logged bool) {
		t.Helper()
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		writeCohObject(t, c, oid, old, val, logged)
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// repairedByOnePatch reads through A and checks that its Begin repaired
	// exactly one frame, by patch, to the server's bytes.
	repairedByOnePatch := func(t *testing.T, fx *fixture, want string) {
		t.Helper()
		st0 := cohStats(t, fx.a)
		if got := readCohObject(t, fx.a, fx.oid, len(want)); got != want {
			t.Fatalf("A read %q, want %q", got, want)
		}
		st1 := cohStats(t, fx.a)
		if st1.CohDeltas != st0.CohDeltas+1 || st1.CohFulls != st0.CohFulls {
			t.Fatalf("deltas %d -> %d, fulls %d -> %d: want one patch and no full page",
				st0.CohDeltas, st1.CohDeltas, st0.CohFulls, st1.CohFulls)
		}
		if grew := st1.CohDeltaBytes - st0.CohDeltaBytes; grew >= disk.PageSize/8 {
			t.Errorf("the patch carried %d bytes", grew)
		}
		frameMatchesServer(t, fx.a, fx.srv, fx.oid.Page)
	}

	t.Run("two-commits-behind", func(t *testing.T) {
		fx := setup(t)
		commit(t, fx.b, fx.oid, "value-v1", "value-v2", true)
		commit(t, fx.b, fx.oid, "value-v2", "value-v3", true)
		repairedByOnePatch(t, fx, "value-v3")
	})

	t.Run("aborted-writer", func(t *testing.T) {
		fx := setup(t)
		if err := fx.b.Begin(); err != nil {
			t.Fatal(err)
		}
		writeCohObject(t, fx.b, fx.oid, "value-v1", "value-xx", true)
		if err := fx.b.FlushLog(); err != nil { // the server redoes the record
			t.Fatal(err)
		}
		if err := fx.b.Abort(); err != nil { // and undoes it under a CLR
			t.Fatal(err)
		}
		repairedByOnePatch(t, fx, "value-v1")
	})

	t.Run("whole-image-install", func(t *testing.T) {
		fx := setup(t)
		commit(t, fx.b, fx.oid, "value-v1", "value-v2", false)
		repairedByOnePatch(t, fx, "value-v2")
	})

	// held returns A's copy of the object's page and its token.
	held := func(t *testing.T, fx *fixture) ([]byte, uint64) {
		i, ok := fx.a.Pool().Lookup(fx.oid.Page)
		if !ok {
			t.Fatal("page not resident")
		}
		f := fx.a.Pool().Frame(i)
		return bytes.Clone(f.Data), f.LSN
	}

	// A token at or above floor that was never this page's version — one
	// a dead leader vended for a commit its successor never received —
	// names bytes the index cannot reach.
	t.Run("token-never-vended", func(t *testing.T) {
		fx := setup(t)
		img, token := held(t, fx)
		commit(t, fx.b, fx.oid, "value-v1", "value-v2", true)
		if kind := repairOf(t, fx.srv, fx.oid.Page, img, token+1); kind != PageFull {
			t.Fatalf("a token the page never had: answer kind %d, want the full page", kind)
		}
	})

	t.Run("token-before-checkpoint", func(t *testing.T) {
		fx := setup(t)
		img, token := held(t, fx)
		commit(t, fx.b, fx.oid, "value-v1", "value-v2", true)
		if kind := repairOf(t, fx.srv, fx.oid.Page, img, token); kind != PageDelta {
			t.Fatalf("before the checkpoint: answer kind %d, want a patch", kind)
		}
		if err := fx.srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if kind := repairOf(t, fx.srv, fx.oid.Page, img, token); kind != PageFull {
			t.Fatalf("after the checkpoint: answer kind %d, want the full page", kind)
		}
		if n := cohStats(t, fx.a).CohIndexEntries; n != 0 {
			t.Errorf("a quiet checkpoint left %d index entries", n)
		}
	})

	t.Run("token-before-restart", func(t *testing.T) {
		fx := setup(t)
		img, token := held(t, fx)
		commit(t, fx.b, fx.oid, "value-v1", "value-v2", true)
		// The seed installed its new pages whole, so only the pool holds
		// them; write them back (the log stays whole) and restart.
		if err := fx.srv.FlushPool(); err != nil {
			t.Fatal(err)
		}
		srv2, err := OpenServer(fx.vol, fx.log, ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		if kind := repairOf(t, srv2, fx.oid.Page, img, token); kind != PageFull {
			t.Fatalf("a pre-restart token: answer kind %d, want the full page", kind)
		}
		// A copy served under the new boot's epoch is patched from it.
		fresh := readOne(t, srv2, uint32(fx.oid.Page), 0)
		if fresh.Token != srv2.coh.epoch {
			t.Fatalf("an untouched page served under token %#x, want the epoch %#x", fresh.Token, srv2.coh.epoch)
		}
		img2 := imageOf(t, fresh)
		commit(t, NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8}), fx.oid, "value-v2", "value-v3", true)
		if kind := repairOf(t, srv2, fx.oid.Page, img2, srv2.coh.epoch); kind != PageDelta {
			t.Fatalf("an epoch token: answer kind %d, want a patch", kind)
		}
		// Its checkpoint drops changes made since the boot: the epoch can no
		// longer be patched from.
		if err := srv2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if kind := repairOf(t, srv2, fx.oid.Page, img2, srv2.coh.epoch); kind != PageFull {
			t.Fatalf("an epoch token after a checkpoint: answer kind %d, want the full page", kind)
		}
	})
}
