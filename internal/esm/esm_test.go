package esm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// newPair builds an in-process server + client over a fresh memory volume.
func newPair(t *testing.T) (*Server, *Client, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16, Clock: clock})
	return srv, c, clock
}

func TestTxLifecycle(t *testing.T) {
	_, c, _ := newPair(t)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if c.Tx() == 0 {
		t.Fatal("no tx id")
	}
	if err := c.Begin(); err == nil {
		t.Fatal("nested Begin succeeded")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.Tx() != 0 {
		t.Fatal("tx id survived commit")
	}
	if err := c.Commit(); err != ErrNoTx {
		t.Fatalf("commit without tx: %v", err)
	}
	if _, err := c.FetchPage(1); err != ErrNoTx {
		t.Fatalf("fetch without tx: %v", err)
	}

	// Every way a transaction ends, on the server: each leaves no table
	// entry and no lock held, and lets a checkpoint cut the log to its
	// durable end.
	vol, log := disk.NewMemVolume(), wal.NewMemLog()
	srv, err := NewServer(vol, log, ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := vol.Allocate(8)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) uint32 { return uint32(first) + uint32(i) }
	call := func(srv *Server, req Request) *Response {
		t.Helper()
		resp := srv.Handle(&req)
		if resp.Err != "" {
			t.Fatalf("%v of tx %d: %s", req.Op, req.Tx, resp.Err)
		}
		return resp
	}
	// lockTx begins a transaction that locks pid; part is its update of pid
	// as a payload; start ships it.
	lockTx := func(srv *Server, pid uint32) uint64 {
		t.Helper()
		tx := beginTx(t, srv)
		call(srv, Request{Op: OpLock, Tx: tx, Page: pid, Mode: uint8(lock.KindPage)<<4 | uint8(lock.Exclusive)})
		return tx
	}
	part := func(tx uint64, pid uint32) []byte {
		return logBatch(wal.Record{Page: pid, Off: 100, Old: []byte{0}, New: []byte{byte(tx)}})
	}
	start := func(srv *Server, pid uint32) uint64 {
		t.Helper()
		tx := lockTx(srv, pid)
		call(srv, Request{Op: OpLog, Tx: tx, Data: part(tx, pid)})
		return tx
	}
	live := func(srv *Server, tx uint64) bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, ok := srv.txs[tx]
		return ok
	}
	ended := func(srv *Server, how string, tx uint64, pid uint32) {
		t.Helper()
		if live(srv, tx) {
			t.Errorf("%s: tx %d still in the transaction table", how, tx)
		}
		if m := srv.LockHeld(tx, lock.PageRes(pid)); m != 0 {
			t.Errorf("%s: tx %d still holds page %d in mode %v", how, tx, pid, m)
		}
		durable := srv.Log().FlushedLSN()
		if err := srv.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint: %v", how, err)
		}
		if got := srv.Log().StartLSN(); got != durable {
			t.Errorf("%s: checkpoint cut the log at %d, want its durable end %d", how, got, durable)
		}
	}

	tx := start(srv, page(0))
	call(srv, Request{Op: OpCommit, Tx: tx})
	ended(srv, "commit", tx, page(0))

	// The coordinator does not prepare: its part rides its decision.
	tx = lockTx(srv, page(1))
	decision := wal.LSN(call(srv, Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCommit | DecisionCoord, Data: part(tx, page(1))}).N)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := log.StartLSN(); got > decision {
		t.Fatalf("a remembered decision at %d did not pin the checkpoint cut (log starts at %d)", decision, got)
	}
	call(srv, Request{Op: OpResolveTx, Tx: tx, Mode: ResolveModeForget})
	ended(srv, "coordinator decision, then forget", tx, page(1))

	tx = start(srv, page(2))
	call(srv, Request{Op: OpPrepare, Tx: tx, Page: 1, N: 77})
	call(srv, Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCommit})
	ended(srv, "participant decision", tx, page(2))

	tx = start(srv, page(3))
	call(srv, Request{Op: OpAbort, Tx: tx})
	ended(srv, "abort", tx, page(3))

	// A participant prepared when its server restarts is held in doubt,
	// its page locked again, until a verdict settles it: a commit decision
	// on one restart, an abort on the next.
	for i, settle := range []Op{OpCommitDecision, OpAbort} {
		pid := page(4 + i)
		tx := start(srv, pid)
		call(srv, Request{Op: OpPrepare, Tx: tx, Page: 1, N: 77})
		if srv, err = OpenServer(vol, log, ServerConfig{BufferPages: 16}); err != nil {
			t.Fatal(err)
		}
		if !live(srv, tx) || srv.InDoubtCount() != 1 || srv.LockHeld(tx, lock.PageRes(pid)) != lock.Exclusive {
			t.Fatalf("restart: tx %d not held in doubt with its page locked", tx)
		}
		call(srv, Request{Op: settle, Tx: tx, Mode: DecisionCommit})
		ended(srv, "recovered in doubt, then "+settle.String(), tx, pid)
	}

	// A commit whose quorum wait fails is in doubt to its client: it keeps
	// its entry and its locks.
	srv.SetRepl(failingQuorum{})
	tx = start(srv, page(6))
	if resp := srv.Handle(&Request{Op: OpCommit, Tx: tx}); resp.Err == "" {
		t.Fatal("commit acknowledged without its quorum")
	}
	if !live(srv, tx) || srv.LockHeld(tx, lock.PageRes(page(6))) != lock.Exclusive {
		t.Fatalf("a commit that failed its quorum wait gave up its entry or its lock")
	}
}

// failingQuorum is a replication gate that never reaches its quorum.
type failingQuorum struct{}

func (failingQuorum) WaitQuorum(wal.LSN) error  { return errors.New("no quorum") }
func (failingQuorum) Checkpointed(_, _ wal.LSN) {}
func (failingQuorum) ReplStats() *ReplStats     { return nil }

// TestCoordinatorDecisionShapes: the coordinator does not prepare, so the
// shapes a router that still prepared it would send are refused loudly,
// appending nothing — a prepare carrying a mode, and a coordinator
// decision for a prepared transaction — and so is a decision without the
// commit verdict (an abort verdict is an OpAbort). A coordinator decision
// delivered twice is answered with the one decision record.
func TestCoordinatorDecisionShapes(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	refused := func(req Request, want string) {
		t.Helper()
		end := srv.Log().Records()
		resp := srv.Handle(&req)
		if !strings.Contains(resp.Err, want) {
			t.Errorf("%v mode %d: error %q, want one naming %q", req.Op, req.Mode, resp.Err, want)
		}
		if n := srv.Log().Records() - end; n != 0 {
			t.Errorf("%v mode %d: refused, yet %d records appended", req.Op, req.Mode, n)
		}
	}
	tx := beginTx(t, srv)
	refused(Request{Op: OpPrepare, Tx: tx, N: tx, Mode: 1}, "carries no mode")
	refused(Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCoord}, "no commit verdict")
	if r := srv.Handle(&Request{Op: OpPrepare, Tx: tx, Page: 1, N: 77}); r.Err != "" {
		t.Fatal(r.Err)
	}
	refused(Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCommit | DecisionCoord}, "does not prepare")
	if srv.InDoubtCount() != 1 || srv.DecisionCount() != 0 {
		t.Fatalf("a refused decision moved the prepared tx: %d in doubt, %d decisions", srv.InDoubtCount(), srv.DecisionCount())
	}
	if r := srv.Handle(&Request{Op: OpAbort, Tx: tx}); r.Err != "" {
		t.Fatal(r.Err)
	}

	tx = beginTx(t, srv)
	decide := &Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCommit | DecisionCoord,
		Data: logBatch(wal.Record{Page: uint32(pid), Off: 100, Old: []byte{0}, New: []byte{1}})}
	first := srv.Handle(decide)
	again := srv.Handle(decide)
	if first.Err != "" || again.Err != "" || again.N != first.N || srv.DecisionCount() != 1 {
		t.Fatalf("decision %+v, again %+v, %d decisions; want one decision answered twice", first, again, srv.DecisionCount())
	}
}

// TestPreparedTxAcceptsOnlyItsVerdict: a prepared participant has voted,
// and only its coordinator's verdict may end it. An OpCommit, an OpLog or a
// second OpPrepare, with a payload or without, is refused, appends nothing
// and leaves the transaction in doubt with its page as the prepare left it.
// The verdict is then taken: a commit decision on one transaction, an
// abort on another.
func TestPreparedTxAcceptsOnlyItsVerdict(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	for i, verdict := range []Request{{Op: OpCommitDecision, Mode: DecisionCommit}, {Op: OpAbort}} {
		off := uint16(100 + i)
		voted := logBatch(wal.Record{Page: uint32(pid), Off: off, Old: []byte{0}, New: []byte{1}})
		more := logBatch(wal.Record{Page: uint32(pid), Off: 200, Old: []byte{0}, New: []byte{2}})
		tx := beginTx(t, srv)
		if r := srv.Handle(&Request{Op: OpPrepare, Tx: tx, Page: 1, N: 77, Data: voted}); r.Err != "" {
			t.Fatal(r.Err)
		}
		for _, req := range []Request{
			{Op: OpCommit, Tx: tx},
			{Op: OpCommit, Tx: tx, Data: more},
			{Op: OpLog, Tx: tx},
			{Op: OpLog, Tx: tx, Data: more},
			{Op: OpPrepare, Tx: tx, Page: 1, N: 77},
			{Op: OpPrepare, Tx: tx, Page: 1, N: 77, Data: more},
		} {
			records := srv.Log().Records()
			if r := srv.Handle(&req); r.Err == "" {
				t.Fatalf("%v of prepared tx %d (%d payload bytes) accepted", req.Op, tx, len(req.Data))
			}
			if n := srv.Log().Records() - records; n != 0 {
				t.Fatalf("%v of prepared tx %d: refused, yet %d records appended", req.Op, tx, n)
			}
			if img := poolImage(t, srv, pid); srv.InDoubtCount() != 1 || img[off] != 1 || img[200] != 0 {
				t.Fatalf("%v of prepared tx %d: %d in doubt, page bytes %d and %d; want 1, 1 and 0", req.Op, tx, srv.InDoubtCount(), img[off], img[200])
			}
		}
		verdict.Tx = tx
		if r := srv.Handle(&verdict); r.Err != "" {
			t.Fatalf("verdict %v: %s", verdict.Op, r.Err)
		}
		committed := verdict.Op == OpCommitDecision
		if n, _ := recordsOf(t, srv.Log(), tx, wal.RecCommit); srv.InDoubtCount() != 0 || (n == 1) != committed {
			t.Fatalf("after verdict %v: %d in doubt, %d commit records", verdict.Op, srv.InDoubtCount(), n)
		}
		if img := poolImage(t, srv, pid); (img[off] == 1) != committed {
			t.Fatalf("after verdict %v: the voted byte is %d", verdict.Op, img[off])
		}
	}
}

// A root's OID is read only from a whole directory entry. An entry that
// the page's length cuts short — here by a committed record that moved the
// length back into the OID — is refused by GetRoot rather than read as the
// nil OID or as a prefix of the bytes, and SetRoot refuses to write over it.
func TestSetRootRejectsMalformedOID(t *testing.T) {
	srv, c, _ := newPair(t)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	oid := OID{Page: 3, Slot: 5}
	if err := c.SetRoot("r", oid, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 8, 8 + OIDSize/2} {
		before := poolImage(t, srv, dirPage)
		used := binary.LittleEndian.Uint16(before[dirUsedAt:])
		shorter := binary.LittleEndian.AppendUint16(nil, used-uint16(cut))
		rec := wal.Record{Page: uint32(dirPage), Off: dirUsedAt, Old: before[dirUsedAt : dirUsedAt+2], New: shorter}
		payload := wireBody(binary.LittleEndian.AppendUint32(nil, 1), &rec)
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin, Data: payload}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if got, aux, err := c.GetRoot("r"); err == nil {
			t.Fatalf("cut %d: GetRoot of a cut-short entry = %v aux=%d, want an error", cut, got, aux)
		}
		if err := c.SetRoot("r", OID{Page: 4}, 9); err == nil {
			t.Fatalf("cut %d: SetRoot over a cut-short entry accepted", cut)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if after := poolImage(t, srv, dirPage); !bytes.Equal(after[8:], append(shorter, before[dirHead:]...)) {
			t.Fatalf("cut %d: the refused SetRoot changed the directory", cut)
		}
		binary.LittleEndian.PutUint16(before[dirUsedAt:], used) // the next cut starts from the whole entry
		rec = wal.Record{Page: uint32(dirPage), Off: dirUsedAt, Old: shorter, New: before[dirUsedAt : dirUsedAt+2]}
		payload = wireBody(binary.LittleEndian.AppendUint32(nil, 1), &rec)
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin, Data: payload}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
}

// Page counts arriving in OpAllocPages and OpFreePages are checked in 64-bit
// arithmetic: a run that would wrap the 32-bit page space, leave the volume
// or include the header page is refused and changes nothing, on either
// volume kind, and a file volume reopens cleanly afterwards.
func TestWirePageCountsCannotWrapTheVolume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.vol")
	fv, err := disk.CreateFileVolume(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, vol := range []disk.Volume{disk.NewMemVolume(), fv} {
		srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Pages 2..7 join the reserved page 1: the bump pointer stands at 8.
		if r := srv.Handle(&Request{Op: OpAllocPages, N: 6}); r.Err != "" || r.Page != 2 {
			t.Fatalf("%T: allocate 6 = page %d, %q", vol, r.Page, r.Err)
		}
		num, allocated := vol.NumPages(), vol.AllocatedPages()
		for _, req := range []Request{
			{Op: OpAllocPages, N: 1 << 32},
			{Op: OpAllocPages, N: 1<<32 - 5},
			{Op: OpAllocPages, N: 1 << 63},
			{Op: OpAllocPages},
			{Op: OpFreePages, Page: 5, N: 0xFFFFFFFD},
			{Op: OpFreePages, Page: 0, N: 1},
			{Op: OpFreePages, Page: 7, N: 2},
			{Op: OpFreePages, Page: 5},
		} {
			if r := srv.Handle(&req); r.Err == "" {
				t.Errorf("%T: %v of %d at page %d accepted", vol, req.Op, req.N, req.Page)
			}
			if vol.NumPages() != num || vol.AllocatedPages() != allocated {
				t.Fatalf("%T: %v of %d at page %d moved the volume to %d pages, %d allocated (was %d, %d)",
					vol, req.Op, req.N, req.Page, vol.NumPages(), vol.AllocatedPages(), num, allocated)
			}
		}
		// The bump pointer did not move: the next runs are fresh pages.
		for _, want := range []struct{ n, page uint64 }{{1, 8}, {2, 9}} {
			if r := srv.Handle(&Request{Op: OpAllocPages, N: want.n}); r.Err != "" || uint64(r.Page) != want.page {
				t.Fatalf("%T: allocate %d = page %d, %q; want page %d", vol, want.n, r.Page, r.Err, want.page)
			}
		}
	}
	num, allocated := fv.NumPages(), fv.AllocatedPages()
	if err := fv.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := disk.OpenFileVolume(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.NumPages() != num || re.AllocatedPages() != allocated {
		t.Fatalf("reopened with %d pages, %d allocated; want %d, %d", re.NumPages(), re.AllocatedPages(), num, allocated)
	}
}

func TestObjectCreateReadAcrossSessions(t *testing.T) {
	srv, c, _ := newPair(t)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("data")
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewCluster(fid)
	oid, data, err := c.CreateObject(cl, 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "hello, exodus")
	if err := c.SetRoot("obj", oid, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second client session sees the committed object.
	c2 := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	oid2, aux, err := c2.GetRoot("obj")
	if err != nil {
		t.Fatal(err)
	}
	if oid2 != oid || aux != 7 {
		t.Fatalf("root mismatch: %v aux=%d", oid2, aux)
	}
	got, _, err := c2.ReadObject(oid2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello, exodus")) {
		t.Fatalf("object content: %q", got[:16])
	}
}

func TestClusteringKeepsObjectsTogether(t *testing.T) {
	_, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	var pages []disk.PageID
	for i := 0; i < 10; i++ {
		oid, _, err := c.CreateObject(cl, 100)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, oid.Page)
	}
	for _, p := range pages[1:] {
		if p != pages[0] {
			t.Fatalf("small objects scattered: %v", pages)
		}
	}
	// Breaking the cluster forces a fresh page.
	cl.BreakCluster()
	oid, _, err := c.CreateObject(cl, 100)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Page == pages[0] {
		t.Fatal("BreakCluster did not move to a new page")
	}
	c.Commit()
}

func TestClusterOverflowsToNewPage(t *testing.T) {
	_, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	first, _, err := c.CreateObject(cl, 5000)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.CreateObject(cl, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if first.Page == second.Page {
		t.Fatal("two 5000-byte objects on one 8K page")
	}
	c.Commit()
}

func TestAbortDiscardsChanges(t *testing.T) {
	srv, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	oid, data, _ := c.CreateObject(cl, 16)
	copy(data, "committed")
	c.SetRoot("r", oid, 0)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	c.Begin()
	got, _, _ := c.ReadObject(oid)
	copy(got, "scribbled")
	c.MarkDirty(oid.Page)
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	c2 := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	c2.Begin()
	fresh, _, err := c2.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(fresh, []byte("committed")) {
		t.Fatalf("aborted write leaked: %q", fresh[:9])
	}
}

func TestLargeObjectRoundTrip(t *testing.T) {
	_, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	const size = 3*disk.PageSize + 777
	oid, info, err := c.CreateLarge(cl, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !oid.IsLarge() {
		t.Fatal("OID not marked large")
	}
	if info.Pages != 4 || info.MetaPages != 1 {
		t.Fatalf("info = %+v", info)
	}
	// Contiguity of the run.
	if info.MetaFirst != info.First+disk.PageID(info.Pages) {
		t.Fatalf("meta pages not contiguous: %+v", info)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := c.LargeWriteAt(oid, payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := c.LargeReadAt(oid, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("large object round trip failed")
	}
	// Cross-page partial read.
	part := make([]byte, 100)
	if err := c.LargeReadAt(oid, part, disk.PageSize-50); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, payload[disk.PageSize-50:disk.PageSize+50]) {
		t.Fatal("partial read mismatch")
	}
	// Bounds.
	if err := c.LargeReadAt(oid, part, size-50); err == nil {
		t.Fatal("read past end succeeded")
	}
	c.Commit()
}

func TestLargeObjectSurvivesColdCaches(t *testing.T) {
	srv, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	oid, _, err := c.CreateLarge(cl, 2*disk.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("manual page "), 1366)[:2*disk.PageSize]
	if err := c.LargeWriteAt(oid, payload, 0); err != nil {
		t.Fatal(err)
	}
	c.SetRoot("manual", oid, 0)
	c.Commit()
	c.DropCaches()
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}

	c.Begin()
	got := make([]byte, 2*disk.PageSize)
	if err := c.LargeReadAt(oid, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("large object lost after cache drop")
	}
	c.Commit()
}

func TestCountersAndFiles(t *testing.T) {
	_, c, _ := newPair(t)
	v0, err := c.Counter("frames", 10)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := c.Counter("frames", 5)
	v2, _ := c.Counter("frames", 0)
	if v0 != 0 || v1 != 10 || v2 != 15 {
		t.Fatalf("counter sequence: %d %d %d", v0, v1, v2)
	}
	fid, err := c.CreateFile("parts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("parts"); err == nil {
		t.Fatal("duplicate file created")
	}
	got, err := c.OpenFile("parts")
	if err != nil || got != fid {
		t.Fatalf("OpenFile: %d, %v", got, err)
	}
	if _, err := c.OpenFile("nope"); err == nil {
		t.Fatal("OpenFile of missing file succeeded")
	}
	if _, _, err := c.GetRoot("nope"); err == nil {
		t.Fatal("GetRoot of missing root succeeded")
	}
}

func TestStealShipsDirtyPageMidTx(t *testing.T) {
	// A 2-frame client pool forces dirty evictions mid-transaction.
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 2, Clock: clock})
	stole := 0
	c.BeforeSteal = func(pid disk.PageID, data []byte) error { stole++; return nil }
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	var oids []OID
	for i := 0; i < 6; i++ {
		oid, data, err := c.CreateObject(cl, 7000) // one page each
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i + 1)
		oids = append(oids, oid)
	}
	if stole == 0 {
		t.Fatal("no steals with a 2-frame pool")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Everything is durable despite mid-tx shipping.
	c.Begin()
	for i, oid := range oids {
		data, _, err := c.ReadObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i+1) {
			t.Fatalf("object %d content %d", i, data[0])
		}
	}
	c.Commit()
	if n := clock.Count(sim.CtrClientWrite); n == 0 {
		t.Fatal("no client writes charged")
	}
}

func TestLockConflictAcrossClients(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Clock: clock, LockTimeout: 30 * 1e6})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	c2 := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	c1.Begin()
	c2.Begin()
	if err := c1.Lock(lock.KindPage, 42, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	err = c2.Lock(lock.KindPage, 42, lock.Exclusive)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("conflicting lock: %v", err)
	}
	// After c1 commits, c2 can lock.
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(lock.KindPage, 42, lock.Exclusive); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	c2.Commit()
}

func TestIOAccounting(t *testing.T) {
	srv, c, clock := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	oid, _, _ := c.CreateObject(cl, 100)
	c.Commit()
	c.DropCaches()
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	base := clock.Snapshot()

	c.Begin()
	if _, _, err := c.ReadObject(oid); err != nil {
		t.Fatal(err)
	}
	c.Commit()
	d := clock.Snapshot().Sub(base)
	if d.Count(sim.CtrClientRead) != 1 {
		t.Fatalf("client reads = %d, want 1", d.Count(sim.CtrClientRead))
	}
	if d.Count(sim.CtrServerDiskRead) != 1 {
		t.Fatalf("server disk reads = %d, want 1", d.Count(sim.CtrServerDiskRead))
	}

	// Second cold client read: server cache is warm now.
	c.DropCaches()
	base = clock.Snapshot()
	c.Begin()
	c.ReadObject(oid)
	c.Commit()
	d = clock.Snapshot().Sub(base)
	if d.Count(sim.CtrServerDiskRead) != 0 || d.Count(sim.CtrServerBufferHit) != 1 {
		t.Fatalf("warm server: disk=%d hit=%d", d.Count(sim.CtrServerDiskRead), d.Count(sim.CtrServerBufferHit))
	}
	// Hot at the client: no requests at all.
	base = clock.Snapshot()
	c.Begin()
	c.ReadObject(oid)
	c.Commit()
	if n := clock.Snapshot().Sub(base).Count(sim.CtrClientRead); n != 0 {
		t.Fatalf("hot read issued %d requests", n)
	}
}

func TestDialTCPRoundTrip(t *testing.T) {
	srv, _, _ := newPair(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, srv)

	tr, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, ClientConfig{BufferPages: 8})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("tcp-file")
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewCluster(fid)
	oid, data, err := c.CreateObject(cl, 1000)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0xCD}, 1000))
	if err := c.SetRoot("tcp-root", oid, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Reread over the wire from a second connection.
	tr2, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(tr2, ClientConfig{BufferPages: 8})
	defer c2.Close()
	c2.Begin()
	oid2, _, err := c2.GetRoot("tcp-root")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c2.ReadObject(oid2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 || got[500] != 0xCD {
		t.Fatal("content mismatch over TCP")
	}
	c2.Commit()
	// Server-side errors surface as client errors.
	if _, err := c2.OpenFile("missing"); err == nil {
		t.Fatal("missing file error lost over TCP")
	}
}

func TestServerRestartRecovery(t *testing.T) {
	// Committed updates survive a crash where dirty pages never reached
	// the volume: the log replays them at OpenServer.
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, err := NewServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	oid, data, _ := c.CreateObject(cl, 32)
	copy(data, "scratch!")
	pidx, _ := c.Pool().Lookup(oid.Page)
	pdata := c.Pool().Frame(pidx).Data
	c.LogUpdate(oid.Page, 0, make([]byte, disk.PageSize), append([]byte(nil), pdata...))
	c.SetRoot("r", oid, 0)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil { // persist catalog; truncates the log
		t.Fatal(err)
	}

	// A post-checkpoint committed update: its log records are forced but
	// its dirty page stays in the server pool.
	c.Begin()
	obj, idx2, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	_, off, _, err := c.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), obj[:8]...)
	copy(obj, "durable?")
	c.Pool().MarkDirty(idx2)
	c.LogUpdate(oid.Page, off, old, []byte("durable?"))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash: volume page content for oid.Page is reverted to its
	// checkpoint-time state minus the page (simulating that the dirty page
	// never hit disk again), then the server restarts.
	stale := make([]byte, disk.PageSize)
	if err := vol.ReadPage(oid.Page, stale); err != nil {
		t.Fatal(err)
	}
	copy(stale[off:off+8], "scratch!") // the pre-update bytes
	if err := vol.WritePage(oid.Page, stale); err != nil {
		t.Fatal(err)
	}
	srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
	c2.Begin()
	oid2, _, err := c2.GetRoot("r")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c2.ReadObject(oid2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("durable?")) {
		t.Fatalf("redo failed: %q", got[:8])
	}
	c2.Commit()
}

func TestProtocolRoundTrip(t *testing.T) {
	req := &Request{Op: OpLock, Tx: 77, Page: 12, N: 3, Mode: 0x21, Name: "hello", Data: []byte{1, 2, 3}}
	got, err := unmarshalRequest(req.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Tx != 77 || got.Page != 12 || got.N != 3 ||
		got.Mode != 0x21 || got.Name != "hello" || !bytes.Equal(got.Data, req.Data) {
		t.Fatalf("request round trip: %+v", got)
	}
	resp := &Response{Err: "boom", Page: 9, N: 1 << 40, Data: []byte("xyz")}
	rgot, err := unmarshalResponse(resp.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Err != "boom" || rgot.Page != 9 || rgot.N != 1<<40 || string(rgot.Data) != "xyz" {
		t.Fatalf("response round trip: %+v", rgot)
	}
	// Truncated messages are rejected, not crashed on.
	if _, err := unmarshalRequest(req.marshal()[:10]); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := unmarshalResponse([]byte{5, 0}); err == nil {
		t.Fatal("short response accepted")
	}
}

func TestResumeCluster(t *testing.T) {
	_, c, _ := newPair(t)
	c.Begin()
	fid, _ := c.CreateFile("f")
	cl := c.NewCluster(fid)
	first, _, err := c.CreateObject(cl, 100)
	if err != nil {
		t.Fatal(err)
	}
	// A resumed cursor places the next object on the same page.
	rc := ResumeCluster(fid, first.Page)
	second, _, err := c.CreateObject(rc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if second.Page != first.Page {
		t.Fatalf("resumed cluster used page %d, want %d", second.Page, first.Page)
	}
	// Resuming on a never-initialized page must not corrupt it: the page
	// is detected as non-slotted and a fresh one is allocated.
	pid, err := c.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	rc2 := ResumeCluster(fid, pid)
	third, _, err := c.CreateObject(rc2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if third.Page == pid {
		t.Fatal("object placed on an uninitialized page")
	}
	c.Commit()
}

func TestMarkDirtyOfNonResident(t *testing.T) {
	_, c, _ := newPair(t)
	c.Begin()
	if err := c.MarkDirty(disk.PageID(999)); err == nil {
		t.Fatal("MarkDirty of non-resident page succeeded")
	}
	c.Commit()
}
