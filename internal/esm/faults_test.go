package esm

import (
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// seedObject builds a committed, checkpointed baseline: one 64-byte object
// holding "original", reachable through the "obj" root.
func seedObject(t *testing.T, vol disk.Volume, logf *wal.Log, cfg ServerConfig) (*Server, OID) {
	t.Helper()
	srv, err := NewServer(vol, logf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("f")
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewCluster(fid)
	oid, data, err := c.CreateObject(cl, 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "original")
	if err := c.SetRoot("obj", oid, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return srv, oid
}

// clobber starts a transaction on a steal-prone client (2-frame pool),
// overwrites the seeded object with "clobber!", logs the update, and fills
// the pool so the dirty page is stolen to the server mid-transaction.
// The transaction is left open; its id and the object's in-page offset
// are returned (the offset is computed here because any later session
// would append — and under the abort fix, flush — more log records).
func clobber(t *testing.T, srv *Server, oid OID) (c *Client, tx uint64, off int) {
	t.Helper()
	c = NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 2})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, idx, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), obj[:8]...)
	copy(obj, "clobber!")
	c.Pool().MarkDirty(idx)
	off = pageOffOf(t, c, oid)
	c.LogUpdate(oid.Page, off, old, []byte("clobber!"))
	cl := c.NewCluster(1)
	for i := 0; i < 4; i++ {
		if _, _, err := c.CreateObject(cl, 7000); err != nil {
			t.Fatal(err)
		}
	}
	return c, c.Tx(), off
}

func readSeeded(t *testing.T, srv *Server, oid OID) string {
	t.Helper()
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data[:8])
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAbortRecordDurableBeforeAck is the regression test for the abort
// durability bug: the server acknowledged aborts without forcing the log,
// so a crash right after the ack could lose the rollback decision (the
// CLRs and the abort record) even though the client had already been told
// the transaction was gone. The fix forces the log before the ack, so the
// durable log must contain the abort record once Abort returns — no
// matter what crashes afterwards.
func TestAbortRecordDurableBeforeAck(t *testing.T) {
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64})

	c, tx, _ := clobber(t, srv, oid)
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after the ack: everything not forced is gone.
	logf.DiscardUnflushed()

	aborted := false
	if err := logf.Iterate(func(r wal.Record) bool {
		if r.Tx == tx && r.Type == wal.RecAbort {
			aborted = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatalf("abort of tx %d was acknowledged but its record is not durable", tx)
	}

	// And the store still recovers to the pre-transaction state.
	srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv2, oid); got != "original" {
		t.Fatalf("after crash-post-abort recovery: %q, want %q", got, "original")
	}
}

// TestStealWritesForceWALFirst is the regression test for the steal-path
// WAL violation: the server buffer pool wrote stolen dirty pages to the
// volume without first forcing the log through the page's LSN. A crash
// after such a write leaves an uncommitted page on disk with its
// before-images lost — unrecoverable corruption. With the fix, the log
// records covering the page are durable before the page hits the volume,
// so restart recovery can undo the loser.
func TestStealWritesForceWALFirst(t *testing.T) {
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64})

	_, _, off := clobber(t, srv, oid) // open tx, dirty page stolen to the server

	// Push the stolen page all the way to the volume through the pool's
	// write-back path (FlushAll), without any commit/checkpoint log force.
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, disk.PageSize)
	if err := vol.ReadPage(oid.Page, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[off:off+8]) != "clobber!" {
		t.Fatalf("setup failed: loser page not written back (%q)", raw[off:off+8])
	}

	// Crash with the transaction still open; reopen and recover.
	logf.DiscardUnflushed()
	srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv2, oid); got != "original" {
		t.Fatalf("loser update survived on the volume: %q, want %q", got, "original")
	}
}

// TestCommitCrashPoints drives the two commit-point outcomes end to end
// through an armed fault plane: a crash before the log force loses the
// transaction, a crash after it keeps the transaction, and in both cases
// the client saw an error — the classic "ack lost, outcome decided by the
// log" split. The batch the commit carries goes with it, all or nothing.
func TestCommitCrashPoints(t *testing.T) {
	plane := faultinject.New(42)
	vol := disk.NewMemVolume()
	hv := disk.WithHook(vol, plane)
	logf := wal.NewMemLog()
	logf.FlushHook = plane.FlushHook()
	srv, oid := seedObject(t, hv, logf, ServerConfig{BufferPages: 64, Fault: plane})

	// Crash between the commit-record append and the log force: the
	// transaction must vanish at restart.
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	c.Begin()
	obj, idx, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj, "version2")
	c.Pool().MarkDirty(idx)
	c.LogUpdate(oid.Page, pageOffOf(t, c, oid), []byte("original"), []byte("version2"))
	plane.ArmCrash(faultinject.PtCommitBeforeFlush, 1)
	if err := c.Commit(); !faultinject.IsCrash(err) {
		t.Fatalf("commit through a crash point returned %v", err)
	}
	logf.DiscardUnflushed()
	plane.Reset()
	srv2, err := OpenServer(hv, logf, ServerConfig{BufferPages: 64, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv2, oid); got != "original" {
		t.Fatalf("unforced commit survived the crash: %q", got)
	}

	// Crash after the log force: the transaction must survive even though
	// the client never saw the ack.
	c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
	c2.Begin()
	obj2, idx2, err := c2.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj2, "version3")
	c2.Pool().MarkDirty(idx2)
	c2.LogUpdate(oid.Page, pageOffOf(t, c2, oid), []byte("original"), []byte("version3"))
	plane.ArmCrash(faultinject.PtCommitAfterFlush, 1)
	if err := c2.Commit(); !faultinject.IsCrash(err) {
		t.Fatalf("commit through a crash point returned %v", err)
	}
	logf.DiscardUnflushed()
	plane.Reset()
	srv3, err := OpenServer(hv, logf, ServerConfig{BufferPages: 64, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv3, oid); got != "version3" {
		t.Fatalf("forced commit lost at the crash: %q, want %q", got, "version3")
	}

	// A commit whose batch holds records on two pages, every change
	// declared logged: no whole page rides along. A crash before the
	// commit record loses all of the batch, even once its pages reached the
	// volume; a crash after the force keeps all of it, though no page did.
	seed := NewClient(NewInProcTransport(srv3), ClientConfig{BufferPages: 8})
	if err := seed.Begin(); err != nil {
		t.Fatal(err)
	}
	cl := seed.NewCluster(1)
	var oids [2]OID
	for i := range oids {
		var data []byte
		if oids[i], data, err = seed.CreateObject(cl, 7000); err != nil { // a page each
			t.Fatal(err)
		}
		copy(data, "batch-v1")
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	values := func(srv *Server) (got [2]string) {
		r := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
		if err := r.Begin(); err != nil {
			t.Fatal(err)
		}
		for i, oid := range oids {
			data, _, err := r.ReadObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = string(data[:8])
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	var offs [2]int
	crashBatch := func(srv *Server, pt faultinject.Point, value string) {
		c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		for i, oid := range oids {
			data, off, idx, err := c.ReadObjectAt(oid)
			if err != nil {
				t.Fatal(err)
			}
			offs[i] = off
			old := string(data[:8])
			copy(data, value)
			c.Pool().MarkDirtyLogged(idx)
			c.LogUpdate(oid.Page, off, []byte(old), []byte(value))
		}
		plane.ArmCrash(pt, 1)
		if err := c.Commit(); !faultinject.IsCrash(err) {
			t.Fatalf("commit through %v returned %v", pt, err)
		}
		plane.Reset()
	}
	crashBatch(srv3, faultinject.PtCommitAfterInstall, "batch-v2")
	if err := srv3.FlushPool(); err != nil { // the batch's pages reach the volume
		t.Fatal(err)
	}
	img := make([]byte, disk.PageSize)
	for i, oid := range oids {
		if err := vol.ReadPage(oid.Page, img); err != nil {
			t.Fatal(err)
		}
		if got := string(img[offs[i] : offs[i]+8]); got != "batch-v2" {
			t.Fatalf("setup: page %d not written back with the batch (%q)", oid.Page, got)
		}
	}
	logf.DiscardUnflushed()
	srv4, err := OpenServer(hv, logf, ServerConfig{BufferPages: 64, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(srv4); got != [2]string{"batch-v1", "batch-v1"} {
		t.Fatalf("a batch survived a crash before its commit record: %q", got)
	}
	crashBatch(srv4, faultinject.PtCommitAfterFlush, "batch-v3")
	logf.DiscardUnflushed()
	srv5, err := OpenServer(hv, logf, ServerConfig{BufferPages: 64, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(srv5); got != [2]string{"batch-v3", "batch-v3"} {
		t.Fatalf("a forced commit's batch was lost at the crash: %q", got)
	}
}

// TestClientRetriesTransientFaults: reads that hit an injected transient
// disk error are retried under the session RetryPolicy and succeed once
// the fault heals; a session without a retry policy sees the raw error.
func TestClientRetriesTransientFaults(t *testing.T) {
	plane := faultinject.New(7)
	vol := disk.NewMemVolume()
	hv := disk.WithHook(vol, plane)
	logf := wal.NewMemLog()
	srv, oid := seedObject(t, hv, logf, ServerConfig{BufferPages: 64, Fault: plane})
	if err := srv.DropCaches(); err != nil { // force reads to the faulty disk
		t.Fatal(err)
	}

	plane.ArmTransient(faultinject.PtDiskRead, 2)
	c := NewClient(NewInProcTransport(srv), ClientConfig{
		BufferPages: 8,
		Retry:       RetryPolicy{MaxAttempts: 4},
	})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.ReadObject(oid)
	if err != nil {
		t.Fatalf("read did not survive transient faults: %v", err)
	}
	if string(data[:8]) != "original" {
		t.Fatalf("retried read returned %q", data[:8])
	}
	if c.Retries() == 0 {
		t.Fatal("no retries recorded, fault never exercised")
	}
	c.Commit()

	// Without a policy the same fault surfaces to the caller.
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	plane.ArmTransient(faultinject.PtDiskRead, 2)
	c2 := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.ReadObject(oid); !faultinject.IsTransient(err) {
		t.Fatalf("unretried read returned %v, want transient", err)
	}
}
