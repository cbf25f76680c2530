package esm

import (
	"errors"
	"path/filepath"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// commitDuringWrite is an IOHook that rides the checkpoint's dirty-page
// walk: the first time the trigger page is written back, it runs one
// complete transaction (begin, log, commit) against the server inline —
// deterministically placing a commit inside the window between the
// checkpoint's flush and its log truncation. The hook fires outside the
// volume's internal lock, so the re-entrant server calls are safe.
type commitDuringWrite struct {
	srv     *Server
	trigger disk.PageID
	target  disk.PageID
	off     int
	value   []byte
	fired   bool
	err     error
}

func (h *commitDuringWrite) BeforeRead(id uint32) error { return nil }

func (h *commitDuringWrite) BeforeWrite(id uint32, pageSize int) (int, error) {
	if h.fired || h.srv == nil || disk.PageID(id) != h.trigger {
		return 0, nil
	}
	h.fired = true
	h.err = h.run()
	return 0, nil
}

func (h *commitDuringWrite) run() error {
	resp := h.srv.Handle(&Request{Op: OpBegin})
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	tx := resp.N
	// One update record: value over zeroes at off on the target page.
	rec := logBatch(wal.Record{Page: uint32(h.target), Off: uint16(h.off), Old: make([]byte, len(h.value)), New: h.value})
	resp = h.srv.Handle(&Request{Op: OpLog, Tx: tx, Data: rec})
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	img := make([]byte, disk.PageSize) // the server stamps its page LSN
	copy(img[h.off:], h.value)
	payload := AppendPayloadPage(logBatch(), uint32(h.target), false, img)
	resp = h.srv.Handle(&Request{Op: OpCommit, Tx: tx, Data: payload})
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Regression for the quiescent-checkpoint truncation bug: a transaction
// that begins AND commits while the checkpoint runs used to slip past the
// quiescence check — its records were truncated while its pages sat dirty
// only in the pool, so a crash reverted a committed transaction. The fuzzy
// checkpoint chooses its log cut before flushing, so those records survive
// and restart recovery redoes them.
func TestCheckpointDoesNotRevertConcurrentCommit(t *testing.T) {
	base := disk.NewMemVolume()
	hook := &commitDuringWrite{off: 512, value: []byte("survive-the-cut")}
	vol := disk.WithHook(base, hook)
	log := wal.NewMemLog()
	srv, err := NewServer(vol, log, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	trigger, err := c.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	target := trigger + 1
	i, err := c.FetchPage(trigger)
	if err != nil {
		t.Fatal(err)
	}
	data := c.PageData(i)
	old := append([]byte(nil), data[64:68]...)
	copy(data[64:], "seed")
	c.LogUpdate(trigger, 64, old, []byte("seed"))
	if err := c.MarkDirty(trigger); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// The trigger page now sits dirty in the server pool; arm the hook and
	// run the checkpoint over the wire, mid-traffic.
	hook.srv, hook.trigger, hook.target = srv, trigger, target
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if !hook.fired {
		t.Fatal("setup: checkpoint never wrote the trigger page back")
	}
	if hook.err != nil {
		t.Fatalf("commit concurrent with checkpoint: %v", hook.err)
	}
	if log.StartLSN() == 1 {
		t.Fatal("setup: checkpoint did not truncate the log")
	}

	// Crash: the server (and its pool, holding the racing commit's page)
	// is discarded. Restart recovery must redo the commit from the records
	// the truncation kept.
	hook.srv = nil
	srv2, err := OpenServer(base, log, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 16})
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	defer c2.Abort()
	i, err = c2.FetchPage(target)
	if err != nil {
		t.Fatal(err)
	}
	got := c2.PageData(i)[hook.off : hook.off+len(hook.value)]
	if string(got) != string(hook.value) {
		t.Fatalf("checkpoint reverted a committed transaction: page %d = %q, want %q",
			target, got, hook.value)
	}
	// The seeded pre-checkpoint commit survives too (flushed by the walk).
	i, err = c2.FetchPage(trigger)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.PageData(i)[64:68]; string(got) != "seed" {
		t.Fatalf("pre-checkpoint commit lost: %q", got)
	}
}

// overwriteSeeded commits one logged update of the seeded object, old to new.
func overwriteSeeded(t *testing.T, srv *Server, oid OID, old, new string) {
	t.Helper()
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, idx, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(obj[:len(old)]); got != old {
		t.Fatalf("object holds %q, want %q", got, old)
	}
	copy(obj, new)
	c.Pool().MarkDirtyLogged(idx)
	c.LogUpdate(oid.Page, pageOffOf(t, c, oid), []byte(old), []byte(new))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Regression for the lost LSN base: a checkpoint that cut the whole log and
// died before anything else reached the file used to reopen at base 0 and
// hand LSN 1 out again. A commit after that restart then logged an update
// under an LSN below the one its page was stamped with before the cut, and
// the next restart's redo skipped it (pageLSN >= record LSN): an acknowledged
// commit lost. The log file's header carries the base now.
func TestCheckpointCrashAfterCutKeepsLSNBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.vol")
	reopen := func() (*disk.FileVolume, *wal.Log) {
		t.Helper()
		vol, err := disk.OpenFileVolume(path)
		if err != nil {
			t.Fatal(err)
		}
		logf, err := wal.OpenFileLog(path + ".log")
		if err != nil {
			t.Fatal(err)
		}
		return vol, logf
	}
	crash := func(vol *disk.FileVolume, logf *wal.Log) {
		logf.DiscardUnflushed()
		logf.Close()
		vol.Abandon()
	}
	vol, err := disk.CreateFileVolume(path)
	if err != nil {
		t.Fatal(err)
	}
	logf, err := wal.CreateFileLog(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	plane := faultinject.New(1)
	srv, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64, Fault: plane})
	overwriteSeeded(t, srv, oid, "original", "version2")
	stamped := logf.End() // the object's page carries an LSN just below this

	// The checkpoint flushes the page, cuts the quiescent log down to the
	// catalog image it appended, and dies.
	plane.ArmCrash(faultinject.PtCheckpointAfterTruncate, 1)
	if resp := srv.Handle(&Request{Op: OpCheckpoint}); resp.Err == "" {
		t.Fatal("setup: the checkpoint did not reach its crash point")
	}
	crash(vol, logf)

	vol, logf = reopen()
	if logf.Records() != 1 {
		t.Fatalf("setup: the cut left %d records, want the catalog image alone", logf.Records())
	}
	if logf.End() < stamped {
		t.Errorf("log reopened at LSN %d, below LSN %d already stamped into pages", logf.End(), stamped)
	}
	srv, err = OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// A second commit to the same page; its page never reaches the volume.
	overwriteSeeded(t, srv, oid, "version2", "version3")
	crash(vol, logf)

	vol, logf = reopen()
	defer vol.Close()
	defer logf.Close()
	srv, err = OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv, oid); got != "version3" {
		t.Fatalf("acknowledged commit lost: object holds %q, want %q", got, "version3")
	}
}
