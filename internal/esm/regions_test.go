package esm

import (
	"bytes"
	"errors"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// pageRun is a 20-region update record for page pid as a client's diff of a
// page would build it: five-byte regions 60 bytes apart from offset 64,
// before-images of zeroes, the region at index 7 redo-only.
func pageRun(pid disk.PageID, fill byte) wal.Record {
	zeros := make([]byte, 5)
	rec := wal.Record{Type: wal.RecUpdate, Page: uint32(pid), Off: 64, Old: zeros, New: bytes.Repeat([]byte{fill}, 5)}
	for i := 1; i < 20; i++ {
		old := zeros
		if i == 7 {
			old = nil
		}
		rec.More = wal.AppendRegion(rec.More, 60, old, bytes.Repeat([]byte{fill + byte(i)}, 5))
	}
	return rec
}

// regionState says, of a page image and a record, whether every region holds
// its after-image (applied), and whether every undoable region holds its
// before-image while every redo-only one is still applied (undone). A page
// on which some regions moved and others did not is neither.
func regionState(img []byte, rec *wal.Record) (applied, undone bool) {
	applied, undone = true, true
	for it := rec.Regions(); it.Next(); {
		at := img[it.Off : it.Off+len(it.New)]
		if !bytes.Equal(at, it.New) {
			applied = false
		}
		if len(it.Old) != 0 && !bytes.Equal(at, it.Old) || len(it.Old) == 0 && !bytes.Equal(at, it.New) {
			undone = false
		}
	}
	return applied, undone
}

func updateRecords(t testing.TB, l *wal.Log, typ wal.RecType) (recs []wal.Record) {
	t.Helper()
	if err := l.Iterate(func(r wal.Record) bool {
		if r.Type == typ {
			recs = append(recs, r)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func countRegions(r *wal.Record) (n int) {
	for it := r.Regions(); it.Next(); {
		n++
	}
	return n
}

// TestRegionRecordRedoneAndAbortedWhole: the server appends a 20-region
// record as one log record, redoes all of it under one page LSN, and a
// runtime abort undoes all of it under one compensation record.
func TestRegionRecordRedoneAndAbortedWhole(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	tx := beginTx(t, srv)
	rec := pageRun(pid, 0x40)
	records := srv.log.Records()
	resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: logBatch(rec)})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if got := srv.log.Records() - records; got != 1 {
		t.Fatalf("%d records appended for one page run", got)
	}
	img := poolImage(t, srv, pid)
	if applied, _ := regionState(img, &rec); !applied {
		t.Fatal("not every region of the record was redone onto the server's page")
	}
	if lsn := pageLSNOf(img); lsn != resp.N {
		t.Fatalf("page LSN %d, want the record's LSN %d", lsn, resp.N)
	}
	logged := updateRecords(t, srv.log, wal.RecUpdate)
	if len(logged) != 1 || countRegions(&logged[0]) != 20 || logged[0].Tx != tx {
		t.Fatalf("the log holds %d update records; the first has %d regions", len(logged), countRegions(&logged[0]))
	}
	if resp := srv.Handle(&Request{Op: OpAbort, Tx: tx}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	img = poolImage(t, srv, pid)
	if _, undone := regionState(img, &rec); !undone {
		t.Fatal("the abort left some regions of the record applied")
	}
	clrs := updateRecords(t, srv.log, wal.RecCLR)
	if len(clrs) != 1 || countRegions(&clrs[0]) != 19 {
		t.Fatalf("%d CLRs for one undone record (the first with %d regions, want the 19 undoable ones)", len(clrs), countRegions(&clrs[0]))
	}
	if lsn := pageLSNOf(img); lsn != uint64(clrs[0].LSN) {
		t.Fatalf("page LSN %d after the undo, want the CLR's %d", lsn, clrs[0].LSN)
	}
}

// TestRegionRecordAtRestart: restart recovery redoes a winner's 20-region
// record onto a page that never reached the volume — all of it, and a second
// restart changes nothing — and undoes a loser's, all of it, while a record
// that was never forced (DiscardUnflushed) leaves no region behind.
func TestRegionRecordAtRestart(t *testing.T) {
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, err := NewServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	first, err := vol.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	winPage, losePage := first, first+1
	raw := make([]byte, disk.PageSize)

	// The loser's first record reaches the volume with its page: a fuzzy
	// checkpoint forces the log, then writes the page.
	lose := pageRun(losePage, 0x80)
	loser := beginTx(t, srv)
	if resp := srv.Handle(&Request{Op: OpLog, Tx: loser, Data: logBatch(lose)}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := vol.ReadPage(losePage, raw); err != nil {
		t.Fatal(err)
	}
	if applied, _ := regionState(raw, &lose); !applied {
		t.Fatal("setup: the loser's page did not reach the volume")
	}
	// The winner commits: the log is forced, its page lives only in the pool.
	win := pageRun(winPage, 0x10)
	winner := beginTx(t, srv)
	if resp := srv.Handle(&Request{Op: OpLog, Tx: winner, Data: logBatch(win)}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp := srv.Handle(&Request{Op: OpCommit, Tx: winner}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if err := vol.ReadPage(winPage, raw); err != nil {
		t.Fatal(err)
	}
	if applied, _ := regionState(raw, &win); applied {
		t.Fatal("setup: the winner's page already reached the volume")
	}
	// The loser's second record, on the same page, is in the log buffer and
	// the pool when the server dies.
	late := wal.Record{Type: wal.RecUpdate, Page: uint32(losePage), Off: 4000, Old: make([]byte, 3), New: []byte("new"),
		More: wal.AppendRegion(nil, 10, make([]byte, 3), []byte("NEW"))}
	if resp := srv.Handle(&Request{Op: OpLog, Tx: loser, Data: logBatch(late)}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	logf.DiscardUnflushed() // the crash

	var after [2][]byte
	for restart := range after {
		srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		w, l := poolImage(t, srv2, winPage), poolImage(t, srv2, losePage)
		if applied, _ := regionState(w, &win); !applied {
			t.Fatalf("restart %d: the winner's record was not redone in full", restart)
		}
		if _, undone := regionState(l, &lose); !undone {
			t.Fatalf("restart %d: the loser's record was not undone in full", restart)
		}
		if applied, undone := regionState(l, &late); applied || !undone {
			t.Fatalf("restart %d: a record that was never forced left bytes on the page", restart)
		}
		after[restart] = append(w, l...)
	}
	if !bytes.Equal(after[0], after[1]) {
		t.Fatal("a second restart changed the pages")
	}
	if clrs := updateRecords(t, logf, wal.RecCLR); len(clrs) != 1 || countRegions(&clrs[0]) != 19 {
		t.Fatalf("%d CLRs in the log after two restarts, want one of 19 regions", len(clrs))
	}
}

// decodeBatch returns the records of a commit payload that carries no whole
// page, regions materialised as (offset, after-image) pairs.
func decodeBatch(t *testing.T, data []byte) (pages []uint32, regions [][]int) {
	t.Helper()
	pl, err := ReadPayload(data)
	if err != nil {
		t.Fatal(err)
	}
	for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
		var offs []int
		for it := rec.Regions(); it.Next(); {
			offs = append(offs, it.Off)
		}
		pages, regions = append(pages, rec.Page), append(regions, offs)
	}
	if pid, _, _, ok := pl.Page(); ok {
		t.Fatalf("batch carries page %d whole after its last record", pid)
	}
	return pages, regions
}

// TestLogUpdateFoldsPageRuns: consecutive LogUpdate calls for one page at
// non-overlapping ascending offsets become one record; a page change, an
// offset below the previous region's end, and a FlushLog each start a new
// one. The batch's record count is what the server appends; the cost model
// still sees one record per call.
func TestLogUpdateFoldsPageRuns(t *testing.T) {
	srv, pid := logBatchServer(t, 2)
	clock := sim.NewClock(sim.CostModel{})
	tap := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tap, ClientConfig{BufferPages: 4, Clock: clock})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	five, zeros := []byte("12345"), make([]byte, 5)
	for _, u := range []struct {
		pid disk.PageID
		off int
	}{
		{pid, 100}, {pid, 200}, {pid, 205}, // one record: ascending, the third adjacent to the second
		{pid, 150},     // a lower offset: a new record
		{pid, 152},     // inside the previous region: a new record
		{pid + 1, 300}, // another page: a new record
		{pid + 1, 400},
	} {
		c.LogUpdate(u.pid, u.off, zeros, five)
	}
	records := srv.log.Records()
	if err := c.FlushLog(); err != nil {
		t.Fatal(err)
	}
	c.LogUpdate(pid+1, 500, zeros, five) // ascending on the same page, but the batch has shipped
	if err := c.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if len(tap.batches) != 2 {
		t.Fatalf("%d OpLog calls, want 2", len(tap.batches))
	}
	pages, regions := decodeBatch(t, tap.batches[0])
	wantPages := []uint32{uint32(pid), uint32(pid), uint32(pid), uint32(pid + 1)}
	wantRegions := [][]int{{100, 200, 205}, {150}, {152}, {300, 400}}
	if len(pages) != len(wantPages) {
		t.Fatalf("first batch holds %d records %v, want %v", len(pages), regions, wantRegions)
	}
	for i := range wantPages {
		if pages[i] != wantPages[i] || !equalInts(regions[i], wantRegions[i]) {
			t.Fatalf("record %d: page %d regions %v, want page %d regions %v", i, pages[i], regions[i], wantPages[i], wantRegions[i])
		}
	}
	if pages, regions = decodeBatch(t, tap.batches[1]); len(pages) != 1 || !equalInts(regions[0], []int{500}) {
		t.Fatalf("second batch: %v", regions)
	}
	if got := srv.log.Records() - records; got != 5 {
		t.Fatalf("the server appended %d records for batches counting 4 and 1", got)
	}
	if got := clock.Count(sim.CtrLogRecord); got != 8 {
		t.Fatalf("the cost model was charged %d log records for 8 LogUpdate calls", got)
	}
	// Applied in order, the later records of the overlapping pair win.
	img := poolImage(t, srv, pid)
	if string(img[150:157]) != "1212345" {
		t.Fatalf("overlapping records redone out of order: %q", img[150:157])
	}
	// An abort drops the open record with the rest of the batch.
	c.LogUpdate(pid, 900, zeros, five)
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	c.LogUpdate(pid, 1000, zeros, five)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, regions = decodeBatch(t, tap.batches[len(tap.batches)-1]); len(regions) != 1 || !equalInts(regions[0], []int{1000}) {
		t.Fatalf("the batch after an abort: %v", regions)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlushLogReusesItsBuffer: the pending batch's buffer is kept across
// flushes, whether the server answered — successfully or with an error — or
// the transport failed: no Transport reads a request once its Call has
// returned, so a failed batch is dropped and its buffer built over.
func TestFlushLogReusesItsBuffer(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	tap := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tap, ClientConfig{BufferPages: 4})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 512)
	flush := func(off int) (*byte, error) {
		c.LogUpdate(pid, off, nil, img)
		c.LogUpdate(pid, off+1024, nil, img)
		err := c.FlushLog()
		return &c.pending[0], err // where the next batch will be built
	}
	first, err := flush(64)
	if err != nil {
		t.Fatal(err)
	}
	grown := cap(c.pending)
	if grown < 1024 {
		t.Fatalf("the flushed batch's %d-byte buffer was not kept", grown)
	}
	if again, err := flush(2048); err != nil || again != first || cap(c.pending) != grown {
		t.Fatalf("a second flush moved the buffer (err %v)", err)
	}
	if len(c.pending) != 4 || c.nrecs != 0 {
		t.Fatalf("after a flush: %d pending bytes, %d records", len(c.pending), c.nrecs)
	}
	// The server refuses the batch (a region past the page): it answered, so
	// the buffer is free again.
	if again, err := flush(disk.PageSize - 1100); err == nil || again != first {
		t.Fatalf("a refused batch: err %v, buffer moved %v", err, again != first)
	}
	if next, _ := flush(64); next != first {
		t.Fatal("the buffer was dropped after an answered error")
	}
	tap.fail = errors.New("connection reset")
	if next, err := flush(64); err == nil || next != first || len(c.pending) != 4 || c.nrecs != 0 {
		t.Fatalf("after a transport failure (err %v): buffer moved %v, %d pending bytes, %d records",
			err, next != first, len(c.pending), c.nrecs)
	}
	tap.fail = nil
}
