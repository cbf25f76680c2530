package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TruncateBefore keeps the tail with its LSNs and advances the start.
func TestTruncateBeforeKeepsTail(t *testing.T) {
	l := NewMemLog()
	var lsns []LSN
	for i := 0; i < 6; i++ {
		lsns = append(lsns, appendUpdate(l, uint64(i+1), uint32(i+1), byte(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(lsns[3]); err != nil {
		t.Fatal(err)
	}
	if got := l.StartLSN(); got != lsns[3] {
		t.Fatalf("StartLSN = %d, want %d", got, lsns[3])
	}
	recs := collect(t, l)
	if len(recs) != 3 {
		t.Fatalf("kept %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[3+i] {
			t.Errorf("record %d LSN = %d, want %d (LSNs must survive the cut)", i, r.LSN, lsns[3+i])
		}
	}
	// LSN space keeps growing monotonically past the cut.
	if next := appendUpdate(l, 99, 99, 0xFF); next <= lsns[5] {
		t.Fatalf("post-truncate LSN %d not beyond %d", next, lsns[5])
	}
}

// A cut that points inside a record backs up to the preceding record
// boundary, and a cut beyond the durable prefix clamps to it.
func TestTruncateBeforeClampsToBoundaries(t *testing.T) {
	l := NewMemLog()
	a := appendUpdate(l, 1, 1, 1)
	b := appendUpdate(l, 2, 2, 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	c := appendUpdate(l, 3, 3, 3) // appended but not flushed
	if err := l.TruncateBefore(b + 10); err != nil {
		t.Fatal(err) // mid-record: keeps b whole
	}
	if got := l.StartLSN(); got != b {
		t.Fatalf("mid-record cut: StartLSN = %d, want %d", got, b)
	}
	if err := l.TruncateBefore(c + 1000); err != nil {
		t.Fatal(err) // beyond flushed: clamps to durable prefix (drops b only)
	}
	if got := l.StartLSN(); got != c {
		t.Fatalf("beyond-durable cut: StartLSN = %d, want %d", got, c)
	}
	recs := collect(t, l)
	if len(recs) != 1 || recs[0].LSN != c {
		t.Fatalf("unflushed tail must survive any cut: %+v", recs)
	}
	_ = a
}

// A file log survives TruncateBefore across close/reopen: the tail is
// intact, the base is read from the file header, and appends continue.
func TestTruncateBeforeFileLogReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	for i := 0; i < 5; i++ {
		lsns = append(lsns, appendUpdate(l, uint64(i+1), uint32(i+1), byte(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(lsns[2]); err != nil {
		t.Fatal(err)
	}
	tail := appendUpdate(l, 9, 9, 9)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := collect(t, r)
	want := []LSN{lsns[2], lsns[3], lsns[4], tail}
	if len(recs) != len(want) {
		t.Fatalf("reopened with %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.LSN != want[i] {
			t.Errorf("record %d LSN = %d, want %d", i, rec.LSN, want[i])
		}
	}
	if next := appendUpdate(r, 10, 10, 10); next <= tail {
		t.Fatalf("reopened log reused LSN space: %d <= %d", next, tail)
	}
}

// A crash before the rename leaves the old file (plus a stale temp) — the
// log reopens whole; the cut simply never happened.
func TestTruncateBeforeCrashBeforeRenameKeepsOldLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	for i := 0; i < 4; i++ {
		lsns = append(lsns, appendUpdate(l, uint64(i+1), uint32(i+1), byte(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the temp file exists (fully or partially
	// written) but the rename never ran.
	if err := os.WriteFile(path+".truncating", []byte("partial tail garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs := collect(t, r); len(recs) != 4 {
		t.Fatalf("old log damaged by aborted truncation: %d records, want 4", len(recs))
	}
}

// A shipper whose position the cut left below the log's start is woken
// (NotifyDurable), observes compaction and must reseed from a snapshot; one
// at the cut reads on.
func TestTruncateBeforeCompactsSubscriptions(t *testing.T) {
	l := NewMemLog()
	first := appendUpdate(l, 1, 1, 1)
	mid := appendUpdate(l, 2, 2, 2)
	appendUpdate(l, 3, 3, 3)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{}, 1)
	l.NotifyDurable(ch)
	if err := l.TruncateBefore(mid); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no signal after the cut")
	}
	if _, err := l.DurableFrom(first, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("DurableFrom below cut: err = %v, want ErrCompacted", err)
	}
	if chunk, err := l.DurableFrom(mid, 0); err != nil || len(chunk) == 0 {
		t.Fatalf("DurableFrom at cut: %d bytes, err %v", len(chunk), err)
	}
}

// OpenFileLog prunes at an LSN-run break: leftover bytes that were a valid
// record at another position, in an older file generation, fail the checksum
// seeded with this position and cannot splice onto the tail.
func TestOpenFileLogPrunesLSNRunBreak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	appendUpdate(l, 1, 1, 1)
	good := appendUpdate(l, 2, 2, 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a VALID record image whose LSN belongs elsewhere in the
	// stream — stale bytes a torn in-place rewrite could have left.
	stale := Record{LSN: good + 1000, Tx: 9, Type: RecUpdate, Page: 9, New: []byte{9}}
	buf := appendRecord(nil, &stale)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := collect(t, r)
	if len(recs) != 2 || recs[len(recs)-1].LSN != good {
		t.Fatalf("stale record spliced in: %d records, last LSN %v", len(recs), recs[len(recs)-1].LSN)
	}
	if next := appendUpdate(r, 5, 5, 5); next <= good || next >= stale.LSN {
		t.Fatalf("base misrecovered: next LSN %d (want just past %d, not derived from stale %d)",
			next, good, stale.LSN)
	}
}
