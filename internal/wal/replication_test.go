package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func appendUpdate(l *Log, tx uint64, page uint32, payload byte) LSN {
	return l.Append(Record{Tx: tx, Type: RecUpdate, Page: page, New: bytes.Repeat([]byte{payload}, 16)})
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Iterate(func(r Record) bool { recs = append(recs, r); return true }); err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return recs
}

// A follower that splices every shipped chunk ends up with a byte-identical
// log: same records, same LSNs, retransmits ignored. The shipper's position
// is a plain LSN advanced by each chunk it reads.
func TestSubscribeShipAppendRaw(t *testing.T) {
	leader := NewMemLog()
	follower := NewMemLog()
	pos := leader.StartLSN()

	for i := 0; i < 5; i++ {
		appendUpdate(leader, uint64(i+1), uint32(i), byte(i))
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	chunk, err := leader.DurableFrom(pos, 0)
	if err != nil || chunk == nil {
		t.Fatalf("DurableFrom: chunk=%v err=%v", chunk, err)
	}
	if err := follower.AppendRaw(pos, chunk); err != nil {
		t.Fatalf("AppendRaw: %v", err)
	}
	// Retransmit of the same chunk is a verified no-op.
	if err := follower.AppendRaw(pos, chunk); err != nil {
		t.Fatalf("retransmit: %v", err)
	}
	if err := follower.Flush(); err != nil {
		t.Fatal(err)
	}
	pos += LSN(len(chunk))

	appendUpdate(leader, 9, 9, 0xAA)
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	chunk, err = leader.DurableFrom(pos, 0)
	if err != nil || chunk == nil {
		t.Fatalf("DurableFrom tail: chunk=%v err=%v", chunk, err)
	}
	if err := follower.AppendRaw(pos, chunk); err != nil {
		t.Fatalf("AppendRaw tail: %v", err)
	}
	pos += LSN(len(chunk))

	lr, fr := collect(t, leader), collect(t, follower)
	if len(lr) != len(fr) || len(lr) != 6 {
		t.Fatalf("record counts: leader %d follower %d", len(lr), len(fr))
	}
	for i := range lr {
		if lr[i].LSN != fr[i].LSN || lr[i].Tx != fr[i].Tx {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, lr[i], fr[i])
		}
	}
	if follower.End() != leader.End() {
		t.Fatalf("ends differ: %d vs %d", follower.End(), leader.End())
	}
	// Caught up: nothing more durable.
	if chunk, err := leader.DurableFrom(pos, 0); err != nil || chunk != nil {
		t.Fatalf("caught-up DurableFrom: chunk=%v err=%v", chunk, err)
	}
}

// DurableFrom never splits a record and never returns unflushed bytes.
func TestDurableFromBounds(t *testing.T) {
	l := NewMemLog()
	first := appendUpdate(l, 1, 1, 1)
	appendUpdate(l, 2, 2, 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	unflushed := appendUpdate(l, 3, 3, 3)

	chunk, err := l.DurableFrom(first, 1) // smaller than one record: nothing fits
	if err != nil || chunk != nil {
		t.Fatalf("tiny cap: chunk=%v err=%v", chunk, err)
	}
	one := int(l.FlushedLSN()-first) / 2
	chunk, err = l.DurableFrom(first, one)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != one {
		t.Fatalf("capped chunk = %d bytes, want one record (%d)", len(chunk), one)
	}
	pos := first + LSN(len(chunk))
	chunk, err = l.DurableFrom(pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != one {
		t.Fatalf("second chunk = %d bytes, want the remaining record (%d)", len(chunk), one)
	}
	if pos += LSN(len(chunk)); pos != l.FlushedLSN() {
		t.Fatalf("reads did not stop at the durable prefix: %d, want %d", pos, l.FlushedLSN())
	}
	// The unflushed record's bytes are never returned.
	if chunk, err := l.DurableFrom(unflushed, 0); err != nil || chunk != nil {
		t.Fatalf("unflushed record shipped: chunk=%v err=%v", chunk, err)
	}
}

// AppendDurable appends the chunk DurableFrom would return to a caller's
// buffer, allocating nothing once the buffer is large enough: a read from
// a later record appends the rest, a read from inside a record appends
// nothing, and a capped read still ends on a record edge.
func TestAppendDurableAppendsToBuffer(t *testing.T) {
	l := NewMemLog()
	first := appendUpdate(l, 1, 1, 1)
	second := appendUpdate(l, 2, 2, 2)
	appendUpdate(l, 3, 3, 3)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := l.DurableFrom(first, 0)
	if err != nil || len(want) == 0 {
		t.Fatalf("DurableFrom: %d bytes, %v", len(want), err)
	}
	buf := append(make([]byte, 0, 4*len(want)), "hdr"...)
	got, err := l.AppendDurable(buf, first, 0)
	if err != nil || string(got[:3]) != "hdr" || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendDurable = %q, %v; want the header, then the DurableFrom chunk", got, err)
	}
	if got, _ := l.AppendDurable(buf, second, 0); !bytes.Equal(got[3:], want[second-first:]) {
		t.Fatalf("read from the second record = %d bytes, want %d", len(got)-3, len(want)-int(second-first))
	}
	if got, _ := l.AppendDurable(buf, first+1, 0); len(got) != len(buf) {
		t.Fatalf("a read from inside a record appended %d bytes", len(got)-len(buf))
	}
	if got, _ := l.AppendDurable(buf, first, int(second-first)+1); !bytes.Equal(got[3:], want[:second-first]) {
		t.Fatalf("capped read = %d bytes, want the first record (%d)", len(got)-3, second-first)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = l.AppendDurable(buf, first, 0) }); n != 0 {
		t.Fatalf("AppendDurable into a large enough buffer: %v allocs, want 0", n)
	}
}

func TestAppendRawGapAndDivergence(t *testing.T) {
	leader := NewMemLog()
	appendUpdate(leader, 1, 1, 1)
	appendUpdate(leader, 2, 2, 2)
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	chunk, err := leader.DurableFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}

	follower := NewMemLog()
	// Gap: the follower has nothing, a chunk starting past 1 must be refused.
	half := len(chunk) / 2
	if err := follower.AppendRaw(LSN(1+half), chunk[half:]); err == nil {
		t.Fatal("gap chunk accepted")
	}
	if err := follower.AppendRaw(1, chunk); err != nil {
		t.Fatal(err)
	}
	// Divergence: same LSNs, different bytes. Two records of the
	// follower's sizes are a full retransmit (the byte comparison); four
	// longer ones overrun the follower's tail, which then ends inside a
	// shipped record (the record-edge check).
	for _, tc := range []struct {
		name string
		fill func(*Log)
	}{
		{"full retransmit", func(l *Log) {
			appendUpdate(l, 7, 7, 7)
			appendUpdate(l, 8, 8, 8)
		}},
		{"longer chunk", func(l *Log) {
			for i := 0; i < 4; i++ {
				l.Append(Record{Tx: 7, Type: RecUpdate, Page: 7, New: bytes.Repeat([]byte{7}, 23)})
			}
		}},
	} {
		other := NewMemLog()
		tc.fill(other)
		if err := other.Flush(); err != nil {
			t.Fatal(err)
		}
		stale, err := other.DurableFrom(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.AppendRaw(1, stale); !errors.Is(err, ErrDiverged) {
			t.Fatalf("divergent retransmit (%s): %v", tc.name, err)
		}
	}
	// Corrupt content is rejected before any mutation.
	bad := append([]byte(nil), chunk...)
	bad[len(bad)-1] ^= 0xFF
	fresh := NewMemLog()
	if err := fresh.AppendRaw(1, bad); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if fresh.End() != 1 {
		t.Fatalf("corrupt chunk mutated the log: end=%d", fresh.End())
	}
}

// A shipper's position inside a generation the log cut reads ErrCompacted.
func TestSubscriptionCompactedAfterTruncate(t *testing.T) {
	l := NewMemLog()
	pos := l.StartLSN()
	appendUpdate(l, 1, 1, 1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	chunk, err := l.DurableFrom(pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos += LSN(len(chunk))
	appendUpdate(l, 2, 2, 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.DurableFrom(pos, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("position in truncated generation: %v", err)
	}
}

// NotifyDurable signals a flush, a truncation and a close, and nothing
// before them.
func TestSubscriptionWait(t *testing.T) {
	l := NewMemLog()
	ch := make(chan struct{}, 1)
	l.NotifyDurable(ch)
	signalled := func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	appendUpdate(l, 1, 1, 1)
	if signalled() {
		t.Fatal("signal with nothing durable")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !signalled() {
		t.Fatal("no signal after a flush")
	}
	if chunk, err := l.DurableFrom(l.StartLSN(), 0); err != nil || chunk == nil {
		t.Fatalf("post-signal DurableFrom: %v %v", chunk, err)
	}
	if err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	if !signalled() {
		t.Fatal("no signal after a truncation")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !signalled() {
		t.Fatal("no signal after a close")
	}
}

func TestNotifyDurable(t *testing.T) {
	l := NewMemLog()
	ch := make(chan struct{}, 1)
	l.NotifyDurable(ch)
	appendUpdate(l, 1, 1, 1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no notify signal after flush")
	}
	l.StopNotify(ch)
	appendUpdate(l, 2, 2, 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("signal after StopNotify")
	default:
	}
}

// A snapshot install survives a file-log reopen: the base is re-derived
// from the records' absolute LSNs, exactly as after a checkpoint truncate.
func TestLoadSnapshotFileRoundTrip(t *testing.T) {
	leader := NewMemLog()
	for i := 0; i < 4; i++ {
		appendUpdate(leader, uint64(i+1), uint32(i), byte(i))
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := leader.TruncateBefore(leader.End()); err != nil {
		t.Fatal(err)
	}
	tail := appendUpdate(leader, 9, 9, 9)
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	start := leader.StartLSN()
	content, err := leader.DurableFrom(start, 0)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "follower.log")
	fl, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing content must be wholly replaced.
	appendUpdate(fl, 100, 100, 0xCC)
	if err := fl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fl.LoadSnapshot(start, content); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if fl.End() != leader.End() || fl.FlushedLSN() != leader.FlushedLSN() {
		t.Fatalf("follower end %d/%d, leader %d/%d", fl.End(), fl.FlushedLSN(), leader.End(), leader.FlushedLSN())
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := collect(t, re)
	if len(recs) != 1 || recs[0].LSN != tail {
		t.Fatalf("reopened snapshot: %d records, first LSN %v (want %v)", len(recs), recs[0].LSN, tail)
	}
	if re.End() != leader.End() {
		t.Fatalf("reopened end %d, want %d", re.End(), leader.End())
	}
	// Mismatched start is refused.
	if err := re.LoadSnapshot(start+1, content); err == nil {
		t.Fatal("snapshot with wrong start accepted")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not persisted: %v %v", fi, err)
	}
}

// TestLoadSnapshotKeepsNoOldLog installs a one-record snapshot over a
// follower log that held a megabyte: the log's buffer is the snapshot's
// size afterwards, not the size of the log it replaced.
func TestLoadSnapshotKeepsNoOldLog(t *testing.T) {
	fl := NewMemLog()
	for fl.Bytes() < 1<<20 {
		appendUpdate(fl, 1, 1, 0xAA)
	}
	if err := fl.Flush(); err != nil {
		t.Fatal(err)
	}
	leader := NewMemLog()
	appendUpdate(leader, 2, 2, 0xBB)
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	content, err := leader.DurableFrom(leader.StartLSN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.LoadSnapshot(leader.StartLSN(), content); err != nil {
		t.Fatal(err)
	}
	if c := cap(fl.buf); c > 2*len(content) {
		t.Fatalf("after a %d-byte snapshot the log keeps a %d KB buffer", len(content), c>>10)
	}
	if recs := collect(t, fl); len(recs) != 1 || recs[0].Tx != 2 {
		t.Fatalf("the installed log holds %d records, want the snapshot's one", len(recs))
	}
}
