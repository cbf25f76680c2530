package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFlushToForcesPrefixOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := l.Append(Record{Tx: 1, Type: RecBegin})
	b := l.Append(Record{Tx: 1, Type: RecUpdate, Page: 2, Off: 8, Old: []byte("xx"), New: []byte("yy")})
	c := l.Append(Record{Tx: 2, Type: RecBegin})
	if err := l.FlushTo(b); err != nil {
		t.Fatal(err)
	}
	// Records a and b are durable, c is not.
	if got := l.FlushedLSN(); got <= b || got > c {
		t.Fatalf("FlushedLSN = %d, want in (%d, %d]", got, b, c)
	}
	// Flushing an already-durable LSN is a no-op.
	before := l.FlushedLSN()
	if err := l.FlushTo(a); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() != before {
		t.Fatal("FlushTo of durable LSN moved the horizon")
	}
	// The durable prefix really is on disk: a reopen sees exactly a and b.
	l.DiscardUnflushed()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fileHeaderBytes + int(before-1); int(st.Size()) != want {
		t.Fatalf("file holds %d bytes, want %d", st.Size(), want)
	}
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 2 {
		t.Fatalf("reopened log has %d records, want 2", l2.Records())
	}
}

func TestFlushToUnparsableLSNFallsBackToFullFlush(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Tx: 1, Type: RecBegin})
	end := l.Append(Record{Tx: 1, Type: RecCommit})
	// Raw large-object pages carry arbitrary bytes where a pageLSN would
	// sit; FlushTo must stay safe for any value, over-flushing at worst.
	if err := l.FlushTo(end + 999999); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() <= end {
		t.Fatal("fallback did not flush the whole log")
	}
}

func TestFlushHookErrorShortensTheDurableTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Tx: 1, Type: RecBegin})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 4, Off: 8, New: []byte("abcd")})
	l.Append(Record{Tx: 1, Type: RecCommit})
	boom := errors.New("crash in flush")
	l.FlushHook = func(pending int) (int, error) {
		return pending / 2, boom // a torn tail: half the pending bytes land
	}
	if err := l.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush fault not surfaced: %v", err)
	}
	// The file now ends mid-record; reopening prunes the torn tail and
	// keeps only the clean prefix (the BEGIN forced earlier).
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 1 {
		t.Fatalf("reopened log has %d records, want the 1 clean record", l2.Records())
	}
	// LSN space stays monotone past the pruned bytes.
	next := l2.Append(Record{Tx: 2, Type: RecBegin})
	if next == NilLSN {
		t.Fatal("append after prune returned NilLSN")
	}
}

func TestFlushHookNilErrorFlushesEverything(t *testing.T) {
	l := NewMemLog()
	calls := 0
	l.FlushHook = func(pending int) (int, error) { calls++; return 0, nil }
	l.Append(Record{Tx: 1, Type: RecBegin})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times", calls)
	}
	if l.FlushedLSN() != l.End() {
		t.Fatal("nil-error hook must not shorten the flush")
	}
}

// FuzzOpenFileLogTornTail feeds OpenFileLog logs whose tails were truncated
// or bit-flipped, as a crash mid-flush leaves them, and checks the
// invariants the recovery path relies on: the valid prefix is kept intact,
// corruption never propagates an error out of OpenFileLog, and LSNs handed
// out after reopen stay strictly monotone (the l.base arithmetic).
func FuzzOpenFileLogTornTail(f *testing.F) {
	f.Add(uint16(0), uint16(0), byte(0))
	f.Add(uint16(10), uint16(3), byte(0x01))
	f.Add(uint16(999), uint16(200), byte(0xFF))
	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipMask byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "log")
		l, err := CreateFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		var lsns []LSN
		for i := 0; i < 5; i++ {
			lsns = append(lsns, l.Append(Record{Tx: uint64(i + 1), Type: RecBegin}))
			lsns = append(lsns, l.Append(Record{
				Tx: uint64(i + 1), Type: RecUpdate, Page: uint32(i),
				Off: 8, Old: []byte{byte(i)}, New: []byte{byte(i + 1)},
			}))
			lsns = append(lsns, l.Append(Record{Tx: uint64(i + 1), Type: RecCommit}))
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		maxLSN := lsns[len(lsns)-1]
		l.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Tear the tail: truncate `cut` bytes, then flip a byte in what
		// remains. Only record bytes tear: the file header was forced
		// before the first append.
		if recs := len(raw) - fileHeaderBytes; int(cut) > recs {
			cut = uint16(recs)
		}
		raw = raw[:len(raw)-int(cut)]
		if recs := raw[fileHeaderBytes:]; len(recs) > 0 && flipMask != 0 {
			recs[int(flipAt)%len(recs)] ^= flipMask
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("OpenFileLog must prune, not fail: %v", err)
		}
		defer l2.Close()

		// Whatever survived is a clean prefix of the original records.
		var prev LSN
		i := 0
		if err := l2.Iterate(func(r Record) bool {
			if i >= len(lsns) || r.LSN != lsns[i] {
				t.Fatalf("record %d: LSN %d, want %d", i, r.LSN, lsns[i])
			}
			if r.LSN <= prev {
				t.Fatalf("LSNs not increasing: %d after %d", r.LSN, prev)
			}
			prev = r.LSN
			i++
			return true
		}); err != nil {
			t.Fatalf("pruned log must iterate cleanly: %v", err)
		}

		// New appends never reuse LSN space from before the crash.
		next := l2.Append(Record{Tx: 99, Type: RecBegin})
		if i > 0 && next <= prev {
			t.Fatalf("post-reopen LSN %d not beyond surviving prefix %d", next, prev)
		}
		if i == len(lsns) && next <= maxLSN {
			t.Fatalf("post-reopen LSN %d not beyond full log %d", next, maxLSN)
		}
	})
}
