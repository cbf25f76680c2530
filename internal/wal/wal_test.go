package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestAppendIterate(t *testing.T) {
	l := NewMemLog()
	r1 := l.Append(Record{Tx: 1, Type: RecBegin})
	r2 := l.Append(Record{Tx: 1, Type: RecUpdate, Page: 7, Off: 100, Old: []byte("aa"), New: []byte("bb")})
	r3 := l.Append(Record{Tx: 1, Type: RecCommit, PrevLSN: r2})
	if !(r1 < r2 && r2 < r3) {
		t.Fatalf("LSNs not increasing: %d %d %d", r1, r2, r3)
	}
	var got []Record
	if err := l.Iterate(func(r Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("iterated %d records", len(got))
	}
	if got[1].Page != 7 || got[1].Off != 100 || string(got[1].Old) != "aa" || string(got[1].New) != "bb" {
		t.Fatalf("record round trip: %+v", got[1])
	}
	if got[2].PrevLSN != r2 {
		t.Fatal("PrevLSN lost")
	}
	if l.Records() != 3 {
		t.Fatalf("Records = %d", l.Records())
	}
}

func TestIterateEarlyStop(t *testing.T) {
	l := NewMemLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Tx: uint64(i), Type: RecBegin})
	}
	n := 0
	l.Iterate(func(Record) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("early stop after %d", n)
	}
}

func TestFileLogPersistenceAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 3, Off: 8, New: []byte{1, 2, 3}})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// An unflushed record is lost at the crash.
	l.Append(Record{Tx: 1, Type: RecCommit})
	l.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 2 {
		t.Fatalf("recovered %d records, want 2 (commit was never forced)", l2.Records())
	}
}

// A torn record must not come back. The open cuts the rejected tail off
// the file: otherwise a later record of the same length lands on the torn
// one, and the stale record after it decodes again at its old position,
// its checksum seed (the LSN) unchanged.
func TestTornTailCutBeforeNextAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Tx: 7, Type: RecBegin})
	l.Append(Record{Tx: 7, Type: RecCommit})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[fileHeaderBytes+1] ^= 0x01 // inside the Begin: its checksum no longer matches
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Records() != 0 {
		t.Fatalf("torn log kept %d records, want 0", l2.Records())
	}
	l2.Append(Record{Tx: 9, Type: RecBegin})
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	var got []Record
	if err := l3.Iterate(func(r Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tx != 9 || got[0].Type != RecBegin {
		t.Fatalf("reopened log holds %+v, want only tx 9's Begin", got)
	}
}

func TestDiscardUnflushed(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Flush()
	commit := l.Append(Record{Tx: 1, Type: RecCommit}) // stands where the begin record ends
	l.DiscardUnflushed()
	if l.FlushedLSN() != commit {
		t.Fatalf("FlushedLSN = %d", l.FlushedLSN())
	}
	n := 0
	l.Iterate(func(Record) bool { n++; return true })
	if n != 1 {
		t.Fatalf("after discard: %d records", n)
	}
}

// memStore is a trivial PageStore for recovery tests.
type memStore struct{ pages map[uint32][]byte }

func newMemStore() *memStore { return &memStore{pages: map[uint32][]byte{}} }

func (m *memStore) page(id uint32) []byte {
	if m.pages[id] == nil {
		m.pages[id] = make([]byte, 8192)
	}
	return m.pages[id]
}
func (m *memStore) ReadPage(id uint32, buf []byte) error  { copy(buf, m.page(id)); return nil }
func (m *memStore) WritePage(id uint32, buf []byte) error { copy(m.page(id), buf); return nil }

func lsnOf(buf []byte) uint64       { return binary.LittleEndian.Uint64(buf[:8]) }
func setLSN(buf []byte, lsn uint64) { binary.LittleEndian.PutUint64(buf[:8], lsn) }

func TestRecoverRedoWinner(t *testing.T) {
	l := NewMemLog()
	store := newMemStore()
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 5, Off: 100, Old: []byte{0, 0}, New: []byte{7, 8}})
	l.Append(Record{Tx: 1, Type: RecCommit})
	// Crash before the page ever reached disk: page 5 is all zeroes.
	got, err := Recover(l, store, 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	winners, losers := got.Winners, got.Losers
	if !winners[1] || len(losers) != 0 {
		t.Fatalf("winners=%v losers=%v", winners, losers)
	}
	p := store.page(5)
	if p[100] != 7 || p[101] != 8 {
		t.Fatalf("redo missing: %v", p[100:102])
	}
}

func TestRecoverUndoLoser(t *testing.T) {
	l := NewMemLog()
	store := newMemStore()
	l.Append(Record{Tx: 2, Type: RecBegin})
	rec := Record{Tx: 2, Type: RecUpdate, Page: 9, Off: 50, Old: []byte{1, 1}, New: []byte{9, 9}}
	lsn := l.Append(rec)
	// The dirty page was stolen to disk before the crash; no commit follows.
	p := store.page(9)
	p[50], p[51] = 9, 9
	setLSN(p, uint64(lsn))
	got, err := Recover(l, store, 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	winners, losers := got.Winners, got.Losers
	if len(winners) != 0 || !losers[2] {
		t.Fatalf("winners=%v losers=%v", winners, losers)
	}
	if p[50] != 1 || p[51] != 1 {
		t.Fatalf("undo missing: %v", p[50:52])
	}
	// A CLR and a final abort record are in the log.
	var types []RecType
	l.Iterate(func(r Record) bool { types = append(types, r.Type); return true })
	found := map[RecType]bool{}
	for _, ty := range types {
		found[ty] = true
	}
	if !found[RecCLR] || !found[RecAbort] {
		t.Fatalf("log after recovery: %v", types)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	l := NewMemLog()
	store := newMemStore()
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 3, Off: 40, Old: []byte{0}, New: []byte{5}})
	l.Append(Record{Tx: 1, Type: RecCommit})
	if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), store.page(3)...)
	if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, store.page(3)) {
		t.Fatal("second recovery changed the page")
	}
}

// A participant's prepared transaction with no decision stays in doubt:
// redone like a winner, never undone, no RecAbort appended.
func TestRecoverInDoubtParticipant(t *testing.T) {
	l := NewMemLog()
	store := newMemStore()
	coordTx := make([]byte, 8)
	binary.LittleEndian.PutUint64(coordTx, 77)
	l.Append(Record{Tx: 4, Type: RecBegin})
	l.Append(Record{Tx: 4, Type: RecUpdate, Page: 6, Off: 200, Old: []byte{0, 0}, New: []byte{3, 4}})
	prepLSN := l.Append(Record{Tx: 4, Type: RecPrepare, Page: 2, New: coordTx})
	got, err := Recover(l, store, 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	winners, losers, indoubt := got.Winners, got.Losers, got.InDoubt
	if len(winners) != 0 || len(losers) != 0 {
		t.Fatalf("winners=%v losers=%v", winners, losers)
	}
	d := indoubt[4]
	if d == nil {
		t.Fatal("prepared tx not reported in doubt")
	}
	if d.CoordShard != 2 || d.CoordTx != 77 || d.PrepareLSN != prepLSN {
		t.Fatalf("in-doubt info: %+v", d)
	}
	if len(d.Pages) != 1 || d.Pages[0] != 6 {
		t.Fatalf("in-doubt pages: %v", d.Pages)
	}
	p := store.page(6)
	if p[200] != 3 || p[201] != 4 {
		t.Fatalf("in-doubt update not redone: %v", p[200:202])
	}
	l.Iterate(func(r Record) bool {
		if r.Type == RecAbort || r.Type == RecCLR {
			t.Fatalf("in-doubt tx resolved by recovery: %v", r.Type)
		}
		return true
	})
}

// A coordinator's transaction without a decision record is presumed
// aborted at restart: it is a normal loser, undone with CLRs. A decision
// record, conversely, commits the transaction outright. Coordinators no
// longer prepare (txs 7 and 8); a log from when they did (txs 5 and 6, the
// prepare flagged PrepareCoord) recovers the same way.
func TestRecoverCoordinatorPresumesAbort(t *testing.T) {
	l := NewMemLog()
	store := newMemStore()
	// Tx 5: coordinator-side prepare, crash before decision -> abort.
	l.Append(Record{Tx: 5, Type: RecBegin})
	lsn := l.Append(Record{Tx: 5, Type: RecUpdate, Page: 7, Off: 10, Old: []byte{1}, New: []byte{9}})
	l.Append(Record{Tx: 5, Type: RecPrepare, Page: 0, Off: PrepareCoord})
	p := store.page(7)
	p[10] = 9
	setLSN(p, uint64(lsn))
	// Tx 6: prepare followed by decision -> winner.
	l.Append(Record{Tx: 6, Type: RecBegin})
	l.Append(Record{Tx: 6, Type: RecUpdate, Page: 8, Off: 20, Old: []byte{0}, New: []byte{6}})
	l.Append(Record{Tx: 6, Type: RecPrepare, Page: 0, Off: PrepareCoord})
	l.Append(Record{Tx: 6, Type: RecDecision})
	// Tx 7: the coordinator's part, crash before its decision -> abort.
	l.Append(Record{Tx: 7, Type: RecBegin})
	lsn = l.Append(Record{Tx: 7, Type: RecUpdate, Page: 7, Off: 30, Old: []byte{2}, New: []byte{7}})
	setLSN(p, uint64(lsn))
	p[30] = 7
	// Tx 8: the coordinator's part, then its decision -> winner.
	l.Append(Record{Tx: 8, Type: RecBegin})
	l.Append(Record{Tx: 8, Type: RecUpdate, Page: 8, Off: 40, Old: []byte{0}, New: []byte{8}})
	l.Append(Record{Tx: 8, Type: RecDecision})
	got, err := Recover(l, store, 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	winners, losers, indoubt := got.Winners, got.Losers, got.InDoubt
	if len(indoubt) != 0 {
		t.Fatalf("coordinator prepares held in doubt: %v", indoubt)
	}
	if !losers[5] || !winners[6] || !losers[7] || !winners[8] {
		t.Fatalf("winners=%v losers=%v", winners, losers)
	}
	if store.page(7)[10] != 1 || store.page(7)[30] != 2 {
		t.Fatalf("presumed-abort undo missing: %d, %d", store.page(7)[10], store.page(7)[30])
	}
	if store.page(8)[20] != 6 || store.page(8)[40] != 8 {
		t.Fatalf("decision redo missing: %d, %d", store.page(8)[20], store.page(8)[40])
	}
	if _, ok := got.Decisions[8]; !ok {
		t.Fatalf("decisions = %v, want tx 8's", got.Decisions)
	}
}

// The analysis pass also returns the page server's restart state: the last
// catalog image, one past the highest transaction id, and every decision
// record's LSN.
func TestRecoverFindsRestartState(t *testing.T) {
	l := NewMemLog()
	got, err := Recover(l, newMemStore(), 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	if got.Catalog != nil || got.NextTx != 0 || len(got.Decisions) != 0 {
		t.Fatalf("empty log: %+v", got)
	}
	l.Append(Record{Type: RecCatalog, New: []byte("first")})
	l.Append(Record{Tx: 9, Type: RecBegin})
	l.Append(Record{Tx: 9, Type: RecPrepare, Off: PrepareCoord})
	decision := l.Append(Record{Tx: 9, Type: RecDecision})
	l.Append(Record{Type: RecCatalog, New: []byte("second")})
	l.Append(Record{Tx: 12, Type: RecBegin}) // a loser: its RecAbort adds no id
	got, err = Recover(l, newMemStore(), 8192, lsnOf, setLSN)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Catalog) != "second" {
		t.Errorf("catalog %q, want the last image", got.Catalog)
	}
	if got.NextTx != 13 {
		t.Errorf("NextTx %d, want 13", got.NextTx)
	}
	if len(got.Decisions) != 1 || got.Decisions[9] != decision {
		t.Errorf("decisions %v, want tx 9 at %d", got.Decisions, decision)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 1, Off: 0, New: []byte{1}})
	l.buf[len(l.buf)-5] ^= 0xFF // flip the payload byte (the last before the CRC)
	err := l.Iterate(func(Record) bool { return true })
	if err == nil {
		t.Fatal("corrupt record passed checksum")
	}
}

// Property: marshal/unmarshal round-trips arbitrary records.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(tx uint64, pg uint32, off uint16, old, new []byte) bool {
		if len(new) > 4000 {
			new = new[:4000]
		}
		if len(old) >= len(new) { // a before-image is absent or as long as the after-image
			old = old[:len(new)]
		} else {
			old = nil
		}
		r := Record{LSN: 1, Tx: tx, Type: RecUpdate, Page: pg, Off: off, Old: old, New: new}
		buf := appendRecord(nil, &r)
		got, n, err := decode(buf, r.LSN)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Tx == tx && got.Page == pg && got.Off == off &&
			bytes.Equal(got.Old, old) && bytes.Equal(got.New, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any series of committed single-byte updates applied only to
// the log (never the store), recovery reconstructs the final byte values.
func TestRecoverReplaysHistory(t *testing.T) {
	f := func(writes []uint16) bool {
		l := NewMemLog()
		store := newMemStore()
		want := map[uint16]byte{}
		tx := uint64(1)
		l.Append(Record{Tx: tx, Type: RecBegin})
		for i, w := range writes {
			off := 16 + w%8000
			val := byte(i + 1)
			l.Append(Record{Tx: tx, Type: RecUpdate, Page: 2, Off: off,
				Old: []byte{want[off]}, New: []byte{val}})
			want[off] = val
		}
		l.Append(Record{Tx: tx, Type: RecCommit})
		if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
			return false
		}
		p := store.page(2)
		for off, val := range want {
			if p[off] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatePreservesLSNMonotonicity(t *testing.T) {
	l := NewMemLog()
	lsn1 := l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecCommit})
	l.Flush()
	if err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	n := 0
	l.Iterate(func(Record) bool { n++; return true })
	if n != 0 {
		t.Fatalf("%d records after truncate", n)
	}
	lsn2 := l.Append(Record{Tx: 2, Type: RecBegin})
	if lsn2 <= lsn1 {
		t.Fatalf("LSN went backwards after truncate: %d <= %d", lsn2, lsn1)
	}
}

func TestTruncatedFileLogReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecCommit})
	l.Flush()
	l.TruncateBefore(l.End())
	lsnA := l.Append(Record{Tx: 2, Type: RecBegin})
	l.Flush()
	l.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 1 {
		t.Fatalf("reopened with %d records", l2.Records())
	}
	// New LSNs continue past the pre-truncation space.
	lsnB := l2.Append(Record{Tx: 3, Type: RecBegin})
	if lsnB <= lsnA {
		t.Fatalf("LSN went backwards across reopen: %d <= %d", lsnB, lsnA)
	}
}

// TestRedoBeforeCutsOnlyResolvedHistory: RedoBefore brings a store up to a
// cut through records that interleave on two pages — a committed
// transaction's updates redone, an aborted one's left to its CLR, a record
// at or past the cut left alone, each page written once — and refuses,
// writing nothing, a cut below a transaction that has not ended below
// through.
func TestRedoBeforeCutsOnlyResolvedHistory(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Tx: 1, Type: RecBegin})
	l.Append(Record{Tx: 2, Type: RecBegin})
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 5, Off: 100, Old: []byte{0}, New: []byte{1}})
	l.Append(Record{Tx: 2, Type: RecUpdate, Page: 6, Off: 100, Old: []byte{0}, New: []byte{2}})
	l.Append(Record{Tx: 1, Type: RecUpdate, Page: 6, Off: 200, Old: []byte{0}, New: []byte{3}})
	l.Append(Record{Tx: 2, Type: RecCLR, Page: 6, Off: 100, New: []byte{0}})
	l.Append(Record{Tx: 2, Type: RecAbort})
	l.Append(Record{Tx: 1, Type: RecCommit})
	cut := l.Append(Record{Tx: 3, Type: RecBegin})
	l.Append(Record{Tx: 3, Type: RecUpdate, Page: 5, Off: 300, Old: []byte{0}, New: []byte{4}})
	through := l.End()
	writes := 0
	store := &countingStore{memStore: newMemStore(), writes: &writes}
	if err := RedoBefore(l, store, cut, through, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	p5, p6 := store.page(5), store.page(6)
	if p5[100] != 1 || p6[200] != 3 || p6[100] != 0 || p5[300] != 0 || writes != 2 {
		t.Fatalf("page 5 [100]=%d [300]=%d, page 6 [100]=%d [200]=%d, %d writes; want 1 0 0 3 and one write per page",
			p5[100], p5[300], p6[100], p6[200], writes)
	}

	writes = 0
	if err := RedoBefore(l, store, through, through, 8192, lsnOf, setLSN); err == nil || writes != 0 {
		t.Fatalf("a cut past an open transaction's records: %v, %d writes; want a refusal and none", err, writes)
	}
}

// countingStore is a memStore that counts page writes.
type countingStore struct {
	*memStore
	writes *int
}

func (c *countingStore) WritePage(id uint32, buf []byte) error {
	*c.writes++
	return c.memStore.WritePage(id, buf)
}
