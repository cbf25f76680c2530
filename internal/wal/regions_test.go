package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// regionsOf materialises a record's regions for comparison; only tests do.
func regionsOf(r *Record) []Region {
	var out []Region
	it := r.Regions()
	for it.Next() {
		out = append(out, it.Region)
	}
	if it.Err() != nil {
		return nil
	}
	return out
}

// runRecord builds an update record of n regions of size bytes each on one
// page, gap bytes apart, the first at off; every third region is redo-only
// when mixed is set. want is what Regions must walk.
func runRecord(n, off, gap, size int, mixed bool) (rec Record, want []Region) {
	rec = Record{Tx: 1000, Type: RecUpdate, Page: 700}
	for i := 0; i < n; i++ {
		reg := Region{Off: off + i*(size+gap)}
		if size > 0 {
			reg.New = bytes.Repeat([]byte{byte(i + 1)}, size)
			if !mixed || i%3 != 2 {
				reg.Old = bytes.Repeat([]byte{^byte(i)}, size)
			}
		}
		if i == 0 {
			rec.Off, rec.Old, rec.New = uint16(reg.Off), reg.Old, reg.New
		} else {
			rec.More = AppendRegion(rec.More, gap, reg.Old, reg.New)
		}
		want = append(want, reg)
	}
	return rec, want
}

// A record of many regions round-trips through the log encoding and the wire
// body at the boundaries of its own fields: one region, two, a thousand;
// adjacent regions (gap 0); redo-only regions among undoable ones; a last
// region ending on the page's last byte; a tail long enough for a two-byte
// length.
func TestRegionListRoundTrip(t *testing.T) {
	const lsn = LSN(1 << 20)
	for _, c := range []struct {
		name              string
		n, off, gap, size int
		mixed, wantMore   bool
	}{
		{name: "one region", n: 1, off: 64, size: 5},
		{name: "two regions", n: 2, off: 64, gap: 51, size: 5, wantMore: true},
		{name: "a thousand regions", n: 1000, off: 8, gap: 3, size: 5, wantMore: true},
		{name: "adjacent regions", n: 20, off: 100, gap: 0, size: 7, wantMore: true},
		{name: "mixed redo-only and undoable", n: 9, off: 0, gap: 130, size: 5, mixed: true, wantMore: true},
		{name: "ends at byte 8191", n: 2, off: 8192 - 2*5 - 60, gap: 60, size: 5, wantMore: true},
		{name: "empty regions", n: 3, off: 10, gap: 4, size: 0, wantMore: true},
	} {
		rec, want := runRecord(c.n, c.off, c.gap, c.size, c.mixed)
		rec.LSN, rec.PrevLSN = lsn, lsn-24
		if (rec.More != nil) != c.wantMore {
			t.Fatalf("%s: More = %v", c.name, rec.More)
		}
		buf := appendRecord(nil, &rec)
		got, used, err := decode(buf, lsn)
		if err != nil || used != len(buf) {
			t.Fatalf("%s: decode used %d of %d bytes, err %v", c.name, used, len(buf), err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: round trip changed the record:\n got %+v\nwant %+v", c.name, got, rec)
		}
		if regs := regionsOf(&got); !regionsEqual(regs, want) {
			t.Fatalf("%s: walked %d regions %+v, want %d", c.name, len(regs), regs, len(want))
		}
		if err := got.CheckRange(8192); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if last := want[len(want)-1]; got.CheckRange(last.Off+len(last.New)-1) == nil && len(last.New) > 0 {
			t.Fatalf("%s: CheckRange accepted a page one byte too short", c.name)
		}
		// The log body is the record's bytes, minus the chain fields and CRC.
		body := appendBody(nil, &rec)
		if !bytes.Contains(buf, body) {
			t.Fatalf("%s: the log record does not hold its body verbatim", c.name)
		}
		fromBody, n, err := decodeUpdate(append(body, 0xAA))
		if err != nil || n != len(body) || !regionsEqual(regionsOf(&fromBody), want) || fromBody.Page != rec.Page {
			t.Fatalf("%s: log body: %d of %d bytes, err %v", c.name, n, len(body), err)
		}
		// The wire body is the log body less its before-images. It walks to
		// the same regions, each marked Undo where it had an Old, and filled
		// from a page that holds those before-images it logs as the record.
		u := wireOf(&rec)
		wire := AppendWire(nil, &u)
		olds := 0
		for _, r := range want {
			olds += len(r.Old)
		}
		if len(wire) > len(body)-olds {
			t.Fatalf("%s: a %d-byte wire body for a %d-byte log body with %d bytes of before-images", c.name, len(wire), len(body), olds)
		}
		fromWire, n, err := DecodeWire(append(wire, 0xAA))
		if err != nil || n != len(wire) || fromWire.Page != rec.Page || !wireRegionsMatch(&fromWire, want) {
			t.Fatalf("%s: wire body: %d of %d bytes, err %v", c.name, n, len(wire), err)
		}
		page := make([]byte, 8192)
		applyRegions(page, want, false)
		if filled := appendFilled(nil, lsn, rec.PrevLSN, rec.Tx, &fromWire, page); !bytes.Equal(filled, buf) {
			t.Fatalf("%s: the wire body filled from the page logs as\n%x, want\n%x", c.name, filled, buf)
		}
		// Every strict prefix is a torn tail, in every framing.
		for cut := 0; cut < len(buf); cut += 1 + len(buf)/97 {
			if _, _, err := decode(buf[:cut], lsn); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %d-byte prefix: err = %v, want ErrCorrupt", c.name, cut, err)
			}
		}
		for cut := 0; cut < len(body); cut += 1 + len(body)/97 {
			if _, _, err := decodeUpdate(body[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %d-byte body prefix: err = %v, want ErrCorrupt", c.name, cut, err)
			}
		}
		for cut := 0; cut < len(wire); cut += 1 + len(wire)/97 {
			if _, _, err := DecodeWire(wire[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %d-byte wire prefix: err = %v, want ErrCorrupt", c.name, cut, err)
			}
		}
	}
}

// wireOf is rec's body as a client ships it: its regions, each marked Undo
// where it has a before-image, and no before-image.
func wireOf(rec *Record) WireUpdate {
	u := WireUpdate{Page: rec.Page, Off: rec.Off, Undo: len(rec.Old) != 0, New: rec.New}
	it := rec.Regions()
	it.Next()
	for end := it.Off + len(it.New); it.Next(); end = it.Off + len(it.New) {
		u.More = AppendWireRegion(u.More, it.Off-end, it.Undo, it.New)
	}
	return u
}

// wireRegionsMatch reports whether u walks to want's regions: the same
// offsets and after-images, no before-image, Undo where want has one.
func wireRegionsMatch(u *WireUpdate, want []Region) bool {
	it := u.Regions()
	for i := 0; i < len(want); i++ {
		if !it.Next() || it.Off != want[i].Off || !bytes.Equal(it.New, want[i].New) || it.Old != nil || it.Undo != (len(want[i].Old) != 0) {
			return false
		}
	}
	return !it.Next() && it.Err() == nil
}

func regionsEqual(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Old, b[i].Old) || !bytes.Equal(a[i].New, b[i].New) ||
			(len(a[i].Old) == 0) != (len(b[i].Old) == 0) {
			return false
		}
	}
	return true
}

// A one-region body is byte for byte what it was before records held lists:
// the list costs a record that has none nothing.
func TestOneRegionBodyIsUnchanged(t *testing.T) {
	got := appendBody(nil, &Record{Page: 700, Off: 8000, Old: []byte{1, 2, 3, 4, 5}, New: []byte{6, 7, 8, 9, 10}})
	want := binary.AppendUvarint(nil, 700)
	want = binary.AppendUvarint(want, 8000)
	want = append(want, 5<<1|1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if !bytes.Equal(got, want) {
		t.Fatalf("one-region body is %x, want %x", got, want)
	}
}

// Region lists that lie are refused: ErrCorrupt from the decoder for a shape
// that is not the encoding, a CheckRange error for a region that leaves the
// page — never a panic, never a read past the record. Regions that overlap or
// run backwards are not among them: the encoding stores gaps, and has no way
// to say either.
func TestRegionListRejectsMalformed(t *testing.T) {
	const lsn = LSN(1000)
	seal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, recordCRC(lsn, b))
	}
	head := []byte{byte(RecUpdate) | kindBody, 5, 0, 3, 64} // tx 5, no back, page 3, off 64
	list := func(tail ...byte) []byte {                     // first region {old 1, new 2}, then tail
		return seal(append(append(bytes.Clone(head), lenList, 1<<1|1, 1, 2), tail...))
	}
	region := []byte{10, 1<<1 | 1, 3, 4} // gap 10, {old 3, new 4}
	if r, _, err := decode(list(append([]byte{4}, region...)...), lsn); err != nil || len(regionsOf(&r)) != 2 {
		t.Fatalf("the well-formed list these cases vary does not decode: %v", err)
	}
	for name, buf := range map[string][]byte{
		"list flag, nothing after the first region": list(),
		"list flag, empty tail":                     list(0),
		"list flag twice":                           seal(append(bytes.Clone(head), lenList, lenList, 2, 9)),
		"tail length past the record":               list(append([]byte{5}, region...)...),
		"tail length cuts a region short":           list(append([]byte{3}, region...)...),
		"tail length spelled with spare bytes":      list(append([]byte{0x84, 0x00}, region...)...),
		"tail region with a before-image flag only": list(2, 10, 1),
		"tail region image past the tail":           list(3, 10, 2<<1, 7),
		"tail region gap past u16":                  list(5, 0x80, 0x80, 0x04, 1<<1, 7),
		"trailing byte inside the tail":             list(append(append([]byte{5}, region...), 0)...),
	} {
		if _, _, err := decode(buf, lsn); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if len(buf) > 7 {
			if _, _, err := decodeUpdate(buf[3 : len(buf)-4]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s as a wire body: err = %v, want ErrCorrupt", name, err)
			}
		}
	}
	// Well-formed, but a later region leaves the page.
	past, _ := runRecord(3, 8000, 90, 5, false) // third region covers [8190,8195)
	if err := past.CheckRange(8192); err == nil {
		t.Error("CheckRange accepted a third region past the page")
	}
	// A Record built by hand with a More that is not the encoding: the walk
	// stops, CheckRange says so, nothing indexes past the slice.
	bad := Record{Type: RecUpdate, Page: 1, New: []byte{1}, More: []byte{10, 9 << 1, 1, 2}}
	if err := bad.CheckRange(8192); !errors.Is(err, ErrCorrupt) {
		t.Errorf("CheckRange of a hand-made malformed More: %v", err)
	}
	if n := len(regionsOf(&bad)); n != 0 {
		t.Errorf("walked %d regions of a malformed More without an error", n)
	}
}

// Decoding a twenty-region record and walking its regions allocates nothing,
// and neither does taking its wire body in, filling its before-images from
// the page into the log, and redoing it.
func TestRegionListDecodeAllocatesNothing(t *testing.T) {
	rec, _ := runRecord(20, 64, 60, 5, true)
	rec.LSN = 4096
	buf := appendRecord(nil, &rec)
	u := wireOf(&rec)
	wire := AppendWire(nil, &u)
	logBuf := make([]byte, 0, len(buf))
	page := make([]byte, 8192)
	var regions, bytesSeen int
	allocs := testing.AllocsPerRun(200, func() {
		r, _, err := decode(buf, rec.LSN)
		if err != nil {
			panic(err)
		}
		if r.CheckRange(len(page)) != nil {
			panic("range")
		}
		for it := r.Regions(); it.Next(); {
			regions++
			bytesSeen += len(it.Old) + len(it.New)
		}
		r.Redo(page, setLSN)
		r.Undo(page)
		w, _, err := DecodeWire(wire)
		if err != nil || w.CheckRange(len(page)) != nil {
			panic("wire")
		}
		logBuf = appendFilled(logBuf[:0], rec.LSN, rec.PrevLSN, rec.Tx, &w, page)
		w.Redo(page, rec.LSN, setLSN)
	})
	if allocs != 0 {
		t.Fatalf("decoding and walking a 20-region record allocates %.1f times", allocs)
	}
	if regions%20 != 0 || bytesSeen == 0 {
		t.Fatalf("walked %d regions, %d image bytes", regions, bytesSeen)
	}
}

// applyRegions copies regs' after-images (redo) or before-images onto page.
func applyRegions(page []byte, regs []Region, redo bool) {
	for _, r := range regs {
		if redo {
			copy(page[r.Off:], r.New)
		} else {
			copy(page[r.Off:], r.Old)
		}
	}
}

// Restart recovery treats a multi-region record as the unit of redo: a
// winner's record is applied to a page that predates it in full, a second
// recovery changes nothing, and a page already stamped with the record's LSN
// is left alone in full.
func TestRecoverRedoesEveryRegionOrNone(t *testing.T) {
	rec, regs := runRecord(20, 64, 60, 5, true)
	l := NewMemLog()
	store := newMemStore()
	begin := l.Append(Record{Tx: rec.Tx, Type: RecBegin})
	rec.PrevLSN = begin
	lsn := l.Append(rec)
	l.Append(Record{Tx: rec.Tx, Type: RecCommit, PrevLSN: lsn})
	if l.Records() != 3 {
		t.Fatalf("%d records for begin, one page run, commit", l.Records())
	}
	if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8192)
	applyRegions(want, regs, true)
	setLSN(want, uint64(lsn))
	if !bytes.Equal(store.page(rec.Page), want) {
		t.Fatal("redo did not apply every region of the record")
	}
	if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.page(rec.Page), want) {
		t.Fatal("a second recovery changed the page")
	}
	// A page that says it already holds the record is not touched, whatever
	// its bytes: the page LSN answers for all twenty regions at once.
	other := newMemStore()
	setLSN(other.page(rec.Page), uint64(lsn))
	stamped := bytes.Clone(other.page(rec.Page))
	if _, err := Recover(l, other, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(other.page(rec.Page), stamped) {
		t.Fatal("redo applied regions of a record the page LSN already covers")
	}
}

// Restart recovery undoes a loser's multi-region record under one
// compensation record: every undoable region back to its before-image,
// redo-only regions left as redone, and a second restart undoes nothing more.
func TestRecoverUndoesEveryRegionUnderOneCLR(t *testing.T) {
	rec, regs := runRecord(20, 64, 60, 5, true)
	l := NewMemLog()
	store := newMemStore()
	begin := l.Append(Record{Tx: rec.Tx, Type: RecBegin})
	rec.PrevLSN = begin
	lsn := l.Append(rec)
	// The page was stolen to disk with the update on it; no commit follows.
	page := store.page(rec.Page)
	applyRegions(page, regs, true)
	setLSN(page, uint64(lsn))
	if got, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil || !got.Losers[rec.Tx] {
		t.Fatalf("tx %d not rolled back: %+v, err %v", rec.Tx, got, err)
	}
	want := make([]byte, 8192)
	applyRegions(want, regs, true)
	undoable := 0
	for _, r := range regs {
		if len(r.Old) != 0 {
			copy(want[r.Off:], r.Old)
			undoable++
		}
	}
	var clrs []Record
	for _, r := range collect(t, l) {
		if r.Type == RecCLR {
			clrs = append(clrs, r)
		}
	}
	if len(clrs) != 1 {
		t.Fatalf("%d CLRs for one undone record", len(clrs))
	}
	if got := regionsOf(&clrs[0]); len(got) != undoable {
		t.Fatalf("the CLR carries %d regions, want the record's %d undoable ones", len(got), undoable)
	}
	setLSN(want, uint64(clrs[0].LSN))
	if !bytes.Equal(page, want) {
		t.Fatal("undo did not restore every undoable region (or touched a redo-only one)")
	}
	records := l.Records()
	if _, err := Recover(l, store, 8192, lsnOf, setLSN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) || l.Records() != records {
		t.Fatalf("a second restart changed the page or appended %d records", l.Records()-records)
	}
}

// A record with no before-image at all has no compensation.
func TestCompensation(t *testing.T) {
	redoOnly := Record{Tx: 1, Type: RecUpdate, Page: 4, New: []byte{1, 2}, More: AppendRegion(nil, 5, nil, []byte{3})}
	if _, ok := redoOnly.Compensation(); ok {
		t.Fatal("a redo-only record has a compensation")
	}
	rec, regs := runRecord(7, 100, 55, 5, true)
	clr, ok := rec.Compensation()
	if !ok || clr.Type != RecCLR || clr.Tx != rec.Tx || clr.Page != rec.Page {
		t.Fatalf("compensation %+v, ok %v", clr, ok)
	}
	var want []Region
	for _, r := range regs {
		if len(r.Old) != 0 {
			want = append(want, Region{Off: r.Off, New: r.Old})
		}
	}
	if got := regionsOf(&clr); !regionsEqual(got, want) {
		t.Fatalf("compensation regions %+v, want %+v", got, want)
	}
}

// A log file the previous format's encoder wrote (one region per record, the
// same file magic) opens and decodes to the same records: a one-region record
// did not change, so there was no format to bump. The bytes are that
// encoder's output for the records below.
func TestOpensLogWrittenBeforeRegionLists(t *testing.T) {
	const parentFile = "5153544f524c4f470000000000000000abe16468010700dc928ae4820707ac02a01f0d6265666f7265616674657221" +
		"57d6e613820718ac02ff3f0209b1ccdd5f850700ac02a01f0c6265666f726594ba2bb887071f0201100102030405060708f7871cf1" +
		"0807123f055c608208000140004c775a57"
	raw, err := hex.DecodeString(parentFile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if int(l.Bytes()) != len(raw)-fileHeaderBytes {
		t.Fatalf("kept %d of the file's %d record bytes", l.Bytes(), len(raw)-fileHeaderBytes)
	}
	got := collect(t, l)
	want := []Record{
		{Tx: 7, Type: RecBegin},
		{Tx: 7, Type: RecUpdate, Page: 300, Off: 4000, Old: []byte("before"), New: []byte("after!")},
		{Tx: 7, Type: RecUpdate, Page: 300, Off: 8191, New: []byte{9}},
		{Tx: 7, Type: RecCLR, Page: 300, Off: 4000, New: []byte("before")},
		{Tx: 7, Type: RecPrepare, Page: 2, Off: PrepareCoord, New: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Tx: 7, Type: RecDecision},
		{Tx: 8, Type: RecUpdate, Page: 1, Off: 64},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Tx != w.Tx || g.Type != w.Type || g.Page != w.Page || g.Off != w.Off || g.More != nil ||
			!bytes.Equal(g.Old, w.Old) || !bytes.Equal(g.New, w.New) {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
	}
	if got[2].PrevLSN != got[1].LSN || got[5].PrevLSN != got[4].LSN {
		t.Error("the chain links did not survive")
	}
	// And what this encoder writes for the same records is the same file.
	again, err := CreateFileLog(filepath.Join(t.TempDir(), "wal2"))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for _, r := range got {
		again.Append(r)
	}
	if !bytes.Equal(again.buf, raw[fileHeaderBytes:]) {
		t.Fatal("re-encoding the decoded records does not reproduce the file")
	}
}
