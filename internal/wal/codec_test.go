package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Every record type round-trips at every varint width boundary of every
// field, with and without a before-image, and decodes only at its own LSN.
func TestRecordRoundTripBoundaries(t *testing.T) {
	txs := []uint64{0, 127, 128, 1 << 63}
	pages := []uint32{0, 127, 128, ^uint32(0)}
	offs := []uint16{0, 127, 128, 8191}
	lens := []int{0, 1, 127, 128, 8192}
	const lsn = LSN(1 << 20)
	prevs := []LSN{NilLSN, lsn - 1, lsn - 128, 1}
	n := 0
	for typ := RecBegin; typ <= RecCatalog; typ++ {
		for _, tx := range txs {
			for _, page := range pages {
				for _, off := range offs {
					for _, size := range lens {
						for _, withOld := range []bool{false, true} {
							r := Record{LSN: lsn, PrevLSN: prevs[n%len(prevs)], Tx: tx, Type: typ, Page: page, Off: off}
							if size > 0 {
								r.New = bytes.Repeat([]byte{byte(n)}, size)
								if withOld {
									r.Old = bytes.Repeat([]byte{^byte(n)}, size)
								}
							}
							n++
							buf := appendRecord(nil, &r)
							got, used, err := decode(buf, lsn)
							if err != nil || used != len(buf) {
								t.Fatalf("%+v: decode used %d of %d bytes, err %v", r, used, len(buf), err)
							}
							if !reflect.DeepEqual(got, r) {
								t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, r)
							}
							for _, at := range []LSN{lsn - 1, lsn + 1} {
								if _, _, err := decode(buf, at); !errors.Is(err, ErrCorrupt) {
									t.Fatalf("%+v written for LSN %d decoded at %d (err %v)", r, lsn, at, err)
								}
							}
							// Trailing bytes are the next record's business.
							if _, used, err := decode(append(buf, 0xAA, 0xBB), lsn); err != nil || used != len(buf) {
								t.Fatalf("trailing bytes disturbed the decode: used %d, err %v", used, err)
							}
						}
					}
				}
			}
		}
	}
}

// Header creep is a test failure, not a benchmark surprise: a one-region
// update, the page run T2B writes about 500 of per operation (twenty regions
// of five-byte images, 13 bytes each and 16 for the record around them), and
// the commit record that ends every transaction, stay within their budgets.
func TestRecordSizePinned(t *testing.T) {
	five := []byte{1, 2, 3, 4, 5}
	run := Record{LSN: 200_000, PrevLSN: 200_000 - 280, Tx: 1000, Type: RecUpdate, Page: 700, Off: 200, Old: five, New: five}
	for i := 1; i < 20; i++ {
		run.More = AppendRegion(run.More, 390, five, five) // a two-byte gap, the worst a page has room for
	}
	for _, c := range []struct {
		name string
		rec  Record
		max  int
	}{
		{"T2B update", Record{LSN: 200_000, PrevLSN: 200_000 - 24, Tx: 1000, Type: RecUpdate, Page: 700, Off: 8000, Old: five, New: five}, 24},
		{"T2B page run", run, 20*13 + 16},
		{"commit", Record{LSN: 200_000, PrevLSN: 200_000 - 24, Tx: 1000, Type: RecCommit}, 12},
		{"begin", Record{LSN: 200_000, Tx: 1000, Type: RecBegin}, 12},
	} {
		if got := len(appendRecord(nil, &c.rec)); got > c.max {
			t.Errorf("%s record is %d bytes, budget %d", c.name, got, c.max)
		}
	}
	// On the wire a record sheds exactly its before-images: a one-region
	// body is len(Old) bytes shorter than its log body, and nothing else
	// moves.
	one := Record{Page: 700, Off: 8000, Old: five, New: five}
	wire := AppendWire(nil, &WireUpdate{Page: 700, Off: 8000, Undo: true, New: five})
	if log := appendBody(nil, &one); len(wire) != len(log)-len(one.Old) || !bytes.Equal(wire, append(log[:len(log)-2*len(five)], five...)) {
		t.Errorf("one-region wire body %x, log body %x: want the log body less its %d-byte before-image", wire, log, len(one.Old))
	}
}

// The decoder's input is outside input: every malformed shape is ErrCorrupt,
// never a panic or a read past the buffer.
func TestDecodeRejectsMalformed(t *testing.T) {
	const lsn = LSN(1000)
	seal := func(b []byte) []byte { // a valid CRC, so only the shape is at fault
		return binary.LittleEndian.AppendUint32(b, recordCRC(lsn, b))
	}
	good := appendRecord(nil, &Record{LSN: lsn, PrevLSN: 900, Tx: 5, Type: RecUpdate, Page: 3, Off: 64, Old: []byte{1, 2}, New: []byte{3, 4}})
	if _, _, err := decode(good, lsn); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-5] ^= 1 // the last image byte, just before the CRC
	for name, buf := range map[string][]byte{
		"empty":                        {},
		"type 0":                       seal([]byte{0, 5, 0}),
		"overlong tx varint":           seal([]byte{byte(RecBegin), 0x85, 0x00, 0}),
		"11-byte tx varint":            seal([]byte{byte(RecBegin), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0}),
		"back reaches LSN 0":           seal([]byte{byte(RecCommit), 5, 0xE8, 0x07}), // back = 1000 = lsn
		"page past u32":                seal([]byte{byte(RecUpdate) | kindBody, 5, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0}),
		"off past u16":                 seal([]byte{byte(RecUpdate) | kindBody, 5, 0, 3, 0x80, 0x80, 0x04, 0}),
		"before-image flag, no length": seal([]byte{byte(RecUpdate) | kindBody, 5, 0, 3, 64, 1}),
		"length past the buffer":       seal([]byte{byte(RecUpdate) | kindBody, 5, 0, 3, 64, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 9, 9}),
		"huge length":                  seal([]byte{byte(RecUpdate) | kindBody, 5, 0, 3, 64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
		"no room for the CRC":          good[:len(good)-1],
		"flipped image byte":           flipped,
	} {
		if _, _, err := decode(buf, lsn); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Every strict prefix of a valid record is a torn tail.
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decode(good[:cut], lsn); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// The update body, in both forms, shares the decoder and its bounds.
	body := appendBody(nil, &Record{Page: 3, Off: 64, Old: []byte{1, 2}, New: []byte{3, 4}})
	if r, n, err := decodeUpdate(body); err != nil || n != len(body) || r.Type != RecUpdate || r.Page != 3 || r.Off != 64 ||
		!bytes.Equal(r.Old, []byte{1, 2}) || !bytes.Equal(r.New, []byte{3, 4}) {
		t.Fatalf("update body round trip: %+v, %d bytes, err %v", r, n, err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, _, err := decodeUpdate(body[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body prefix of %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	wire := AppendWire(nil, &WireUpdate{Page: 3, Off: 64, Undo: true, New: []byte{3, 4}})
	if u, n, err := DecodeWire(wire); err != nil || n != len(wire) || u.Page != 3 || u.Off != 64 || !u.Undo ||
		!bytes.Equal(u.New, []byte{3, 4}) || u.More != nil {
		t.Fatalf("wire body round trip: %+v, %d bytes, err %v", u, n, err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeWire(wire[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wire body prefix of %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// An undo flag on an empty region is lenList's spelling, in both forms.
	if _, _, err := DecodeWire([]byte{3, 64, lenList}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wire body with an undo of no bytes: err = %v, want ErrCorrupt", err)
	}
}

// decodeUpdate decodes a log-form update body, as decode does a record's.
func decodeUpdate(buf []byte) (Record, int, error) {
	page, first, more, n, ok := decodeBody(buf, 0, false)
	if !ok {
		return Record{}, 0, ErrCorrupt
	}
	return Record{Type: RecUpdate, Page: page, Off: uint16(first.Off), Old: first.Old, New: first.New, More: more}, n, nil
}

// The checksum is what the format says it is: CRC32 of the LSN's eight
// little-endian bytes followed by the record's.
func TestRecordCRCIsSeededWithTheLSN(t *testing.T) {
	for _, lsn := range []LSN{1, 255, 256, 1<<32 + 5, ^LSN(0)} {
		b := []byte("record bytes")
		whole := binary.LittleEndian.AppendUint64(nil, uint64(lsn))
		if got, want := recordCRC(lsn, b), crc32.ChecksumIEEE(append(whole, b...)); got != want {
			t.Fatalf("recordCRC(%d) = %08x, want %08x", lsn, got, want)
		}
	}
}

// What the format cannot express is a caller bug, reported where it is made.
func TestAppendPanicsOnInexpressibleRecords(t *testing.T) {
	for name, r := range map[string]Record{
		"type 0":                         {Tx: 1},
		"type past 127":                  {Tx: 1, Type: 128},
		"PrevLSN at or above the LSN":    {Tx: 1, Type: RecCommit, PrevLSN: 1},
		"before-image of another length": {Tx: 1, Type: RecUpdate, Old: []byte{1, 2, 3}, New: []byte{4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Append did not panic", name)
				}
			}()
			NewMemLog().Append(r)
		}()
	}
}

// A file log cut at every byte reopens to the longest valid prefix of its
// records, at the base its header names.
func TestFileLogCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	appendUpdate(l, 1, 1, 1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(l.End()); err != nil { // a non-zero base, held by the header alone
		t.Fatal(err)
	}
	start := l.StartLSN()
	if start == 1 {
		t.Fatal("truncation did not move the base")
	}
	ends := []LSN{} // LSN just past each record
	l.Append(Record{Tx: 7, Type: RecBegin})
	ends = append(ends, l.End())
	l.Append(Record{Tx: 7, Type: RecUpdate, Page: 300, Off: 4000, Old: []byte("before"), New: []byte("after!")})
	ends = append(ends, l.End())
	l.Append(Record{Tx: 7, Type: RecCommit, PrevLSN: ends[0]})
	ends = append(ends, l.End())
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != fileHeaderBytes+int(ends[2]-start) {
		t.Fatalf("file is %d bytes, want header %d + records %d", len(raw), fileHeaderBytes, ends[2]-start)
	}
	cutPath := filepath.Join(dir, "cut")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFileLog(cutPath)
		switch {
		case cut == 0: // zero length: a fresh log
			if err != nil || r.StartLSN() != 1 || r.Records() != 0 {
				t.Fatalf("empty file: err %v", err)
			}
			r.Close()
			continue
		case cut < fileHeaderBytes:
			if !errors.Is(err, ErrNotLog) {
				t.Fatalf("cut %d (inside the file header): err = %v, want ErrNotLog", cut, err)
			}
			continue
		case err != nil:
			t.Fatalf("cut %d: %v", cut, err)
		}
		want, wantEnd := int64(0), start
		for _, e := range ends {
			if int(e-start) <= cut-fileHeaderBytes {
				want, wantEnd = want+1, e
			}
		}
		if r.StartLSN() != start || r.Records() != want || r.End() != wantEnd || r.FlushedLSN() != wantEnd {
			t.Fatalf("cut %d: start %d records %d end %d, want start %d records %d end %d",
				cut, r.StartLSN(), r.Records(), r.End(), start, want, wantEnd)
		}
		if got := int64(len(collect(t, r))); got != want {
			t.Fatalf("cut %d: iterated %d records, want %d", cut, got, want)
		}
		r.Close()
	}
}

// A file in the fixed-header format this one replaced, or any other file, is
// refused by name rather than pruned to nothing and appended to.
func TestOpenFileLogRefusesForeignFiles(t *testing.T) {
	header := appendFileHeader(nil, 42)
	flipped := append([]byte(nil), header...)
	flipped[len(fileMagic)] ^= 1 // the base no longer matches the header's CRC
	for name, content := range map[string][]byte{
		"old format":      make([]byte, 50), // began with a little-endian LSN, not a magic
		"text":            []byte("not a log at all, but longer than a header"),
		"damaged header":  flipped,
		"shorter than it": header[:fileHeaderBytes-1],
	} {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenFileLog(path); !errors.Is(err, ErrNotLog) {
			t.Errorf("%s: err = %v, want ErrNotLog", name, err)
			if err == nil {
				l.Close()
			}
		}
	}
}

// The LSN base survives a log with no records in it: a checkpoint that cut
// the whole file and died before writing anything else must not hand LSN 1
// out again, or redo would skip later updates to pages stamped before the cut.
func TestEmptiedFileLogKeepsItsBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := CreateFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var last LSN
	for i := 0; i < 10; i++ {
		last = appendUpdate(l, uint64(i+1), uint32(i+1), byte(i))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(l.FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	l.Close() // the crash: nothing was appended after the cut
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Records() != 0 {
		t.Fatalf("cut log reopened with %d records", r.Records())
	}
	if first := appendUpdate(r, 99, 99, 9); first <= last {
		t.Fatalf("first LSN after the reopen is %d; LSN %d was handed out before the cut", first, last)
	}
}

// ReadAt follows one transaction's PrevLSN chain and touches nothing else.
func TestReadAtWalksTheChain(t *testing.T) {
	l := NewMemLog()
	begin := l.Append(Record{Tx: 1, Type: RecBegin})
	appendUpdate(l, 2, 9, 9) // another transaction's record in between
	u1 := l.Append(Record{Tx: 1, Type: RecUpdate, PrevLSN: begin, Page: 4, Off: 16, Old: []byte{0}, New: []byte{1}})
	appendUpdate(l, 2, 9, 9)
	u2 := l.Append(Record{Tx: 1, Type: RecUpdate, PrevLSN: u1, Page: 4, Off: 17, Old: []byte{0}, New: []byte{2}})
	var chain []LSN
	for lsn := u2; lsn != NilLSN; {
		r, err := l.ReadAt(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if r.LSN != lsn || r.Tx != 1 {
			t.Fatalf("ReadAt(%d) = %+v", lsn, r)
		}
		chain = append(chain, lsn)
		lsn = r.PrevLSN
	}
	if !reflect.DeepEqual(chain, []LSN{u2, u1, begin}) {
		t.Fatalf("chain = %v, want %v", chain, []LSN{u2, u1, begin})
	}
	// The returned images are the caller's own.
	r, _ := l.ReadAt(u2)
	r.New[0] = 0xEE
	if again, _ := l.ReadAt(u2); again.New[0] != 2 {
		t.Fatal("ReadAt handed out the log's own buffer")
	}
	// Not a record boundary, past the end, and below the retained log.
	if _, err := l.ReadAt(u2 + 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-record read: %v", err)
	}
	if _, err := l.ReadAt(l.End()); err == nil {
		t.Fatal("read at End succeeded")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(u1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAt(begin); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below the cut: %v", err)
	}
	if r, err := l.ReadAt(u2); err != nil || r.PrevLSN != u1 {
		t.Fatalf("read above the cut: %+v, %v", r, err)
	}
}

// FuzzRecordDecode: arbitrary bytes never panic the decoder or make it claim
// more bytes than it was given, and any record the encoder accepts comes back
// unchanged.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint64(0), uint64(0), byte(RecBegin), uint32(0), uint16(0), []byte{}, false)
	f.Add(appendRecord(nil, &Record{LSN: 77, PrevLSN: 50, Tx: 3, Type: RecUpdate, Page: 9, Off: 100, Old: []byte("ab"), New: []byte("cd")}),
		uint64(77), uint64(3), uint64(27), byte(RecUpdate), uint32(9), uint16(100), []byte("cd"), true)
	f.Add([]byte{0x82, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		uint64(1<<40), uint64(1<<63), uint64(1<<39), byte(RecPrepare), ^uint32(0), uint16(8191), bytes.Repeat([]byte{7}, 200), false)
	run, _ := runRecord(20, 64, 60, 5, true)
	run.LSN, run.PrevLSN = 5000, 4700
	f.Add(appendRecord(nil, &run), uint64(5000), uint64(9), uint64(300), byte(RecUpdate), uint32(700), uint16(64), []byte("region"), true)
	f.Add([]byte{0x82, 5, 0, 3, 64, lenList, 3, 1, 2, 9, 10, 3, 3, 4, 0, 0, 0, 0}, // a tail length lying about its regions
		uint64(1000), uint64(5), uint64(0), byte(RecCLR), uint32(3), uint16(64), []byte{}, false)
	wireRun := wireOf(&run) // a wire body: the same run without its before-images
	f.Add(AppendWire(nil, &wireRun), uint64(5000), uint64(9), uint64(300), byte(RecUpdate), uint32(700), uint16(64), []byte("wire"), false)
	f.Fuzz(func(t *testing.T, raw []byte, lsn, tx, back uint64, typ byte, page uint32, off uint16, img []byte, withOld bool) {
		if lsn == 0 {
			lsn = 1
		}
		if r, n, err := decode(raw, LSN(lsn)); err == nil {
			if n <= 0 || n > len(raw) {
				t.Fatalf("decode claimed %d of %d bytes", n, len(raw))
			}
			if again := appendRecord(nil, &r); !bytes.Equal(again, raw[:n]) {
				// Only the body flag is free: a body of zeroes may be spelled out.
				if r.Page != 0 || r.Off != 0 || len(r.Old)+len(r.New)+len(r.More) != 0 {
					t.Fatalf("decoded record re-encodes differently:\n got %x\nwant %x", again, raw[:n])
				}
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v is not ErrCorrupt", err)
		}
		if _, n, err := decodeUpdate(raw); err == nil && (n <= 0 || n > len(raw)) {
			t.Fatalf("decodeUpdate claimed %d of %d bytes", n, len(raw))
		}
		// The wire decoder takes the same arbitrary bytes: whatever it
		// accepts lies inside them, walks to its end, and re-encodes to them.
		if u, n, err := DecodeWire(raw); err == nil {
			if n <= 0 || n > len(raw) {
				t.Fatalf("DecodeWire claimed %d of %d bytes", n, len(raw))
			}
			it := u.Regions()
			for it.Next() {
			}
			if it.Err() != nil {
				t.Fatal("DecodeWire accepted a region list Regions cannot walk")
			}
			if again := AppendWire(nil, &u); !bytes.Equal(again, raw[:n]) {
				t.Fatalf("decoded wire body re-encodes differently:\n got %x\nwant %x", again, raw[:n])
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeWire error %v is not ErrCorrupt", err)
		}

		r := Record{LSN: LSN(lsn), Tx: tx, Type: RecType(typ%127 + 1), Page: page, Off: off}
		if back %= lsn; back != 0 {
			r.PrevLSN = LSN(lsn - back)
		}
		if len(img) > 0 {
			r.New = img
			if withOld {
				r.Old = bytes.Repeat([]byte{0x5A}, len(img))
			}
			// Regions after the first, cut from the same image: gaps of
			// every width, before-images on some.
			for i := 0; i+1 < len(img) && i < 40; i += 2 {
				var old []byte
				if withOld && i%3 != 0 {
					old = r.Old[i : i+2]
				}
				r.More = AppendRegion(r.More, int(off)*i%70000%(1<<16), old, img[i:i+2])
			}
		}
		buf := appendRecord(nil, &r)
		got, n, err := decode(buf, r.LSN)
		if err != nil || n != len(buf) || !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: err %v, %d of %d bytes\n got %+v\nwant %+v", err, n, len(buf), got, r)
		}
	})
}

// BenchmarkAppendUpdate appends a one-region record, five bytes of
// before-image and five of after-image: the fixed cost of an append, which T2B
// now pays per page run rather than per region. The log is emptied every
// 64K records so the buffer reaches a steady size, as it does between
// checkpoints.
func BenchmarkAppendUpdate(b *testing.B) {
	l := NewMemLog()
	rec := Record{Tx: 1000, Type: RecUpdate, Page: 700, Off: 8000, Old: []byte{1, 2, 3, 4, 5}, New: []byte{6, 7, 8, 9, 10}}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			rec.PrevLSN = l.Append(rec)
		}
		rec.PrevLSN = NilLSN
		if err := l.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := l.TruncateBefore(l.End()); err != nil {
			b.Fatal(err)
		}
	}
	fill(1 << 16) // grow the buffer once
	if allocs := testing.AllocsPerRun(1<<15, func() { rec.PrevLSN = l.Append(rec) }); allocs != 0 {
		b.Fatalf("Append allocates %.1f times per record", allocs)
	}
	fill(0)
	b.ReportAllocs()
	b.ResetTimer()
	before := l.Bytes()
	for left := b.N; left > 0; left -= 1 << 16 {
		fill(min(left, 1<<16))
	}
	b.ReportMetric(float64(l.Bytes()-before)/float64(b.N), "log-B/record")
}
