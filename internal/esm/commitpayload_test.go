package esm

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// payloadValid is the tests' own reading of the commit payload format:
// empty, or a record count, that many update records the checks accept,
// and whole page entries with a raw byte of 0 or 1 and a well-formed image
// (imageValid). It returns the record count too.
func payloadValid(data []byte) (records int, valid bool) {
	if len(data) == 0 {
		return 0, true
	}
	if len(data) < 4 {
		return 0, false
	}
	records, p := int(binary.LittleEndian.Uint32(data)), 4
	for i := 0; i < records; i++ {
		rec, n, err := wal.DecodeWire(data[p:])
		if err != nil || rec.CheckRange(disk.PageSize) != nil {
			return 0, false
		}
		p += n
	}
	for q := p; q < len(data); {
		if len(data)-q < 9 || data[q+4] > 1 {
			return 0, false
		}
		n := int(binary.LittleEndian.Uint32(data[q+5:]))
		q += 9
		if n > len(data)-q || !imageValid(data[q:q+n]) {
			return 0, false
		}
		q += n
	}
	return records, true
}

// imageValid is the tests' own reading of a page image: the raw page, or
// runs (u16 off, u16 n, n bytes) that are non-empty, in order, apart and
// inside the page.
func imageValid(img []byte) bool {
	if len(img) >= disk.PageSize {
		return len(img) == disk.PageSize
	}
	for p, end := 0, 0; p < len(img); {
		if len(img)-p < 4 {
			return false
		}
		off, n := int(binary.LittleEndian.Uint16(img[p:])), int(binary.LittleEndian.Uint16(img[p+2:]))
		if n == 0 || off < end || off+n > disk.PageSize || len(img)-p-4 < n {
			return false
		}
		p, end = p+4+n, off+n
	}
	return true
}

// pageEntry is a page section entry for pid declaring an image of n bytes
// and carrying image, whatever its length.
func pageEntry(pid uint32, n int, image []byte) []byte {
	e := append(binary.LittleEndian.AppendUint32(nil, pid), 0)
	return append(binary.LittleEndian.AppendUint32(e, uint32(n)), image...)
}

// imageRun is one run of a sparse image: n bytes of v at off.
func imageRun(off, n int, v byte) []byte {
	r := binary.LittleEndian.AppendUint16(nil, uint16(off))
	return append(binary.LittleEndian.AppendUint16(r, uint16(n)), bytes.Repeat([]byte{v}, n)...)
}

// sparsePage is a page holding one 128-byte object past its LSN header.
func sparsePage() []byte {
	pg := make([]byte, disk.PageSize)
	copy(pg[100:], bytes.Repeat([]byte{0x6B}, 128))
	return pg
}

// poisonPages are commit payloads of a good record and a good sparse page
// of pid, followed by a page entry that is malformed, by what is wrong
// with it.
func poisonPages(pid uint32) map[string][]byte {
	good := AppendPayloadPage(logBatch(wal.Record{Page: pid, Off: 64, Old: []byte{0, 0}, New: []byte{1, 2}}), pid, false, sparsePage())
	bad := func(n int, image []byte) []byte { return append(bytes.Clone(good), pageEntry(pid, n, image)...) }
	overlap := append(imageRun(16, 8, 1), imageRun(20, 8, 2)...)
	past := imageRun(disk.PageSize-4, 8, 3)
	return map[string][]byte{
		"overlapping image runs":         bad(len(overlap), overlap),
		"an image run past the page":     bad(len(past), past),
		"an image longer than a page":    bad(disk.PageSize+1, make([]byte, disk.PageSize+1)),
		"an image length past the end":   bad(100, imageRun(16, 8, 4)),
		"an image cut inside a run":      bad(10, imageRun(16, 8, 5)[:10]),
		"an entry cut inside its head":   append(bytes.Clone(good), pageEntry(pid, 0, nil)[:7]...),
		"an image of an empty run":       bad(4, imageRun(16, 0, 0)),
		"a raw image one byte too short": bad(disk.PageSize-1, bytes.Repeat([]byte{6}, disk.PageSize-1)),
		"records after the page section": append(bytes.Clone(good), good[4:]...),
	}
}

// recordsOf counts tx's records of type typ in the log.
func recordsOf(t testing.TB, log *wal.Log, tx uint64, typ wal.RecType) (n int, last wal.LSN) {
	t.Helper()
	if err := log.Iterate(func(r wal.Record) bool {
		if r.Tx == tx && r.Type == typ {
			n, last = n+1, r.LSN
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n, last
}

// TestPayloadSplitRoundTrip: a payload split by page parity comes apart into
// one payload per part, each carrying its own records in order and then its
// own pages, with the ids route wrote; parts are listed in first-touch order.
// Each page image is copied through as it came: the one-object page sparse,
// the dense one raw.
func TestPayloadSplitRoundTrip(t *testing.T) {
	img := func(b byte) []byte { // dense (raw) for an odd b, one object (sparse) for an even one
		pg := make([]byte, disk.PageSize)
		if b%2 == 1 {
			return bytes.Repeat([]byte{b}, disk.PageSize)
		}
		copy(pg[100:], bytes.Repeat([]byte{b}, 128))
		return pg
	}
	data := logBatch(
		wal.Record{Page: 3, Off: 10, Old: []byte{0}, New: []byte{1}},
		wal.Record{Page: 4, Off: 20, New: []byte{2}},
		wal.Record{Page: 5, Off: 30, Old: []byte{0}, New: []byte{3}},
	)
	data = AppendPayloadPage(data, 8, false, img(8))
	data = AppendPayloadPage(data, 7, true, img(7))
	parts, order, err := SplitPayload(data, func(pid uint32) int { return int(pid % 2) }, func(pid uint32) uint32 { return pid * 10 })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("parts in order %v, want [1 0]", order)
	}
	for part, want := range map[int]struct {
		recs  []uint32
		pages []uint32
		raw   []bool
	}{1: {[]uint32{30, 50}, []uint32{70}, []bool{true}}, 0: {[]uint32{40}, []uint32{80}, []bool{false}}} {
		pl, err := ReadPayload(parts[part])
		if err != nil {
			t.Fatalf("part %d: %v", part, err)
		}
		var recs, pages []uint32
		var raw []bool
		for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
			recs = append(recs, rec.Page)
		}
		for pid, r, image, ok := pl.Page(); ok; pid, r, image, ok = pl.Page() {
			got := make([]byte, disk.PageSize)
			if image.Apply(got); !bytes.Equal(got, img(byte(pid/10))) {
				t.Fatalf("part %d: page %d carries another page's image", part, pid)
			}
			if sparse := pid/10%2 == 0; sparse != (len(image.Bytes()) < disk.PageSize) {
				t.Fatalf("part %d: page %d split into a %d-byte image, want it sparse: %v", part, pid, len(image.Bytes()), sparse)
			}
			pages, raw = append(pages, pid), append(raw, r)
		}
		if !slices.Equal(recs, want.recs) || !slices.Equal(pages, want.pages) || !slices.Equal(raw, want.raw) {
			t.Fatalf("part %d: records %v pages %v raw %v, want %v %v %v", part, recs, pages, raw, want.recs, want.pages, want.raw)
		}
	}
	if empty, order, err := SplitPayload(nil, func(uint32) int { return 0 }, func(pid uint32) uint32 { return pid }); err != nil || len(empty) != 0 || len(order) != 0 {
		t.Fatalf("an empty payload split into %d parts (%v)", len(empty), err)
	}
}

// TestCommitOfUnknownTxAppliesNothing: a commit or a prepare for a
// transaction the server never began, or one that already finished, is
// refused before anything is applied — no record, no capture, no installed
// page, no force.
func TestCommitOfUnknownTxAppliesNothing(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, MVCC: true})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := srv.Volume().Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	finished := beginTx(t, srv)
	if resp := srv.Handle(&Request{Op: OpCommit, Tx: finished}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	payload := AppendPayloadPage(logBatch(wal.Record{Page: uint32(pid), Off: 64, Old: make([]byte, 3), New: []byte("abc")}),
		uint32(pid), false, bytes.Repeat([]byte{0xEE}, disk.PageSize))
	for _, tx := range []uint64{finished, finished + 1000} {
		for _, req := range []*Request{
			{Op: OpCommit, Tx: tx, Data: payload},
			{Op: OpCommit, Tx: tx},
			{Op: OpPrepare, Tx: tx, N: tx, Data: payload},
			{Op: OpPrepare, Tx: tx, N: tx},
		} {
			records, forces, captures := srv.log.Records(), srv.log.Forces(), srv.mv.Stats().Captures
			resp := srv.Handle(req)
			if resp.Err == "" {
				t.Fatalf("%v of tx %d (%d payload bytes) accepted", req.Op, tx, len(req.Data))
			}
			if got := srv.log.Records(); got != records {
				t.Fatalf("%v of tx %d appended %d records", req.Op, tx, got-records)
			}
			if got := srv.log.Forces(); got != forces {
				t.Fatalf("%v of tx %d forced the log", req.Op, tx)
			}
			if got := srv.mv.Stats().Captures; got != captures {
				t.Fatalf("%v of tx %d filed %d before-images", req.Op, tx, got-captures)
			}
			if img := poolImage(t, srv, pid); !bytes.Equal(img, make([]byte, disk.PageSize)) {
				t.Fatalf("%v of tx %d changed page %d", req.Op, tx, pid)
			}
		}
	}
}

// TestCommitPayloadPoisonAppendsNothing: a bad record or a malformed page
// section anywhere in an OpCommit or OpPrepare payload rejects the whole
// payload: no update, no installed page, no RecCommit or RecPrepare. The
// transaction stays live, so an abort still ends it.
func TestCommitPayloadPoisonAppendsNothing(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	poison := poisonBatches(uint32(pid))
	good := logBatch(wal.Record{Page: uint32(pid), Off: 64, Old: []byte{0, 0}, New: []byte{1, 2}})
	page := bytes.Repeat([]byte{0xAB}, disk.PageSize)
	poison["page section cut short"] = AppendPayloadPage(good, uint32(pid), false, page)[:len(good)+4+1+100]
	bad := AppendPayloadPage(good, uint32(pid), false, page)
	bad[len(good)+4] = 2
	poison["page section raw byte 2"] = bad
	poison["record after a page"] = append(AppendPayloadPage(good, uint32(pid), false, page), good[4:]...)
	maps.Copy(poison, poisonPages(uint32(pid)))
	for name, data := range poison {
		if _, valid := payloadValid(data); valid {
			t.Fatalf("%s: the tests' reading of the format accepts it", name)
		}
		for _, op := range []Op{OpCommit, OpPrepare} {
			tx := beginTx(t, srv)
			records := srv.log.Records()
			resp := srv.Handle(&Request{Op: op, Tx: tx, N: tx, Data: data})
			if resp.Err == "" {
				t.Fatalf("%v %s: accepted", op, name)
			}
			if got := srv.log.Records(); got != records {
				t.Fatalf("%v %s: %d records appended by a rejected payload", op, name, got-records)
			}
			if img := poolImage(t, srv, pid); !bytes.Equal(img, make([]byte, disk.PageSize)) {
				t.Fatalf("%v %s: a rejected payload changed page %d", op, name, pid)
			}
			if resp := srv.Handle(&Request{Op: OpAbort, Tx: tx}); resp.Err != "" {
				t.Fatalf("%v %s: abort after the refusal: %s", op, name, resp.Err)
			}
			for _, typ := range []wal.RecType{wal.RecUpdate, wal.RecCommit, wal.RecPrepare} {
				if n, _ := recordsOf(t, srv.log, tx, typ); n != 0 {
					t.Fatalf("%v %s: %d %v records for the refused tx", op, name, n, typ)
				}
			}
		}
	}
	if _, err := OpenServer(srv.vol, srv.log, ServerConfig{BufferPages: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestBeginningCommitLeavesNothingBehind: an OpCommit with Tx TxBegin
// begins the transaction it ends, and no later request can name that
// transaction. A poison payload is refused before it exists: nothing is
// appended or forced. A commit refused after its payload was applied (a
// fault at PtCommitAfterInstall) is aborted before the answer: no
// transaction-table entry is left, the page is undone and a checkpoint cuts
// the log past its records. One refused after its commit record (a fault
// at PtCohAfterBump or PtCommitBeforeFlush) keeps its outcome, the log's:
// it is retired, not undone, so its records stay RecBegin, RecUpdate and
// RecCommit, no entry is left and a checkpoint cuts past it. A success is
// RecBegin, the records and RecCommit, under one force.
func TestBeginningCommitLeavesNothingBehind(t *testing.T) {
	plane := faultinject.New(1)
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := srv.Volume().Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	live := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.txs)
	}
	// lastTx is the id the newest begin handed out, and its records' types
	// in log order.
	lastTx := func() (uint64, []wal.RecType) {
		srv.mu.Lock()
		tx := srv.cat.NextTx - 1
		srv.mu.Unlock()
		var types []wal.RecType
		if err := srv.log.Iterate(func(r wal.Record) bool {
			if r.Tx == tx {
				types = append(types, r.Type)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return tx, types
	}
	zero := make([]byte, disk.PageSize)

	for name, data := range poisonBatches(uint32(pid)) {
		records, forces := srv.log.Records(), srv.log.Forces()
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin, Data: data}); resp.Err == "" {
			t.Fatalf("%s: accepted", name)
		}
		if got := srv.log.Records(); got != records {
			t.Fatalf("%s: %d records appended by a rejected payload", name, got-records)
		}
		if srv.log.Forces() != forces || live() != 0 || !bytes.Equal(poolImage(t, srv, pid), zero) {
			t.Fatalf("%s: a rejected payload forced the log, left %d transactions or changed page %d", name, live(), pid)
		}
	}

	good := logBatch(wal.Record{Page: uint32(pid), Off: 64, Old: []byte{0, 0}, New: []byte{1, 2}})
	plane.ArmTransient(faultinject.PtCommitAfterInstall, 1)
	if resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin, Data: good}); resp.Err == "" {
		t.Fatal("a commit through a transient fault was accepted")
	}
	if plane.Hits(faultinject.PtCommitAfterInstall) != 1 {
		t.Fatal("setup: the refused commit never reached PtCommitAfterInstall")
	}
	refused, types := lastTx()
	if want := []wal.RecType{wal.RecBegin, wal.RecUpdate, wal.RecCLR, wal.RecAbort}; !slices.Equal(types, want) {
		t.Fatalf("refused tx %d logged %v, want %v", refused, types, want)
	}
	if n := live(); n != 0 {
		t.Fatalf("a refused beginning commit left %d transactions in the table", n)
	}
	if !bytes.Equal(poolImage(t, srv, pid)[8:], zero[8:]) { // past the page LSN
		t.Fatal("a refused beginning commit left its update on the page")
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, types := lastTx(); len(types) != 0 {
		t.Fatalf("a checkpoint kept the refused tx's records %v: something pins the cut", types)
	}

	// Refused after its commit record (before the force, or inside the
	// force's path): the outcome is the log's, so the transaction is
	// retired, never undone under a CLR and an abort record behind its
	// commit record.
	for i, point := range []faultinject.Point{faultinject.PtCohAfterBump, faultinject.PtCommitBeforeFlush} {
		off, val := uint16(80+2*i), []byte{3, byte(4 + i)}
		plane.ArmTransient(point, 1)
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin,
			Data: logBatch(wal.Record{Page: uint32(pid), Off: off, Old: []byte{0, 0}, New: val})}); resp.Err == "" {
			t.Fatalf("%v: a commit through a transient fault was accepted", point)
		}
		if plane.Hits(point) != 1 {
			t.Fatalf("%v: setup: the refused commit never reached the point", point)
		}
		tx, types := lastTx()
		if want := []wal.RecType{wal.RecBegin, wal.RecUpdate, wal.RecCommit}; !slices.Equal(types, want) {
			t.Fatalf("%v: tx %d refused after its commit record logged %v, want %v", point, tx, types, want)
		}
		if n := live(); n != 0 {
			t.Fatalf("%v: a commit refused after its commit record left %d transactions in the table", point, n)
		}
		if img := poolImage(t, srv, pid); !bytes.Equal(img[off:off+2], val) {
			t.Fatalf("%v: page bytes %v after the commit record, want %v", point, img[off:off+2], val)
		}
		// A checkpoint cuts no further than the durable log end it starts
		// from, and the refused commit was never forced.
		if err := srv.log.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, types := lastTx(); len(types) != 0 {
			t.Fatalf("%v: a checkpoint kept tx %d's records %v: something pins the cut", point, tx, types)
		}
	}

	forces := srv.log.Forces()
	resp := srv.Handle(&Request{Op: OpCommit, Tx: TxBegin, Data: good})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	tx, types := lastTx()
	if want := []wal.RecType{wal.RecBegin, wal.RecUpdate, wal.RecCommit}; tx == refused || !slices.Equal(types, want) {
		t.Fatalf("tx %d logged %v, want a new tx logging %v", tx, types, want)
	}
	if _, commit := recordsOf(t, srv.log, tx, wal.RecCommit); resp.N != uint64(commit) {
		t.Fatalf("the commit answered LSN %d, its commit record is at %d", resp.N, commit)
	}
	if n := srv.log.Forces() - forces; n != 1 {
		t.Fatalf("a beginning commit forced the log %d times, want 1", n)
	}
	if live() != 0 || !bytes.Equal(poolImage(t, srv, pid)[64:66], []byte{1, 2}) {
		t.Fatalf("after the commit: %d transactions live, page bytes %v", live(), poolImage(t, srv, pid)[64:66])
	}
}

// TestCommitStampsInstalledPagesOverTheirRecords: one commit carries a
// record and an Unlogged whole image of the same page. The server stamps
// the image at install time, after it redid the record, so the page LSN
// never sits below it; a raw page keeps its first bytes. A crash at
// PtCommitAfterInstall, once the installed page reached the volume, then
// undoes the record at restart.
func TestCommitStampsInstalledPagesOverTheirRecords(t *testing.T) {
	plane := faultinject.New(40)
	vol := disk.NewMemVolume()
	logf := wal.NewMemLog()
	srv, oid := seedObject(t, disk.WithHook(vol, plane), logf, ServerConfig{BufferPages: 64, Fault: plane})
	var off int
	write := func(srv *Server, value string) (*Client, uint64) {
		c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		obj, idx, err := c.ReadObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		old := string(obj[:8])
		copy(obj, value)
		c.Pool().MarkDirty(idx) // Unlogged: the frame ships whole
		off = pageOffOf(t, c, oid)
		c.LogUpdate(oid.Page, off, []byte(old), []byte(value))
		return c, c.Tx()
	}

	c, tx := write(srv, "version2")
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	_, recLSN := recordsOf(t, logf, tx, wal.RecUpdate)
	if lsn := pageLSNOf(poolImage(t, srv, oid.Page)); recLSN == 0 || wal.LSN(lsn) < recLSN {
		t.Fatalf("installed page stamped %d, below its record's LSN %d", lsn, recLSN)
	}

	raw := bytes.Repeat([]byte{0xC3}, disk.PageSize)
	rtx := beginTx(t, srv)
	rawPid, err := srv.Volume().Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.Handle(&Request{Op: OpCommit, Tx: rtx, Data: AppendPayloadPage(logBatch(), uint32(rawPid), true, raw)}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if !bytes.Equal(poolImage(t, srv, rawPid), raw) {
		t.Fatal("a raw page was stamped")
	}

	c, _ = write(srv, "version3")
	plane.ArmCrash(faultinject.PtCommitAfterInstall, 1)
	if err := c.Commit(); !faultinject.IsCrash(err) {
		t.Fatalf("commit through a crash point returned %v", err)
	}
	plane.Reset()
	if err := srv.FlushPool(); err != nil { // the installed page reaches the volume
		t.Fatal(err)
	}
	img := make([]byte, disk.PageSize)
	if err := vol.ReadPage(oid.Page, img); err != nil {
		t.Fatal(err)
	}
	if string(img[off:off+8]) != "version3" {
		t.Fatalf("setup: the installed page is not on the volume (%q)", img[off:off+8])
	}
	logf.DiscardUnflushed()
	srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSeeded(t, srv2, oid); got != "version2" {
		t.Fatalf("after a crash before the commit record: %q, want %q", got, "version2")
	}
}

// FuzzCommitPayload throws arbitrary commit payloads at OpCommit and
// OpPrepare: no panic; a payload the format refuses (payloadValid) appends
// nothing, changes no page and leaves the transaction abortable; an
// accepted one appended every record and its commit or prepare record; and
// the log left behind restarts.
func FuzzCommitPayload(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(true, logBatch())
	f.Add(false, logBatch(wal.Record{Page: 2, Off: 16, Old: []byte{0, 0}, New: []byte{7, 7}}))
	f.Add(true, logBatch(pageRun(2, 0x40), pageRun(3, 0x60)))
	f.Add(false, AppendPayloadPage(wireBatch(), 3, false, sparsePage()))
	f.Add(false, AppendPayloadPage(logBatch(pageRun(2, 0x40)), 2, false, bytes.Repeat([]byte{9}, disk.PageSize)))
	f.Add(true, AppendPayloadPage(logBatch(), 3, true, bytes.Repeat([]byte{5}, disk.PageSize)))
	f.Add(true, AppendPayloadPage(logBatch(), 2, false, sparsePage()))
	f.Add(false, AppendPayloadPage(logBatch(), 3, false, make([]byte, disk.PageSize)))
	for _, b := range poisonBatches(2) {
		f.Add(false, b)
	}
	for _, b := range poisonPages(2) {
		f.Add(true, b)
	}
	f.Fuzz(func(t *testing.T, prepare bool, data []byte) {
		srv, first := logBatchServer(t, 4)
		tx := beginTx(t, srv)
		op, done := OpCommit, wal.RecCommit
		if prepare {
			op, done = OpPrepare, wal.RecPrepare
		}
		var images [4][]byte
		for i := range images {
			images[i] = poolImage(t, srv, first+disk.PageID(i))
		}
		records := srv.log.Records()
		resp := srv.Handle(&Request{Op: op, Tx: tx, N: tx, Data: data})
		n, valid := payloadValid(data)
		switch {
		case !valid:
			if resp.Err == "" {
				t.Fatal("a malformed payload was accepted")
			}
			if got := srv.log.Records(); got != records {
				t.Fatalf("a rejected payload appended %d records", got-records)
			}
			for i := range images {
				if !bytes.Equal(poolImage(t, srv, first+disk.PageID(i)), images[i]) {
					t.Fatalf("a rejected payload changed page %d", first+disk.PageID(i))
				}
			}
			if resp := srv.Handle(&Request{Op: OpAbort, Tx: tx}); resp.Err != "" {
				t.Fatalf("abort after a refused payload: %s", resp.Err)
			}
		case resp.Err == "":
			if got := srv.log.Records() - records; got != int64(n)+1 {
				t.Fatalf("an accepted payload of %d records appended %d", n, got)
			}
			if k, _ := recordsOf(t, srv.log, tx, done); k != 1 {
				t.Fatalf("%d %v records after an accepted %v", k, done, op)
			}
		}
		var maxPage uint32
		_ = srv.log.Iterate(func(r wal.Record) bool {
			if r.Type == wal.RecUpdate && r.Page > maxPage {
				maxPage = r.Page
			}
			return true
		})
		if maxPage > 4096 {
			return // recovery grows the volume over every page the log names
		}
		if _, err := OpenServer(srv.vol, srv.log, ServerConfig{BufferPages: 16}); err != nil {
			t.Fatalf("restart over the fuzzed log: %v", err)
		}
	})
}
