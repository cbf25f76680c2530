package esm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/wal"
)

// logBatch builds an OpLog payload from records (Page, Off, Old, New, More).
func logBatch(recs ...wal.Record) []byte {
	bodies := make([][]byte, len(recs))
	for i := range recs {
		bodies[i] = wal.AppendBody(nil, &recs[i])
	}
	return rawBatch(bodies...)
}

// rawBatch frames update bodies, well-formed or not, as an OpLog payload.
func rawBatch(bodies ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(bodies)))
	for _, b := range bodies {
		out = append(out, b...)
	}
	return out
}

// logBatchServer is a small server with npages allocated data pages.
func logBatchServer(t testing.TB, npages int) (*Server, disk.PageID) {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Volume().Allocate(npages)
	if err != nil {
		t.Fatal(err)
	}
	return srv, first
}

func beginTx(t testing.TB, srv *Server) uint64 {
	t.Helper()
	resp := srv.Handle(&Request{Op: OpBegin})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return resp.N
}

func poolImage(t testing.TB, srv *Server, pid disk.PageID) []byte {
	t.Helper()
	buf := make([]byte, disk.PageSize)
	if !srv.pool.Snapshot(pid, buf) {
		if err := srv.vol.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestLogBatchRedoneAtServer: an OpLog batch alone changes the server's
// page — every region's after-image of each record lands at its offset, the
// page LSN follows the last record — and an abort undoes it from the
// before-images.
func TestLogBatchRedoneAtServer(t *testing.T) {
	srv, pid := logBatchServer(t, 2)
	tx := beginTx(t, srv)
	zeros := make([]byte, 5)
	resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: logBatch(
		wal.Record{Type: wal.RecUpdate, Page: uint32(pid), Off: 100, Old: zeros, New: []byte("hello"),
			More: wal.AppendRegion(nil, 95, zeros, []byte("world"))}, // at 200
		wal.Record{Type: wal.RecUpdate, Page: uint32(pid + 1), Off: disk.PageSize - 5, Old: zeros, New: []byte("edge!")},
	)})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	img := poolImage(t, srv, pid)
	if string(img[100:105]) != "hello" || string(img[200:205]) != "world" {
		t.Fatalf("records not redone onto page %d: %q %q", pid, img[100:105], img[200:205])
	}
	if got := poolImage(t, srv, pid+1)[disk.PageSize-5:]; string(got) != "edge!" {
		t.Fatalf("record at the page's end not redone: %q", got)
	}
	if lsn := pageLSNOf(poolImage(t, srv, pid+1)); lsn != resp.N {
		t.Fatalf("page LSN %d, want the last record's LSN %d", lsn, resp.N)
	}
	st, err := serverStats(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesLogApplied != 2 || st.PagesInstalled != 0 {
		t.Fatalf("stats: %d page runs log-applied, %d pages installed; want 2 and 0", st.PagesLogApplied, st.PagesInstalled)
	}
	if resp := srv.Handle(&Request{Op: OpAbort, Tx: tx}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	for _, p := range []disk.PageID{pid, pid + 1} {
		if img := poolImage(t, srv, p); !bytes.Equal(img[8:], make([]byte, disk.PageSize-8)) {
			t.Fatalf("page %d not restored by the abort", p)
		}
	}
}

// TestAbortReadsOnlyItsOwnChain: an abort walks the transaction's PrevLSN
// chain instead of scanning the retained log, so its cost follows its own
// record count however many records of other transactions lie before,
// between and after its own. Reading a record copies its images, so the
// allocation count tells which happened: a scan makes two per unrelated
// record.
func TestAbortReadsOnlyItsOwnChain(t *testing.T) {
	srv, pid := logBatchServer(t, 2)
	const unrelated = 4000
	noise := func(n int) {
		recs := make([]wal.Record, n)
		for i := range recs {
			recs[i] = wal.Record{Page: uint32(pid + 1), Off: uint16(64 + 8*i%4096), Old: []byte{0, 0, 0, 0}, New: []byte{1, 2, 3, 4}}
		}
		tx := beginTx(t, srv)
		if resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: logBatch(recs...)}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: tx}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	noise(unrelated / 2)
	tx := beginTx(t, srv)
	zeros := make([]byte, 5)
	for _, batch := range [][]byte{
		logBatch(wal.Record{Page: uint32(pid), Off: 100, Old: zeros, New: []byte("hello")}),
		logBatch(wal.Record{Page: uint32(pid), Off: 200, Old: zeros, New: []byte("world")},
			wal.Record{Page: uint32(pid), Off: 100, Old: []byte("hello"), New: []byte("HELLO")}),
	} {
		if resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: batch}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		noise(unrelated / 4) // between the victim's own records too
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := srv.Handle(&Request{Op: OpAbort, Tx: tx})
	runtime.ReadMemStats(&after)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if img := poolImage(t, srv, pid); !bytes.Equal(img[8:], make([]byte, disk.PageSize-8)) {
		t.Fatal("page not restored by the abort: overlapping updates must be undone newest first")
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > unrelated/10 {
		t.Fatalf("abort of a 3-record transaction made %d allocations behind %d unrelated records: it is scanning the log", mallocs, unrelated)
	}
	var clrs int
	_ = srv.log.Iterate(func(r wal.Record) bool {
		if r.Tx == tx && r.Type == wal.RecCLR {
			clrs++
		}
		return true
	})
	if clrs != 3 {
		t.Fatalf("%d CLRs for 3 undone updates", clrs)
	}
}

// poisonBatches are batches the server must refuse: appended, any of the
// first three would fail the server's own redo and every later restart; the
// rest are not the encoding (wal.AppendBody) at all. A before-image of
// another length than its after-image, and a record that is not an update,
// were poison once; the encoding can no longer say either.
func poisonBatches(pid uint32) map[string][]byte {
	good := wal.AppendBody(nil, &wal.Record{Page: pid, Off: 64, Old: []byte{0, 0}, New: []byte{1, 2}})
	return map[string][]byte{
		"after-image past the page":  rawBatch(good, wal.AppendBody(nil, &wal.Record{Page: pid, Off: disk.PageSize - 1, New: []byte{1, 2}})),
		"before-image past the page": rawBatch(good, wal.AppendBody(nil, &wal.Record{Page: pid, Off: disk.PageSize - 1, Old: []byte{1, 2}, New: []byte{3, 4}})),
		"a later region past the page": rawBatch(good, wal.AppendBody(nil, &wal.Record{Page: pid, Off: 8000, Old: []byte{0}, New: []byte{1},
			More: wal.AppendRegion(nil, 190, []byte{0, 0}, []byte{1, 2})})), // [8191,8193)
		"region list shorter than it says": rawBatch(good, []byte{byte(pid), 8, 1, 1 << 1, 7, 9, 4, 1 << 1, 7}),
		"region list flag with no list":    rawBatch(good, []byte{byte(pid), 8, 1, 1 << 1, 7}),
		"before-image flag with no image":  rawBatch(good, []byte{byte(pid), 8, 1}),
		"page id spelled with spare bytes": rawBatch(good, []byte{byte(pid) | 0x80, 0x00, 8, 2, 7}),
		"offset past any page":             rawBatch(good, []byte{byte(pid), 0x80, 0x80, 0x04, 2, 7}),
		"truncated record":                 rawBatch(good, good[:len(good)-1]),
		"count past payload":               append([]byte{9, 0, 0, 0}, good...),
	}
}

// TestLogBatchRejectsPoisonRecords: a bad record anywhere in a batch rejects
// the whole batch before anything is appended or applied.
func TestLogBatchRejectsPoisonRecords(t *testing.T) {
	srv, pid := logBatchServer(t, 1)
	tx := beginTx(t, srv)
	for name, batch := range poisonBatches(uint32(pid)) {
		records := srv.log.Records()
		resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: batch})
		if resp.Err == "" {
			t.Errorf("%s: accepted", name)
		}
		if got := srv.log.Records(); got != records {
			t.Errorf("%s: %d records appended by a rejected batch", name, got-records)
		}
		if img := poolImage(t, srv, pid); !bytes.Equal(img, make([]byte, disk.PageSize)) {
			t.Fatalf("%s: a rejected batch changed page %d", name, pid)
		}
	}
	// The log the rejected batches left behind restarts cleanly.
	if _, err := OpenServer(srv.vol, srv.log, ServerConfig{BufferPages: 16}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLogBatch throws arbitrary OpLog payloads at a server: whatever
// happens, no panic; a payload the format refuses (payloadValid) appends
// nothing; and whatever was appended can be undone by an abort and replayed
// by a restart.
func FuzzLogBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(logBatch())
	f.Add(logBatch(wal.Record{Type: wal.RecUpdate, Page: 2, Off: 16, Old: []byte{0, 0}, New: []byte{7, 7}}))
	f.Add(logBatch(wal.Record{Type: wal.RecUpdate, Page: 900, Off: 16, New: []byte{7}})) // past the volume
	f.Add(logBatch(pageRun(2, 0x40), pageRun(3, 0x60), wal.Record{Page: 2, Off: 64, Old: bytes.Repeat([]byte{0x40}, 5), New: []byte("again")}))
	f.Add(logBatch(wal.Record{Page: 1, Off: 8100, New: []byte{1}, More: wal.AppendRegion(wal.AppendRegion(nil, 0, nil, nil), 80, []byte{0}, []byte{2})}))
	for _, b := range poisonBatches(2) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, _ := logBatchServer(t, 4)
		tx := beginTx(t, srv)
		records := srv.log.Records()
		resp := srv.Handle(&Request{Op: OpLog, Tx: tx, Data: data})
		if _, valid := payloadValid(data); !valid {
			if resp.Err == "" {
				t.Fatal("a batch with a refused record was accepted")
			}
			if got := srv.log.Records(); got != records {
				t.Fatalf("a rejected batch appended %d records", got-records)
			}
		}
		var maxPage uint32
		_ = srv.log.Iterate(func(r wal.Record) bool {
			if r.Type == wal.RecUpdate {
				if err := r.CheckRange(disk.PageSize); err != nil {
					t.Fatalf("appended: %v", err)
				}
				if r.Page > maxPage {
					maxPage = r.Page
				}
			}
			return true
		})
		srv.Handle(&Request{Op: OpAbort, Tx: tx})
		if maxPage > 4096 {
			return // recovery grows the volume over every page the log names
		}
		if _, err := OpenServer(srv.vol, srv.log, ServerConfig{BufferPages: 16}); err != nil {
			t.Fatalf("restart over the fuzzed log: %v", err)
		}
	})
}

// BenchmarkCommitLoggedPages measures one commit of 64 dirty frames whose
// every change was declared logged (MarkDirtyLogged plus a LogUpdate each):
// the log batch, the server's redo of it, the commit record and its force.
// As a guard, not a measurement, it asserts that no page image rides in the
// commit request.
func BenchmarkCommitLoggedPages(b *testing.B) {
	const npages = 64
	srv, first := logBatchServer(b, npages)
	tr := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tr, ClientConfig{BufferPages: 2 * npages})
	old := make([]byte, 16)
	cur := make([]byte, 16)
	logBefore := srv.log.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Begin(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < npages; k++ {
			pid := first + disk.PageID(k)
			idx, err := c.FetchPage(pid)
			if err != nil {
				b.Fatal(err)
			}
			at := c.PageData(idx)[512:528]
			copy(old, at)
			binary.LittleEndian.PutUint64(cur, uint64(i)+1)
			copy(at, cur)
			c.Pool().MarkDirtyLogged(idx)
			c.LogUpdate(pid, 512, old, cur)
		}
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if tr.commitData != 0 {
		b.Fatalf("%d page-section bytes in commit requests; covered frames must not ship", tr.commitData)
	}
	if got := binary.LittleEndian.Uint64(poolImage(b, srv, first)[512:]); got != uint64(b.N) {
		b.Fatalf("server page holds %d after %d commits", got, b.N)
	}
	b.ReportMetric(float64(tr.bytes)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(srv.log.Bytes()-logBefore)/float64(b.N), "log-B/op")
}

// commitCost runs commits whose payload carries one update record on each
// of npages distinct pages and returns the allocations and heap bytes one
// Begin+Commit pair costs the server, averaged over the runs after a warm-up
// that grows every reused buffer.
func commitCost(t *testing.T, cfg ServerConfig, npages int) (allocs, bytes float64) {
	t.Helper()
	cfg.BufferPages = 2 * npages
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Volume().Allocate(npages)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wal.Record, npages)
	for i := range recs {
		recs[i] = wal.Record{Type: wal.RecUpdate, Page: uint32(first) + uint32(i), Off: 512,
			Old: []byte{0, 0, 0, 0}, New: []byte{1, 2, 3, 4}}
	}
	payload := logBatch(recs...)
	pair := func() {
		tx := beginTx(t, srv)
		if resp := srv.Handle(&Request{Op: OpCommit, Tx: tx, Data: payload}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for i := 0; i < 20; i++ {
		pair()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestLoggedCommitCopiesNoPage: the server redoes a commit's update records
// onto its pages without copying any page. With the version store off, a
// commit over 8 pages and one over 64 cost the same small number of
// allocations, and the extra pages cost far less than a page of heap each.
// With it on, each page costs the one before-image copy the version store
// keeps for snapshot readers: a page of heap per page.
func TestLoggedCommitCopiesNoPage(t *testing.T) {
	a8, b8 := commitCost(t, ServerConfig{}, 8)
	a64, b64 := commitCost(t, ServerConfig{}, 64)
	t.Logf("MVCC off: 8 pages %.1f allocs %.0f B, 64 pages %.1f allocs %.0f B", a8, b8, a64, b64)
	if a8 > maxLoggedCommitAllocs || a64 > maxLoggedCommitAllocs {
		t.Errorf("logged commits of 8 and 64 pages made %.1f and %.1f allocations, budget %d", a8, a64, maxLoggedCommitAllocs)
	}
	if a64 >= a8+1 {
		t.Errorf("56 more logged pages cost %.1f more allocations, want none", a64-a8)
	}
	if perPage := (b64 - b8) / 56; perPage >= disk.PageSize/8 {
		t.Errorf("each logged page costs %.0f heap bytes, a page copy's share", perPage)
	}

	m8, mb8 := commitCost(t, ServerConfig{MVCC: true}, 8)
	m64, mb64 := commitCost(t, ServerConfig{MVCC: true}, 64)
	t.Logf("MVCC on: 8 pages %.1f allocs %.0f B, 64 pages %.1f allocs %.0f B", m8, mb8, m64, mb64)
	if perPage := (mb64 - mb8) / 56; perPage < disk.PageSize || perPage >= 2*disk.PageSize {
		t.Errorf("with the version store on each logged page costs %.0f heap bytes, want one %d-byte copy", perPage, disk.PageSize)
	}
	if perPage := (m64 - m8) / 56; perPage < 1 {
		t.Errorf("with the version store on each logged page costs %.2f allocations, want its copy", perPage)
	}
}
