package core_test

import (
	"encoding/binary"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
	"quickstore/internal/wal"
)

// TestLogVolumeHotT2B: a hot T2B on OO7 small writes one update record per
// page run, not one per diff region — at most the pages it wrote plus a few
// (mapping objects, a page diffed twice) — and at most 150 KB of log, where
// one record per region wrote 9,802 records and 218 KB. Every OpLog batch's
// leading count is the number of records the server appended for it.
func TestLogVolumeHotT2B(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	db, tr := coldSession(t, 0, core.Config{})
	want, err := oo7.T2(db, oo7.VariantB) // warm both pools
	if err != nil {
		t.Fatal(err)
	}
	log := env.Srv.Log()
	pages := map[disk.PageID]bool{}
	var batched, regions int64
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op != esm.OpLog {
			return nil
		}
		n := binary.LittleEndian.Uint32(req.Data)
		data := req.Data[4:]
		for i := n; i > 0; i-- {
			rec, size, err := wal.DecodeUpdate(data)
			if err != nil {
				t.Fatal(err)
			}
			data = data[size:]
			pages[disk.PageID(rec.Page)] = true
			for it := rec.Regions(); it.Next(); {
				regions++
			}
		}
		before := log.Records()
		resp := env.Srv.Handle(req)
		if got := log.Records() - before; got != int64(n) {
			t.Errorf("a batch counting %d records made the server append %d", n, got)
		}
		batched += int64(n)
		return resp
	}
	records, bytes := log.Records(), log.Bytes()
	got, err := oo7.T2(db, oo7.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	tr.before = nil
	if got != want {
		t.Fatalf("T2B made %d updates, %d the first time", got, want)
	}
	appended := log.Records() - records - 2 // the begin and the commit record
	kb := float64(log.Bytes()-bytes) / 1024
	t.Logf("hot T2B: %d update records (%d regions) over %d pages, %.1f KB of log", appended, regions, len(pages), kb)
	if appended != batched {
		t.Errorf("the server appended %d update records, the batches counted %d", appended, batched)
	}
	if max := int64(len(pages) + 16); appended > max {
		t.Errorf("hot T2B appended %d update records for %d pages written, want <= %d: regions are not folding into page runs", appended, len(pages), max)
	}
	if regions < 10*appended {
		t.Errorf("%d regions in %d records: T2B's page diffs carry about 20 each", regions, appended)
	}
	if kb > 150 {
		t.Errorf("hot T2B wrote %.1f KB of log, want <= 150", kb)
	}
}
