package core_test

import (
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
)

// TestLogVolumeHotT2B: a hot T2B on OO7 small writes one update record per
// page run, not one per diff region — at most the pages it wrote plus a few
// (mapping objects, a page diffed twice) — and at most 150 KB of log, where
// one record per region wrote 9,802 records and 218 KB. Its OpLog and
// OpCommit requests carry at most 85 KB of data: the records without their
// before-images, which the server writes into the log from its own pages
// (127 KB while the client shipped both images). Every batch's leading
// count, in an OpLog or riding the OpCommit, is the number of update
// records the server appended for it.
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
	var batched, regions, sent int64
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op != esm.OpLog && req.Op != esm.OpCommit {
			return nil
		}
		sent += int64(len(req.Data))
		pl, err := esm.ReadPayload(req.Data)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
			n++
			pages[disk.PageID(rec.Page)] = true
			for it := rec.Regions(); it.Next(); {
				regions++
			}
		}
		want := n
		if req.Op == esm.OpCommit {
			want++ // the commit record
		}
		before := log.Records()
		resp := env.Srv.Handle(req)
		if got := log.Records() - before; got != want {
			t.Errorf("a %v batch counting %d records made the server append %d", req.Op, n, got)
		}
		batched += n
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
	wireKB := float64(sent) / 1024
	t.Logf("hot T2B: %d update records (%d regions) over %d pages, %.1f KB of log, %.1f KB of OpLog and OpCommit data", appended, regions, len(pages), kb, wireKB)
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
	if wireKB > 85 {
		t.Errorf("hot T2B sent %.1f KB in its OpLog and OpCommit requests, want <= 85", wireKB)
	}
}
