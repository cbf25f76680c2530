package core_test

import (
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
)

// TestHotT2BCommitCarriesTheLog: once lock-ahead has learned the write set,
// a hot in-process T2B is Begin, Lock and Commit: three calls and no OpLog
// (the root comes from the session's copy of the root directory, which the
// Begin vouched for), the commit carrying every update record the
// transaction wrote. On a 128-frame pool T2B steals, and a steal still ships
// its batch in an OpLog.
func TestHotT2BCommitCarriesTheLog(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	db, tr := coldSession(t, 0, core.Config{})
	for i := 0; i < 2; i++ { // the first run locks page by page, the second on a doubling window
		if _, err := oo7.T2(db, oo7.VariantB); err != nil {
			t.Fatal(err)
		}
	}
	tr.reset()
	var carried int64
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op == esm.OpCommit {
			pl, err := esm.ReadPayload(req.Data)
			if err != nil {
				t.Fatal(err)
			}
			for _, ok := pl.Record(); ok; _, ok = pl.Record() {
				carried++
			}
		}
		return nil
	}
	records := env.Srv.Log().Records()
	want, err := oo7.T2(db, oo7.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	tr.before = nil
	t.Logf("hot T2B: %d calls %v, %d records carried by the commit", tr.total(), tr.calls, carried)
	for _, op := range []esm.Op{esm.OpBegin, esm.OpLock, esm.OpCommit} {
		if tr.calls[op] != 1 {
			t.Errorf("hot T2B sent %d %v, want 1", tr.calls[op], op)
		}
	}
	if n := tr.total(); n != 3 {
		t.Errorf("hot T2B took %d calls %v, want 3: Begin, Lock, Commit", n, tr.calls)
	}
	if appended := env.Srv.Log().Records() - records - 2; carried == 0 || carried != appended {
		t.Errorf("the commit carried %d records, the server appended %d update records", carried, appended)
	}

	small, str := coldSession(t, 128, core.Config{})
	got, err := oo7.T2(small, oo7.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("T2B on a 128-frame pool made %d updates, %d on a full one", got, want)
	}
	if str.calls[esm.OpLog] == 0 {
		t.Errorf("T2B on a 128-frame pool sent no OpLog (%v): its steals must ship their batches", str.calls)
	}
}
