package shard

import (
	"slices"
	"strings"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

// poisonPart hands its shard a coordinator decision whose part is one
// record running past the end of its page: a part the server must refuse
// before it appends anything.
type poisonPart struct {
	esm.Transport
	page uint32
}

func (p *poisonPart) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op == esm.OpCommitDecision && req.Mode&esm.DecisionCoord != 0 {
		fwd := *req
		fwd.Data = wal.AppendWire([]byte{1, 0, 0, 0}, &wal.WireUpdate{Page: p.page, Off: disk.PageSize - 4, Undo: true, New: make([]byte, 8)})
		return p.Transport.Call(&fwd)
	}
	return p.Transport.Call(req)
}

// logTypes returns the types of the records srv's log holds from LSN from
// on, in log order.
func logTypes(t *testing.T, srv *esm.Server, from wal.LSN) []wal.RecType {
	t.Helper()
	var types []wal.RecType
	if err := srv.Log().Iterate(func(r wal.Record) bool {
		if r.LSN >= from {
			types = append(types, r.Type)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

// TestCoordinatorRefusedPartAbortsEverywhere: when the coordinator refuses
// its part of a cross-shard commit, it appended no decision record, so the
// router ends the transaction everywhere — the participant is not left
// prepared. Nothing is in doubt, no transaction pins either log, both
// pages can be locked at once by a new transaction, and both objects hold
// their old values.
func TestCoordinatorRefusedPartAbortsEverywhere(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)
	poisoned := []esm.Transport{&poisonPart{Transport: trs[0], page: LocalPage(uint32(oid0.Page))}, trs[1]}
	r, err := NewRouter(poisoned, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for i, oid := range []esm.OID{oid0, oid1} {
		if err := c.Lock(lock.KindPage, uint32(oid.Page), lock.Exclusive); err != nil {
			t.Fatal(err)
		}
		update(t, c, oid, []byte{0x33, 0x44}[i])
	}
	err = c.Commit()
	if err == nil {
		t.Fatal("a commit whose coordinator refused its part succeeded")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Errorf("commit error %q does not say the transaction aborted", err)
	}
	if st := r.Stats(); st.PrepareFails != 1 || st.CrossCommits != 0 || st.Unresolved != 0 {
		t.Errorf("stats = %+v, want one refused commit, no cross commit, nothing unresolved", st)
	}
	if types := logTypes(t, srvs[0], 0); slices.Contains(types, wal.RecDecision) {
		t.Errorf("the coordinator logged a decision for a part it refused: %v", types)
	}
	for i, srv := range srvs {
		if n := srv.InDoubtCount(); n != 0 {
			t.Errorf("shard %d holds %d transactions in doubt", i, n)
		}
		// A live transaction's first record pins the checkpoint cut.
		durable := srv.Log().FlushedLSN()
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Log().StartLSN(); got != durable {
			t.Errorf("shard %d: checkpoint cut the log at %d, want its durable end %d (a transaction entry is left)", i, got, durable)
		}
	}

	v := esm.NewClient(mustRouter(t, trs), esm.ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	for i, oid := range []esm.OID{oid0, oid1} {
		if err := v.Lock(lock.KindPage, uint32(oid.Page), lock.Exclusive); err != nil {
			t.Fatalf("shard %d: page %d cannot be locked: %v", i, oid.Page, err)
		}
		data, _, err := v.ReadObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		if want := []byte{0x11, 0x22}[i]; data[0] != want {
			t.Errorf("shard %d value %#x, want the old %#x", i, data[0], want)
		}
	}
	if err := v.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorLogsNoPrepare: in a 2-shard commit the coordinator logs its
// updates and one RecDecision, and no RecPrepare, under one force; the
// participant logs its updates, a RecPrepare, then a RecCommit.
func TestCoordinatorLogsNoPrepare(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)
	from := []wal.LSN{srvs[0].Log().FlushedLSN(), srvs[1].Log().FlushedLSN()}
	forces := srvs[0].Log().Forces()

	c := esm.NewClient(mustRouter(t, trs), esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid0, 0x33)
	update(t, c, oid1, 0x44)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	want := [][]wal.RecType{
		{wal.RecBegin, wal.RecUpdate, wal.RecDecision},
		{wal.RecBegin, wal.RecUpdate, wal.RecPrepare, wal.RecCommit},
	}
	for i, srv := range srvs {
		if got := logTypes(t, srv, from[i]); !slices.Equal(got, want[i]) {
			t.Errorf("shard %d logged %v, want %v", i, got, want[i])
		}
	}
	if got := srvs[0].Log().Forces() - forces; got != 1 {
		t.Errorf("the coordinator forced its log %d times, want 1", got)
	}
}

// mustRouter builds a rotating-affinity Router over trs.
func mustRouter(t *testing.T, trs []esm.Transport) *Router {
	t.Helper()
	r, err := NewRouter(trs, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}
