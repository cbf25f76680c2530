package shard

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"quickstore/internal/esm"
)

// opRecorder remembers the ops its shard was sent, and the pages named by
// each record of every commit payload.
type opRecorder struct {
	esm.Transport
	mu      sync.Mutex
	ops     []esm.Op
	records map[esm.Op][]uint32
}

func (r *opRecorder) Call(req *esm.Request) (*esm.Response, error) {
	r.mu.Lock()
	r.ops = append(r.ops, req.Op)
	if req.Op == esm.OpLog || req.Op == esm.OpCommit || req.Op == esm.OpPrepare || req.Op == esm.OpCommitDecision {
		pl, err := esm.ReadPayload(req.Data)
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
			r.records[req.Op] = append(r.records[req.Op], rec.Page)
		}
	}
	r.mu.Unlock()
	return r.Transport.Call(req)
}

func (r *opRecorder) reset() {
	r.mu.Lock()
	r.ops, r.records = nil, map[esm.Op][]uint32{}
	r.mu.Unlock()
}

// TestCommitPayloadSplitsByShard: through a 2-shard router the commit
// carries the last log batch too. A single-shard commit is Begin and Commit
// on its shard, the commit carrying the shard's record. A cross-shard
// commit sends no OpLog either: the coordinator gets Begin, then its
// decision carrying its own records, then the forget; the participant gets
// Begin, a prepare carrying its records, then the verdict. Page ids are
// made local.
func TestCommitPayloadSplitsByShard(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)
	recs := []*opRecorder{{Transport: trs[0]}, {Transport: trs[1]}}
	r, err := NewRouter([]esm.Transport{recs[0], recs[1]}, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	run := func(oids ...esm.OID) {
		t.Helper()
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		for i, oid := range oids {
			update(t, c, oid, 0x50+byte(i))
		}
		recs[0].reset()
		recs[1].reset()
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	run(oid1)
	if want := []esm.Op{esm.OpBegin, esm.OpCommit}; !slices.Equal(recs[1].ops, want) {
		t.Fatalf("single-shard commit sent shard 1 %v, want %v", recs[1].ops, want)
	}
	if len(recs[0].ops) != 0 {
		t.Fatalf("single-shard commit on shard 1 sent shard 0 %v", recs[0].ops)
	}
	if got := recs[1].records[esm.OpCommit]; len(got) != 1 || got[0] != LocalPage(uint32(oid1.Page)) {
		t.Fatalf("the commit carried records for pages %v, want [%d]", got, LocalPage(uint32(oid1.Page)))
	}

	run(oid0, oid1)
	for shard, want := range [][]esm.Op{
		{esm.OpBegin, esm.OpCommitDecision, esm.OpResolveTx},
		{esm.OpBegin, esm.OpPrepare, esm.OpCommitDecision},
	} {
		if got := recs[shard].ops; !slices.Equal(got, want) {
			t.Fatalf("cross-shard commit sent shard %d %v, want %v", shard, got, want)
		}
	}
	for shard, carrier := range []esm.Op{esm.OpCommitDecision, esm.OpPrepare} {
		want := map[esm.Op][]uint32{carrier: {LocalPage(uint32([]esm.OID{oid0, oid1}[shard].Page))}}
		if got := recs[shard].records; !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("shard %d's records by op: %v, want %v", shard, got, want)
		}
	}
	for shard, want := range []byte{0x50, 0x51} {
		if got := readVal(t, trs, []esm.OID{oid0, oid1}[shard]); got != want {
			t.Fatalf("shard %d value %#x, want %#x", shard, got, want)
		}
	}
}
