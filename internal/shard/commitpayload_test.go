package shard

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quickstore/internal/esm"
	"quickstore/internal/lock"
)

// opRecorder remembers the ops its shard was sent, the pages named by
// each record of every commit payload, and the Tx of its last OpCommit.
type opRecorder struct {
	esm.Transport
	mu       sync.Mutex
	ops      []esm.Op
	records  map[esm.Op][]uint32
	commitTx uint64
}

func (r *opRecorder) Call(req *esm.Request) (*esm.Response, error) {
	r.mu.Lock()
	r.ops = append(r.ops, req.Op)
	if req.Op == esm.OpCommit {
		r.commitTx = req.Tx
	}
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
	r.ops, r.records, r.commitTx = nil, map[esm.Op][]uint32{}, 0
	r.mu.Unlock()
}

// TestCommitPayloadSplitsByShard: through a 2-shard router the commit
// carries the last log batch too. A single-shard commit on a shard the
// transaction never began on (it wrote there without a lock) is one
// OpCommit that begins it (esm.TxBegin), carrying the shard's record. One
// that X-locked its page first began the shard at the lock and commits
// under that local id, as before esm.TxBegin: its Begin stays. A
// cross-shard commit sends no OpLog either: the coordinator gets Begin,
// then its decision carrying its own records, then the forget; the
// participant gets Begin, a prepare carrying its records, then the
// verdict. Page ids are made local.
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
	if want := []esm.Op{esm.OpCommit}; !slices.Equal(recs[1].ops, want) || recs[1].commitTx != esm.TxBegin {
		t.Fatalf("single-shard commit sent shard 1 %v (commit tx %#x), want %v beginning its own", recs[1].ops, recs[1].commitTx, want)
	}
	if len(recs[0].ops) != 0 {
		t.Fatalf("single-shard commit on shard 1 sent shard 0 %v", recs[0].ops)
	}
	if got := recs[1].records[esm.OpCommit]; len(got) != 1 || got[0] != LocalPage(uint32(oid1.Page)) {
		t.Fatalf("the commit carried records for pages %v, want [%d]", got, LocalPage(uint32(oid1.Page)))
	}
	if got := readVal(t, trs, oid1); got != 0x50 {
		t.Fatalf("single-shard commit left value %#x, want 0x50", got)
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	recs[0].reset()
	recs[1].reset()
	if err := c.Lock(lock.KindPage, uint32(oid1.Page), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid1, 0x58)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// The read refetches the frame the last sharded commit left at token 0.
	if want := []esm.Op{esm.OpBegin, esm.OpLock, esm.OpReadPages, esm.OpCommit}; !slices.Equal(recs[1].ops, want) ||
		recs[1].commitTx == esm.TxBegin || len(recs[0].ops) != 0 {
		t.Fatalf("locked single-shard commit sent shard 1 %v (commit tx %#x) and shard 0 %v, want %v under the lock's local id", recs[1].ops, recs[1].commitTx, recs[0].ops, want)
	}
	if got := readVal(t, trs, oid1); got != 0x58 {
		t.Fatalf("locked single-shard commit left value %#x, want 0x58", got)
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

// beginBarrier holds each OpBegin until every shard's has arrived, and
// records a begin that waited in vain.
type beginBarrier struct {
	esm.Transport
	arrived  *sync.WaitGroup
	waitedIn *atomic.Bool
}

func (b beginBarrier) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op == esm.OpBegin {
		b.arrived.Done()
		all := make(chan struct{})
		go func() { b.arrived.Wait(); close(all) }()
		select {
		case <-all:
		case <-time.After(2 * time.Second):
			b.waitedIn.Store(true)
		}
	}
	return b.Transport.Call(req)
}

// TestCrossShardBeginsGoOutTogether: a cross-shard commit that reaches two
// shards the transaction never began on sends both begins in one
// concurrent fan-out: each shard's begin is held until the other's has
// arrived, and neither waits in vain. The commit then runs as usual.
func TestCrossShardBeginsGoOutTogether(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)
	var arrived sync.WaitGroup
	var waitedIn atomic.Bool
	arrived.Add(2)
	r, err := NewRouter([]esm.Transport{
		beginBarrier{Transport: trs[0], arrived: &arrived, waitedIn: &waitedIn},
		beginBarrier{Transport: trs[1], arrived: &arrived, waitedIn: &waitedIn},
	}, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid0, 0x61)
	update(t, c, oid1, 0x62)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if waitedIn.Load() {
		t.Fatal("a shard's begin waited for the other's: the begins went out one after another")
	}
	if st := r.Stats(); st.CrossCommits != 1 || st.Prepares != 1 {
		t.Fatalf("router stats %+v, want one cross-shard commit with one prepare", st)
	}
	for i, oid := range []esm.OID{oid0, oid1} {
		if got, want := readVal(t, trs, oid), byte(0x61+i); got != want {
			t.Fatalf("shard %d value %#x, want %#x", i, got, want)
		}
	}
}
