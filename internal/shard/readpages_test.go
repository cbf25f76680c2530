package shard

import (
	"bytes"
	"fmt"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/pagedelta"
)

// readRecorder remembers the last OpReadPages request its shard was sent.
type readRecorder struct {
	esm.Transport
	last esm.Request
}

func (r *readRecorder) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op == esm.OpReadPages {
		r.last = *req
	}
	return r.Transport.Call(req)
}

// readVerdict is one entry of a read answer, copied out of the walk: its
// payload, and a full answer's image decoded.
type readVerdict struct {
	stale, answered bool
	kind            uint8
	token           uint64
	data, img       []byte
}

// readThrough sends one OpReadPages request for the (pid, token) pairs
// through h and returns its verdicts in request order.
func readThrough(t *testing.T, h esm.Transport, tx uint64, mode uint8, pairs ...uint64) []readVerdict {
	t.Helper()
	var entries []byte
	for i := 0; i < len(pairs); i += 2 {
		entries = esm.AppendPageEntry(entries, uint32(pairs[i]), pairs[i+1])
	}
	resp, err := h.Call(&esm.Request{Op: esm.OpReadPages, Tx: tx, Page: uint32(pairs[0]), Mode: mode, Data: entries})
	if err != nil || resp.Err != "" {
		t.Fatalf("read: %v %+v", err, resp)
	}
	var out []readVerdict
	a := esm.ReadAnswers(entries, resp.Data)
	for a.Next() {
		v := readVerdict{a.Stale, a.Answered, a.Kind, a.Token, bytes.Clone(a.Data), nil}
		if a.Answered && a.Kind == esm.PageFull {
			v.img = make([]byte, disk.PageSize)
			if err := a.Apply(v.img); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, v)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadPagesRoundTripAcrossShards drives every kind of page read through
// a two-shard router — a demand fetch, a read-ahead batch, revalidation with
// tokens, Begin validation (ReadCheck) — and checks that the answers come
// back in request order with the images each shard serves for its local
// page, that a read forwards the transaction's local id only to a shard the
// transaction has begun on and enlists none, and that a snapshot read is
// refused on more than one shard.
func TestReadPagesRoundTripAcrossShards(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x10)
	oid1, _ := makeObject(t, trs, 1, 2, 0x11)
	p0, p1 := uint64(oid0.Page), uint64(oid1.Page)
	direct := func(shard int, pid uint64) []byte {
		t.Helper()
		return readThrough(t, trs[shard], 0, 0, uint64(LocalPage(uint32(pid))), 0)[0].img
	}
	recs := []*readRecorder{{Transport: trs[0]}, {Transport: trs[1]}}
	r, err := NewRouter([]esm.Transport{recs[0], recs[1]}, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	begin, err := r.Call(&esm.Request{Op: esm.OpBegin})
	if err != nil {
		t.Fatal(err)
	}
	tx := begin.N

	// A demand fetch: one entry, nothing held.
	got := readThrough(t, r, tx, 0, p1, 0)
	if len(got) != 1 || !got[0].stale || !got[0].answered || got[0].kind != esm.PageFull || !bytes.Equal(got[0].img, direct(1, p1)) {
		t.Fatalf("demand fetch through the router: %+v", got)
	}
	if recs[1].last.Tx != 0 || recs[1].last.Page != LocalPage(uint32(p1)) {
		t.Errorf("shard 1 was sent tx %d, page %d; want no transaction, its local page", recs[1].last.Tx, recs[1].last.Page)
	}

	// A read-ahead batch across both shards, in an order neither shard sees.
	got = readThrough(t, r, tx, 0, p1, 0, p0, 0)
	if len(got) != 2 || !bytes.Equal(got[0].img, direct(1, p1)) || !bytes.Equal(got[1].img, direct(0, p0)) {
		t.Fatal("read-ahead batch answers out of request order or wrong images")
	}
	tok0, tok1, img1 := got[1].token, got[0].token, got[0].img
	if tok0 == 0 || tok1 == 0 {
		t.Fatalf("tokens %d, %d: committed pages read without a token", tok0, tok1)
	}

	// Once the transaction has begun on shard 0 (a lock), a read carries its
	// local id there, and still none to shard 1.
	if _, err := r.Call(&esm.Request{Op: esm.OpLock, Tx: tx, Page: uint32(p0), Mode: uint8(lock.KindPage)<<4 | uint8(lock.Exclusive)}); err != nil {
		t.Fatal(err)
	}
	readThrough(t, r, tx, 0, p0, 0, p1, 0)
	if recs[0].last.Tx == 0 || recs[1].last.Tx != 0 {
		t.Errorf("local ids sent: shard 0 %d, shard 1 %d; want shard 0's only", recs[0].last.Tx, recs[1].last.Tx)
	}

	// Revalidation and Begin validation with current tokens ship nothing.
	for _, mode := range []uint8{0, esm.ReadCheck} {
		for i, v := range readThrough(t, r, tx, mode, p0, tok0, p1, tok1) {
			if v.stale || v.answered {
				t.Errorf("mode %d entry %d: a current token answered %+v", mode, i, v)
			}
		}
	}

	// A peer commits over shard 1's page: both kinds of read repair it.
	peer, err := NewRouter(trs, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(peer, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid1, 0x22)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	want := direct(1, p1)
	for _, mode := range []uint8{0, esm.ReadCheck} {
		got := readThrough(t, r, tx, mode, p0, tok0, p1, tok1)
		if got[0].stale || !got[1].stale || !got[1].answered || got[1].token == tok1 {
			t.Fatalf("mode %d after the peer's commit: %+v", mode, got)
		}
		img := append([]byte(nil), img1...)
		if got[1].kind == esm.PageDelta {
			if err := pagedelta.Apply(img, got[1].data); err != nil {
				t.Fatal(err)
			}
		} else {
			img = got[1].img
		}
		if !bytes.Equal(img[8:], want[8:]) {
			t.Errorf("mode %d: the repair does not rebuild the committed image", mode)
		}
	}

	// Snapshots are per-shard: a snapshot read spanning two shards is refused.
	entries := esm.AppendPageEntry(nil, uint32(p0), 0)
	if _, err := r.Call(&esm.Request{Op: esm.OpReadPages, N: 5, Data: entries}); err == nil {
		t.Error("a snapshot read went through a two-shard router")
	}

	// Only the lock enlisted a shard: the commit is one-phase.
	if _, err := r.Call(&esm.Request{Op: esm.OpCommit, Tx: tx}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SingleCommits != 1 || st.CrossCommits != 0 {
		t.Errorf("router stats %+v: a read enlisted a shard", st)
	}
}

// TestShardedCommitFramesRevalidatedUnderLock: under sharding a commit
// leaves the client's cleaned frames without a token, so a lock grant cannot
// vouch for them. Sessions A, B, A each lock a counter exclusively, read it
// and add one: A's second increment must read B's value, not its own cached
// one, and the counter must end at 3.
func TestShardedCommitFramesRevalidatedUnderLock(t *testing.T) {
	srvs, _ := newCluster(t, 2, Config{})
	trs := transports(srvs)
	oid, _ := makeObject(t, trs, 1, 2, 0)
	session := func() *esm.Client {
		r, err := NewRouter(trs, Config{Affinity: -1})
		if err != nil {
			t.Fatal(err)
		}
		return esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	}
	a, b := session(), session()
	for _, c := range []*esm.Client{a, b, a} {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Lock(lock.KindPage, uint32(oid.Page), lock.Exclusive); err != nil {
			t.Fatal(err)
		}
		data, _, _, err := c.ReadObjectAt(oid)
		if err != nil {
			t.Fatal(err)
		}
		update(t, c, oid, data[0]+1)
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := readVal(t, trs, oid); got != 3 {
		t.Fatalf("counter = %d after three increments, want 3", got)
	}
}

// TestRouterSumsCoherenceStats: the router's OpStats answer sums its shards'
// coherence counters, the payload bytes of their full answers among them.
func TestRouterSumsCoherenceStats(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: -1})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x10)
	oid1, _ := makeObject(t, trs, 1, 2, 0x11)
	readThrough(t, r, 0, 0, uint64(oid0.Page), 0, uint64(oid1.Page), 0)
	stats := func(tr esm.Transport) esm.ServerStats {
		st, err := esm.NewClient(tr, esm.ClientConfig{BufferPages: 1}).ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	got, s0, s1 := stats(r), stats(trs[0]), stats(trs[1])
	if s0.CohFulls == 0 || s1.CohFulls == 0 || s0.CohFullBytes == 0 || s1.CohFullBytes == 0 {
		t.Fatalf("setup: shard full answers %d (%d bytes) and %d (%d bytes), want some on each",
			s0.CohFulls, s0.CohFullBytes, s1.CohFulls, s1.CohFullBytes)
	}
	want := []int64{s0.CohFulls + s1.CohFulls, s0.CohFullBytes + s1.CohFullBytes, s0.CohNotModified + s1.CohNotModified,
		s0.CohValidates + s1.CohValidates, s0.CohDeltas + s1.CohDeltas, s0.CohIndexEntries + s1.CohIndexEntries}
	have := []int64{got.CohFulls, got.CohFullBytes, got.CohNotModified, got.CohValidates, got.CohDeltas, got.CohIndexEntries}
	if fmt.Sprint(have) != fmt.Sprint(want) {
		t.Fatalf("router coherence stats %v, the shards' sums %v", have, want)
	}
}
