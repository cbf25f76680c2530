package esm_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/harness"
	"quickstore/internal/oo7"
	"quickstore/internal/wal"
)

// A client ships update records without their before-images (wal.WireUpdate):
// the server writes each one into its log from its own page, under the
// content latch, before the redo. These tests check that the log holds what
// it would hold had the client shipped both images, and that undo restores
// what the page held.

// fillCheck sits between a session and its server and checks every record
// of every OpLog and OpCommit payload against the log records the server
// appended for it: the same regions and after-images, each undoable region's
// before-image the bytes the server's page held just before the record was
// redone, and no before-image on a redo-only region.
type fillCheck struct {
	esm.Transport
	t       *testing.T
	srv     *esm.Server
	records int // update records checked
	undos   int // before-images checked
}

func (f *fillCheck) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op != esm.OpLog && req.Op != esm.OpCommit {
		return f.Transport.Call(req)
	}
	data := bytes.Clone(req.Data)
	pl, err := esm.ReadPayload(data)
	if err != nil {
		f.t.Fatal(err)
	}
	var sent []wal.WireUpdate
	pages := map[uint32][]byte{} // the server's image of each page, kept current record by record
	for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
		sent = append(sent, rec)
		if pages[rec.Page] == nil {
			pages[rec.Page] = esm.PageImage(f.srv, disk.PageID(rec.Page))
		}
	}
	from := f.srv.Log().End()
	resp, err := f.Transport.Call(req)
	if err != nil || resp.Err != "" || len(sent) == 0 {
		return resp, err
	}
	logged := f.appended(from, wal.LSN(resp.N))
	if len(logged) != len(sent) {
		f.t.Fatalf("a %v payload of %d records logged %d update records", req.Op, len(sent), len(logged))
	}
	for i := range sent {
		f.check(&sent[i], &logged[i], pages[sent[i].Page])
	}
	return resp, nil
}

// appended returns the update records of the chain ending at last that
// stand at or past from, oldest first.
func (f *fillCheck) appended(from, last wal.LSN) []wal.Record {
	var recs []wal.Record
	for lsn := last; lsn >= from; {
		r, err := f.srv.Log().ReadAt(lsn)
		if err != nil {
			f.t.Fatal(err)
		}
		if r.Type == wal.RecUpdate {
			recs = append(recs, r)
		}
		lsn = r.PrevLSN
	}
	slices.Reverse(recs)
	return recs
}

// check compares the logged record r with u, the record as it was sent,
// against page, the server's image before r was redone, which it then
// brings past r.
func (f *fillCheck) check(u *wal.WireUpdate, r *wal.Record, page []byte) {
	f.t.Helper()
	if r.Page != u.Page {
		f.t.Fatalf("logged a record for page %d where page %d's was sent", r.Page, u.Page)
	}
	got, sent := r.Regions(), u.Regions()
	for sent.Next() {
		if !got.Next() || got.Off != sent.Off || !bytes.Equal(got.New, sent.New) || got.Undo != sent.Undo {
			f.t.Fatalf("page %d: the logged region at %d is not the one sent at %d", u.Page, got.Off, sent.Off)
		}
		switch {
		case !sent.Undo && len(got.Old) != 0:
			f.t.Fatalf("page %d: a redo-only region at %d was logged with a before-image", u.Page, got.Off)
		case sent.Undo && !bytes.Equal(got.Old, page[got.Off:got.Off+len(got.New)]):
			f.t.Fatalf("page %d: the before-image logged at %d is not what the server's page held", u.Page, got.Off)
		case sent.Undo:
			f.undos++
		}
	}
	if got.Next() {
		f.t.Fatalf("page %d: the logged record has more regions than were sent", u.Page)
	}
	for it := r.Regions(); it.Next(); {
		copy(page[it.Off:], it.New)
	}
	binary.LittleEndian.PutUint64(page, uint64(r.LSN))
	f.records++
}

var undoFillDB = sync.OnceValues(func() (*harness.Env, error) {
	return harness.Build(harness.SysQS, oo7.Small())
})

// TestFilledBeforeImagesMatchThePage: over a hot T2B on OO7 small, and over
// T2Bs on a 128-frame client pool that steals, every update record the
// server logs carries the regions and after-images the client sent, and as
// its before-images the bytes the server's page held before the redo.
func TestFilledBeforeImagesMatchThePage(t *testing.T) {
	env, err := undoFillDB()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		pool  int
		warm  bool // one T2B before the checked ones
		steal bool
	}{
		{name: "hot", warm: true},
		{name: "stealing 128-frame pool", pool: 128, steal: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := env.Cold(); err != nil {
				t.Fatal(err)
			}
			tap := &fillCheck{Transport: esm.NewInProcTransport(env.Srv), t: t, srv: env.Srv}
			st, err := core.Open(esm.NewClient(tap, esm.ClientConfig{BufferPages: c.pool}), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			db := oo7.NewQS(st, false)
			if c.warm {
				if _, err := oo7.T2(db, oo7.VariantB); err != nil {
					t.Fatal(err)
				}
			}
			tap.records, tap.undos = 0, 0
			counting := &opCounter{Transport: tap.Transport, n: map[esm.Op]int{}}
			tap.Transport = counting
			for i := 0; i < 2; i++ {
				if _, err := oo7.T2(db, oo7.VariantB); err != nil {
					t.Fatal(err)
				}
			}
			logs := counting.n[esm.OpLog]
			t.Logf("two T2Bs: %d update records, %d before-images checked; %d OpLog requests", tap.records, tap.undos, logs)
			if tap.records < 2*400 || tap.undos < 2*9000 {
				t.Fatalf("%d records and %d before-images checked over two T2Bs: the traversal did not run", tap.records, tap.undos)
			}
			if c.steal != (logs > 0) {
				t.Fatalf("%d OpLog requests; want some: %v", logs, c.steal)
			}
		})
	}
}

// opCounter counts requests by op.
type opCounter struct {
	esm.Transport
	n map[esm.Op]int
}

func (o *opCounter) Call(req *esm.Request) (*esm.Response, error) {
	o.n[req.Op]++
	return o.Transport.Call(req)
}

// undoServer is a server over a memory volume and log with two allocated
// pages, the first holding prior: committed bytes that no record of the
// transactions below names as its before-image.
func undoServer(t *testing.T, prior []byte) (*esm.Server, disk.Volume, *wal.Log, disk.PageID) {
	t.Helper()
	vol, logf := disk.NewMemVolume(), wal.NewMemLog()
	srv, err := esm.NewServer(vol, logf, esm.ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := vol.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	setup := wal.AppendWire(binary.LittleEndian.AppendUint32(nil, 1), &wal.WireUpdate{Page: uint32(pid), Off: 8, New: prior[8:]})
	if resp := srv.Handle(&esm.Request{Op: esm.OpCommit, Tx: esm.TxBegin, Data: setup}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return srv, vol, logf, pid
}

// overwrite is a one-record OpLog payload that writes fill over five-byte
// regions of page pid, 40 bytes apart from offset 64, every region but the
// fourth undoable.
func overwrite(pid disk.PageID, fill byte) (payload []byte, want func(prior []byte) []byte) {
	u := wal.WireUpdate{Page: uint32(pid), Off: 64, Undo: true, New: bytes.Repeat([]byte{fill}, 5)}
	for i := 1; i < 10; i++ {
		u.More = wal.AppendWireRegion(u.More, 35, i != 3, bytes.Repeat([]byte{fill + byte(i)}, 5))
	}
	// After an undo, the undoable regions hold prior's bytes again and the
	// redo-only one keeps what the record wrote.
	want = func(prior []byte) []byte {
		w := bytes.Clone(prior)
		at := 64 + 3*40
		copy(w[at:at+5], bytes.Repeat([]byte{fill + 3}, 5))
		return w
	}
	return wal.AppendWire(binary.LittleEndian.AppendUint32(nil, 1), &u), want
}

// TestFilledUndoRestoresThePage: a transaction overwrites bytes its client
// never sent the old value of. The server logs them from its page, so both a
// runtime abort and restart recovery's undo of a loser whose page reached the
// volume put back exactly what the page held, and leave the redo-only region
// as written.
func TestFilledUndoRestoresThePage(t *testing.T) {
	prior := make([]byte, disk.PageSize)
	for i := 8; i < len(prior); i++ {
		prior[i] = byte(i*7 + 1)
	}
	same := func(t *testing.T, what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got[8:], want[8:]) {
			t.Fatalf("%s: the page differs from the bytes it held before the transaction", what)
		}
	}
	t.Run("abort", func(t *testing.T) {
		srv, _, _, pid := undoServer(t, prior)
		tx := srv.Handle(&esm.Request{Op: esm.OpBegin}).N
		payload, want := overwrite(pid, 0xC0)
		if resp := srv.Handle(&esm.Request{Op: esm.OpLog, Tx: tx, Data: payload}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if bytes.Equal(esm.PageImage(srv, pid)[8:], prior[8:]) {
			t.Fatal("setup: the record was not redone onto the server's page")
		}
		if resp := srv.Handle(&esm.Request{Op: esm.OpAbort, Tx: tx}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		same(t, "after the abort", esm.PageImage(srv, pid), want(prior))
	})
	t.Run("restart", func(t *testing.T) {
		srv, vol, logf, pid := undoServer(t, prior)
		tx := srv.Handle(&esm.Request{Op: esm.OpBegin}).N
		payload, want := overwrite(pid, 0xC0)
		if resp := srv.Handle(&esm.Request{Op: esm.OpLog, Tx: tx, Data: payload}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		// A checkpoint forces the log and writes the loser's page to the
		// volume; then the server dies.
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, disk.PageSize)
		if err := vol.ReadPage(pid, raw); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(raw[8:], prior[8:]) {
			t.Fatal("setup: the loser's page did not reach the volume")
		}
		logf.DiscardUnflushed()
		srv2, err := esm.OpenServer(vol, logf, esm.ServerConfig{BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		same(t, "after restart recovery", esm.PageImage(srv2, pid), want(prior))
	})
}

// TestFreshPageLoggedRedoOnly: the whole-image record of a page created in
// the transaction (core's logWholePage) travels with no region marked
// undoable and is logged with no before-image, so a fresh page costs the log
// its image once.
func TestFreshPageLoggedRedoOnly(t *testing.T) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tap := &fillCheck{Transport: esm.NewInProcTransport(srv), t: t, srv: srv}
	st, err := core.New(esm.NewClient(tap, esm.ClientConfig{BufferPages: 64}), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	cl := st.NewCluster()
	for i := 0; i < 3; i++ {
		if _, err := st.Alloc(cl, 64, nil); err != nil {
			t.Fatal(err)
		}
	}
	from := srv.Log().End()
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	whole := 0
	if err := srv.Log().Iterate(func(r wal.Record) bool {
		if r.LSN < from || r.Type != wal.RecUpdate {
			return true
		}
		covered, undos := 0, 0
		for it := r.Regions(); it.Next(); {
			covered += len(it.New)
			if it.Undo {
				undos++
			}
		}
		if covered == disk.PageSize {
			whole++
			if undos != 0 {
				t.Errorf("page %d's whole-image record was logged with %d before-images", r.Page, undos)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if whole == 0 || tap.records == 0 {
		t.Fatalf("the commit logged %d whole-page records (%d records checked): no fresh page was logged", whole, tap.records)
	}
}
