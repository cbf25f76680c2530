package oo7

import (
	"bytes"
	"path/filepath"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/page"
	"quickstore/internal/wal"
)

// The log-coverage oracle. A QuickStore session no longer ships a dirty
// frame whose every change it declared logged (buffer.Pool.MarkDirtyLogged):
// the server rebuilds the page from the log records. A site that declares
// a change logged and then fails to log one byte of it loses that byte
// silently, so after every commit this test compares every clean frame in
// the client pool with the server's image of the page, and after a crash
// with the image restart recovery rebuilds from the log alone.

// wireTap sits between the session and the server (the esm.Transport seam)
// and records which pages travelled how.
type wireTap struct {
	esm.Transport
	logged      map[disk.PageID]bool // named by an update record in a batch
	whole       map[disk.PageID]bool // shipped as an image: steal or commit payload
	commitBytes int                  // commit page-image bytes since the last reset
}

func (w *wireTap) Call(req *esm.Request) (*esm.Response, error) {
	if req.Op == esm.OpLog || req.Op == esm.OpCommit {
		pl, err := esm.ReadPayload(req.Data)
		if err != nil {
			return nil, err
		}
		for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
			w.logged[disk.PageID(rec.Page)] = true
		}
		for pid, _, image, ok := pl.Page(); ok; pid, _, image, ok = pl.Page() {
			w.whole[disk.PageID(pid)] = true
			if req.Op == esm.OpCommit {
				w.commitBytes += len(image.Bytes())
			}
		}
	}
	return w.Transport.Call(req)
}

func (w *wireTap) reset() {
	w.logged, w.whole, w.commitBytes = map[disk.PageID]bool{}, map[disk.PageID]bool{}, 0
}

// coverageEnv is one file-backed server over a generated, checkpointed Tiny
// database, and one runtime session behind a wireTap.
type coverageEnv struct {
	t    *testing.T
	path string
	vol  *disk.FileVolume
	log  *wal.Log
	srv  *esm.Server
	tap  *wireTap
	c    *esm.Client
	db   DB
}

func newCoverageEnv(t *testing.T, cfg core.Config, clientFrames int) *coverageEnv {
	t.Helper()
	e := &coverageEnv{t: t, path: filepath.Join(t.TempDir(), "db.vol")}
	var err error
	if e.vol, err = disk.CreateFileVolume(e.path); err != nil {
		t.Fatal(err)
	}
	if e.log, err = wal.CreateFileLog(e.path + ".log"); err != nil {
		t.Fatal(err)
	}
	if e.srv, err = esm.NewServer(e.vol, e.log, esm.ServerConfig{BufferPages: 1024, MVCC: true}); err != nil {
		t.Fatal(err)
	}
	gen, err := core.New(esm.NewClient(esm.NewInProcTransport(e.srv), esm.ClientConfig{BufferPages: 512}), core.Config{BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Generate(NewQS(gen, false), Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := e.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.tap = &wireTap{Transport: esm.NewInProcTransport(e.srv)}
	e.tap.reset()
	e.c = esm.NewClient(e.tap, esm.ClientConfig{BufferPages: clientFrames})
	s, err := core.Open(e.c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.db = NewQS(s, false)
	t.Cleanup(func() {
		e.log.Close()
		e.vol.Close()
	})
	return e
}

// run executes one committed operation and then the oracle.
func (e *coverageEnv) run(name string, op func(DB) (int, error)) {
	e.t.Helper()
	n, err := op(e.db)
	if err != nil {
		e.t.Fatalf("%s: %v", name, err)
	}
	if n == 0 {
		e.t.Fatalf("%s did nothing; the check after it would be vacuous", name)
	}
	e.compare(name, nil)
}

// serverImage returns the server's current image of pid: the pool frame
// when resident, else the volume (OpReadPages reads through the pool and
// touches no lock).
func (e *coverageEnv) serverImage(pid disk.PageID) []byte {
	e.t.Helper()
	req := esm.AppendPageEntry(nil, uint32(pid), 0)
	resp := e.srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid), Data: req})
	a := esm.ReadAnswers(req, resp.Data)
	img := make([]byte, disk.PageSize)
	if resp.Err != "" || !a.Next() || a.Kind != esm.PageFull || a.Apply(img) != nil {
		e.t.Fatalf("server image of page %d: %s %v", pid, resp.Err, a.Err())
	}
	return img
}

// compare checks every clean resident client frame, except the pages skip
// selects, against the server's image over bytes [8:] (the first eight are
// the page LSN, which each side stamps for itself).
func (e *coverageEnv) compare(where string, skip func(disk.PageID) bool) {
	e.t.Helper()
	pool := e.c.Pool()
	compared := 0
	for i := 0; i < pool.Len(); i++ {
		f := pool.Frame(i)
		if f.Page == disk.InvalidPage || f.Dirty || (skip != nil && skip(f.Page)) {
			continue
		}
		srv := e.serverImage(f.Page)
		if !bytes.Equal(f.Data[8:], srv[8:]) {
			at := 8
			for f.Data[at] == srv[at] {
				at++
			}
			e.t.Errorf("%s: page %d (type %d, logged=%v whole=%v): client and server images differ from byte %d",
				where, f.Page, f.Data[8], e.tap.logged[f.Page], e.tap.whole[f.Page], at)
		}
		compared++
	}
	if compared == 0 {
		e.t.Fatalf("%s: no clean resident frame to compare", where)
	}
}

// crash loses everything a crash loses — the unforced log tail, the server
// pool, the volume header — restarts the server from the files, and checks
// the client's frames against what recovery rebuilt. Pages that travelled
// as whole images since the last checkpoint are excluded: their durability
// was never the log's (DESIGN.md §7), so only the pool held them.
func (e *coverageEnv) crash(where string) {
	e.t.Helper()
	e.log.DiscardUnflushed()
	e.log.Close()
	e.vol.Abandon()
	var err error
	if e.vol, err = disk.OpenFileVolume(e.path); err != nil {
		e.t.Fatal(err)
	}
	if e.log, err = wal.OpenFileLog(e.path + ".log"); err != nil {
		e.t.Fatal(err)
	}
	if e.srv, err = esm.OpenServer(e.vol, e.log, esm.ServerConfig{BufferPages: 1024, MVCC: true}); err != nil {
		e.t.Fatalf("%s: restart recovery: %v", where, err)
	}
	covered := 0
	for pid := range e.tap.logged {
		if _, resident := e.c.Pool().Lookup(pid); resident && !e.tap.whole[pid] {
			covered++
		}
	}
	if covered == 0 {
		e.t.Fatalf("%s: no log-covered page is resident; the check would be vacuous", where)
	}
	e.compare(where+" after crash and recovery", func(pid disk.PageID) bool { return e.tap.whole[pid] })
}

// wantCovered fails unless every page the operations since the last reset
// dirtied reached the server as log records only.
func (e *coverageEnv) wantCovered(where string) {
	e.t.Helper()
	if len(e.tap.logged) == 0 {
		e.t.Errorf("%s: nothing was logged", where)
	}
	if e.tap.commitBytes != 0 || len(e.tap.whole) != 0 {
		e.t.Errorf("%s: %d pages travelled whole (%d commit payload bytes); every dirty frame here is log-covered",
			where, len(e.tap.whole), e.tap.commitBytes)
	}
}

func t2(kind UpdateKind) func(DB) (int, error) {
	return func(db DB) (int, error) { return T2(db, kind) }
}

// TestLogCoverageT2 runs the three T2 variants with a pool that holds the
// database and with one that steals covered frames mid-transaction: no page
// may cross the wire whole, and both oracles must hold.
func TestLogCoverageT2(t *testing.T) {
	for _, frames := range []int{512, 12} {
		e := newCoverageEnv(t, core.Config{}, frames)
		for _, kind := range []UpdateKind{VariantA, VariantB, VariantC} {
			e.run("T2"+kind.String(), t2(kind))
		}
		e.wantCovered("T2 A/B/C")
		e.crash("T2 A/B/C")
	}
}

// TestLogCoverageT3A updates the indexed build date: the data pages are
// log-covered, the B-tree pages are not and must ship whole.
func TestLogCoverageT3A(t *testing.T) {
	e := newCoverageEnv(t, core.Config{}, 512)
	e.run("T3A", func(db DB) (int, error) { return T3(db, VariantA) })
	btreeWhole, slottedLoggedOnly := 0, 0
	for pid := range e.tap.whole {
		if e.serverImage(pid)[8] == page.TypeBTree {
			btreeWhole++
		}
	}
	for pid := range e.tap.logged {
		if !e.tap.whole[pid] && e.serverImage(pid)[8] == page.TypeSlotted {
			slottedLoggedOnly++
		}
	}
	if btreeWhole == 0 || slottedLoggedOnly == 0 {
		t.Fatalf("T3A shipped %d B-tree pages whole and %d data pages as log only; want both nonzero", btreeWhole, slottedLoggedOnly)
	}
	e.crash("T3A")
}

// TestLogCoverageStructuralMix inserts and deletes composite parts — page
// creation, slot inserts and deletes, bitmap edits, mapping objects created,
// resized and rewritten in place — then writes into the manual (raw
// large-object pages, never logged).
func TestLogCoverageStructuralMix(t *testing.T) {
	for _, frames := range []int{512, 24} {
		e := newCoverageEnv(t, core.Config{}, frames)
		p := Tiny()
		e.run("insert", func(db DB) (int, error) { return StructuralInsert(db, p, 3, 11) })
		e.run("T2B", t2(VariantB))
		e.run("insert again", func(db DB) (int, error) { return StructuralInsert(db, p, 2, 12) })
		e.run("delete", StructuralDelete)
		e.run("manual write", func(db DB) (int, error) {
			return run(db, func() (int, error) {
				man := db.GetRef(db.Root("module"), TModule, ModManual)
				text := bytes.Repeat([]byte("redo"), 3000) // crosses a page boundary
				db.WriteLarge(man, text, 100)
				return len(text), db.Err()
			})
		})
		e.run("T2A", t2(VariantA))
		e.crash("structural mix")
	}
}

// TestLogCoverageRelocation runs under one-time relocation with every page
// claim relocated: swizzled pointers are committed, so they must reach the
// server through the page's diff.
func TestLogCoverageRelocation(t *testing.T) {
	e := newCoverageEnv(t, core.Config{Relocation: core.RelocOR, RelocateFraction: 1, RelocSeed: 9}, 512)
	e.run("T1 under QS-OR", T1)
	if len(e.tap.logged) == 0 {
		t.Fatal("QS-OR relocation logged nothing")
	}
	e.run("T2B under QS-OR", t2(VariantB))
	e.wantCovered("QS-OR")
	e.crash("QS-OR")
}

// TestSwizzledFramesShipWhole runs under continual relocation, where a
// swizzled page stays clean: its frame then differs from the server's image
// in bytes no record describes, so once updated it must ship whole — the
// pointers it carries must agree with the mapping object the update writes.
func TestSwizzledFramesShipWhole(t *testing.T) {
	e := newCoverageEnv(t, core.Config{Relocation: core.RelocCR, RelocateFraction: 1, RelocSeed: 9}, 512)
	if _, err := T2(e.db, VariantB); err != nil {
		t.Fatal(err)
	}
	if len(e.tap.whole) == 0 {
		t.Fatal("no swizzled page shipped whole")
	}
	// Pages only read keep their session-private swizzled pointers.
	e.compare("T2B under QS-CR", func(pid disk.PageID) bool { return !e.tap.whole[pid] && !e.tap.logged[pid] })
}

// TestUnloggedFrameShipsWhole is the negative: a frame changed under plain
// MarkDirty, with no log record at all, still reaches the server intact.
func TestUnloggedFrameShipsWhole(t *testing.T) {
	e := newCoverageEnv(t, core.Config{}, 512)
	e.run("T1", T1) // fill the pool
	var pid disk.PageID
	pool := e.c.Pool()
	for i := 0; i < pool.Len() && pid == disk.InvalidPage; i++ {
		if f := pool.Frame(i); f.Page != disk.InvalidPage && f.Data[8] == page.TypeSlotted {
			pid = f.Page
		}
	}
	if err := e.c.Begin(); err != nil {
		t.Fatal(err)
	}
	idx, err := e.c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	e.c.PageData(idx)[disk.PageSize-1] ^= 0xFF
	pool.MarkDirty(idx)
	if err := e.c.Commit(); err != nil {
		t.Fatal(err)
	}
	if !e.tap.whole[pid] || e.tap.logged[pid] {
		t.Fatalf("page %d: whole=%v logged=%v, want shipped whole with no record", pid, e.tap.whole[pid], e.tap.logged[pid])
	}
	e.compare("plain MarkDirty", nil)
}
