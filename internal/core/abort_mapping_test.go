package core

import (
	"bytes"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
)

// serverImages reads the server's current image of every page below n:
// the pool frame when resident, else the volume.
func serverImages(t *testing.T, srv *esm.Server, n uint32) map[disk.PageID][]byte {
	t.Helper()
	out := map[disk.PageID][]byte{}
	for pid := uint32(2); pid < n; pid++ { // 0 is the volume header, 1 the catalog
		req := esm.AppendPageEntry(nil, pid, 0)
		resp := srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: pid, Data: req})
		a := esm.ReadAnswers(req, resp.Data)
		img := make([]byte, disk.PageSize)
		if resp.Err != "" || !a.Next() || a.Kind != esm.PageFull || a.Apply(img) != nil {
			t.Fatalf("page %d: %s %v", pid, resp.Err, a.Err())
		}
		out[disk.PageID(pid)] = img
	}
	return out
}

// TestAbortAfterMappingUpdateRestoresServerImage drives a transaction that
// changes a page's pointer set through commit phases 1 and 2 — the page's
// diff, a new mapping object of another size replacing the old one, the
// meta-object rewritten to name it — ships the log, which the server redoes
// onto its pages, and then aborts. Every record on a page that existed
// before the transaction must carry a before-image: one without is skipped
// by the undo, which left the meta-object pointing at a mapping slot whose
// creation was undone.
func TestAbortAfterMappingUpdateRestoresServerImage(t *testing.T) {
	e := newEnv(t)
	buildList(t, e.session(64, Config{BulkLoad: true}, true), 4, true)
	s := e.session(64, Config{}, false)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	head, err := s.Root("list")
	if err != nil {
		t.Fatal(err)
	}
	tail := head
	for {
		next, err := s.Space().ReadU64(tail)
		if err != nil {
			t.Fatal(err)
		}
		if next == 0 {
			break
		}
		tail = Ref(next)
	}
	// First, committed: the tail's page gets its only pointer, which puts
	// a one-entry mapping object on this session's mapping-file page.
	if err := s.Space().WriteU64(tail, uint64(head)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	npages := e.srv.Volume().NumPages()
	before := serverImages(t, e.srv, npages)

	// Then, aborted: the pointer is cleared, so the mapping object shrinks
	// and is replaced, on pages that all existed before this transaction.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Space().WriteU64(tail, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.flushRecovery(); err != nil {
		t.Fatal(err)
	}
	if err := s.updateMappings(); err != nil {
		t.Fatal(err)
	}
	if err := s.logFreshPages(); err != nil {
		t.Fatal(err)
	}
	if err := s.c.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if n := e.srv.Volume().NumPages(); n != npages {
		t.Fatalf("the transaction allocated pages (%d, then %d); the check below would miss them", npages, n)
	}
	changed := 0
	for pid, img := range serverImages(t, e.srv, npages) {
		if !bytes.Equal(img[8:], before[pid][8:]) {
			changed++
		}
	}
	if changed < 2 {
		t.Fatalf("shipping the log changed %d server pages; want the data page and the mapping page", changed)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	for pid, img := range serverImages(t, e.srv, npages) {
		if !bytes.Equal(img[8:], before[pid][8:]) {
			t.Errorf("page %d: server image after abort differs from the image before the transaction", pid)
		}
	}
}
