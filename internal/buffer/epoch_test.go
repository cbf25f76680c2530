package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quickstore/internal/disk"
)

// loadPage makes pid resident and returns a pinned ref.
func loadPage(t *testing.T, p *LatchPool, pid disk.PageID) PageRef {
	t.Helper()
	ref, _, err := p.Load(pid, func(buf []byte) error { return nil })
	if err != nil {
		t.Fatalf("load %d: %v", pid, err)
	}
	return ref
}

// FlushBefore drains exactly the generation dirtied before the epoch cut,
// leaving post-cut dirt alone.
func TestFlushBeforeSplitsGenerations(t *testing.T) {
	var mu sync.Mutex
	flushed := map[disk.PageID]int{}
	p := NewLatchPool(8)
	p.FlushFn = func(pid disk.PageID, data []byte) error {
		mu.Lock()
		flushed[pid]++
		mu.Unlock()
		return nil
	}

	a := loadPage(t, p, 11)
	a.MarkDirty()
	a.Release()

	e := p.AdvanceEpoch()

	b := loadPage(t, p, 12)
	b.MarkDirty()
	b.Release()

	if n := p.DirtyBefore(e); n != 1 {
		t.Fatalf("DirtyBefore(%d) = %d, want 1 (only the pre-cut page)", e, n)
	}
	if err := p.FlushBefore(e); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fa, fb := flushed[11], flushed[12]
	mu.Unlock()
	if fa != 1 || fb != 0 {
		t.Fatalf("flushed pre-cut %d times, post-cut %d times; want 1, 0", fa, fb)
	}
	if n := p.DirtyBefore(e); n != 0 {
		t.Fatalf("pre-cut generation not drained: %d frames", n)
	}
	// The post-cut page is still dirty and reachable by a full flush.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fb = flushed[12]
	mu.Unlock()
	if fb != 1 {
		t.Fatalf("post-cut page lost: flushed %d times", fb)
	}
}

// A frame already dirty keeps its older stamp across later MarkDirty
// calls: its bytes still include pre-cut changes.
func TestMarkDirtyKeepsOldestStamp(t *testing.T) {
	p := NewLatchPool(8)
	p.FlushFn = func(pid disk.PageID, data []byte) error { return nil }
	a := loadPage(t, p, 5)
	a.MarkDirty()
	e := p.AdvanceEpoch()
	a.MarkDirty() // re-dirty after the cut: must NOT move into the new generation
	a.Release()
	if n := p.DirtyBefore(e); n != 1 {
		t.Fatalf("re-marked frame left the pre-cut generation: DirtyBefore = %d", n)
	}
}

// A failed write-back restores the dirty flag with the pre-cut stamp, so a
// retrying checkpoint sees the frame again.
func TestFlushBeforeFailureRestoresStamp(t *testing.T) {
	fail := true
	p := NewLatchPool(8)
	p.FlushFn = func(pid disk.PageID, data []byte) error {
		if fail {
			return errors.New("transient device error")
		}
		return nil
	}
	a := loadPage(t, p, 7)
	a.MarkDirty()
	a.Release()
	e := p.AdvanceEpoch()
	if err := p.FlushBefore(e); err == nil {
		t.Fatal("expected injected flush error")
	}
	if n := p.DirtyBefore(e); n != 1 {
		t.Fatalf("failed flush lost the pre-cut stamp: DirtyBefore = %d", n)
	}
	fail = false
	if err := p.FlushBefore(e); err != nil {
		t.Fatal(err)
	}
	if n := p.DirtyBefore(e); n != 0 {
		t.Fatalf("retry did not drain: DirtyBefore = %d", n)
	}
}

// heldEviction is a two-frame pool caught mid-eviction: page 1 (the
// victim) is dirty with 0xAA bytes from before epoch e, page 2 is pinned,
// and a load of page 3 is evicting page 1, its write-back held until
// release is closed.
type heldEviction struct {
	p       *LatchPool
	e       uint64
	release chan struct{}
	landed  atomic.Bool  // the held write-back has returned
	loaded  chan error   // page 3's Load
	reads   atomic.Int64 // loader calls: the pool's volume reads
	mu      sync.Mutex
	later   []string // every write after the held one
}

const victim, pinned, incoming = disk.PageID(1), disk.PageID(2), disk.PageID(3)

func holdEviction(t *testing.T) *heldEviction {
	t.Helper()
	h := &heldEviction{p: NewLatchPool(2), release: make(chan struct{}), loaded: make(chan error, 1)}
	fill := func(b byte) func([]byte) error {
		return func(buf []byte) error {
			h.reads.Add(1)
			for i := range buf {
				buf[i] = b
			}
			return nil
		}
	}
	evicting, first := make(chan struct{}), true
	h.p.FlushFn = func(pid disk.PageID, data []byte) error {
		h.mu.Lock()
		if first {
			first = false
			h.mu.Unlock()
			close(evicting)
			<-h.release
			h.landed.Store(true)
			return nil
		}
		h.later = append(h.later, fmt.Sprintf("page %d with 0x%X bytes", pid, data[0]))
		h.mu.Unlock()
		return nil
	}
	a, _, err := h.p.Load(victim, fill(0x11))
	if err != nil {
		t.Fatal(err)
	}
	a.Write(func(data []byte) {
		for i := range data {
			data[i] = 0xAA
		}
	})
	a.MarkDirty()
	a.Release()
	hold, _, err := h.p.Load(pinned, fill(0xBB)) // pinned: the victim is the only candidate
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hold.Release)
	h.e = h.p.AdvanceEpoch()
	go func() {
		ref, _, err := h.p.Load(incoming, fill(0xCC))
		if err == nil {
			ref.Release()
		}
		h.loaded <- err
	}()
	<-evicting
	return h
}

// A checkpoint that meets a frame an eviction is still writing back waits
// for that write-back instead of writing the frame itself, and does not
// return before it lands. The frame is the incoming page's the moment the
// write-back ends, and that page's fill takes no content latch, so a second
// write of the victim from the frame could put the incoming page's bytes in
// the victim's place on the volume; a checkpoint that returned early would
// let the log be cut behind pre-cut bytes not yet on the volume.
func TestFlushBeforeWaitsOutEvictionWriteBack(t *testing.T) {
	h := holdEviction(t)
	type result struct {
		err    error
		landed bool
	}
	flushed := make(chan result, 1)
	go func() {
		err := h.p.FlushBefore(h.e)
		flushed <- result{err, h.landed.Load()}
	}()
	waitParked(t, "flushBounded") // the checkpoint waits on the writing-back frame
	close(h.release)
	if err := <-h.loaded; err != nil {
		t.Fatal(err)
	}
	r := <-flushed
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.landed {
		t.Fatal("FlushBefore returned while the eviction's write-back of a pre-cut page was still held")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.later) != 0 {
		t.Fatalf("the checkpoint wrote %v itself", h.later)
	}
	if n := h.p.DirtyBefore(h.e); n != 0 {
		t.Fatalf("checkpoint left %d pre-cut dirty frames", n)
	}
}

// A Snapshot of a page whose eviction write-back is held copies the frame's
// dirty bytes in place at once: the page stays indexed until the write
// lands, so its caller never falls back to the volume's older image.
func TestSnapshotDuringEvictionWriteBack(t *testing.T) {
	h := holdEviction(t)
	snapped := make(chan bool, 1)
	var img [disk.PageSize]byte
	go func() { snapped <- h.p.Snapshot(victim, img[:]) }()
	select {
	case ok := <-snapped:
		if !ok {
			t.Fatal("Snapshot missed a page whose write-back is in flight")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot waited for the held write-back")
	}
	for i, b := range img {
		if b != 0xAA {
			t.Fatalf("Snapshot byte %d = 0x%X, want the dirty 0xAA", i, b)
		}
	}
	if n := h.reads.Load(); n != 2 {
		t.Fatalf("%d volume reads before the write-back landed, want 2 (the victim's and the pinned page's)", n)
	}
	close(h.release)
	if err := <-h.loaded; err != nil {
		t.Fatal(err)
	}
	if h.p.Snapshot(victim, img[:]) {
		t.Fatal("Snapshot hit the victim after its eviction")
	}
}
