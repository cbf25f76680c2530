package buffer

import (
	"errors"
	"fmt"
	"sync"
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

// A checkpoint that meets a frame an eviction is still writing back waits
// for that write-back instead of writing the frame itself: the frame is the
// incoming page's the moment the write-back ends, and that page's fill
// takes no content latch, so a second write of the victim from the frame
// could put the incoming page's bytes in the victim's place on the volume.
func TestFlushBeforeWaitsOutEvictionWriteBack(t *testing.T) {
	const victim, pinned, incoming = disk.PageID(1), disk.PageID(2), disk.PageID(3)
	fill := func(b byte, done chan struct{}) func([]byte) error {
		return func(buf []byte) error {
			for i := range buf {
				buf[i] = b
			}
			if done != nil {
				close(done)
			}
			return nil
		}
	}
	evicting, release, filled := make(chan struct{}), make(chan struct{}), make(chan struct{})
	// reached is told once the checkpoint meets the evicting frame: it
	// either starts to wait out the write-back or writes the frame itself.
	reached := make(chan string, 2)
	var mu sync.Mutex
	calls, bad := 0, 0
	p := NewLatchPool(2)
	p.evictionWait = func(pid disk.PageID) { reached <- fmt.Sprintf("waits out the eviction of page %d", pid) }
	p.FlushFn = func(pid disk.PageID, data []byte) error {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			// The eviction's write-back of the victim.
			close(evicting)
			<-release
		} else {
			// Any later write: let the incoming page's fill land first.
			reached <- fmt.Sprintf("writes page %d", pid)
			select {
			case <-filled:
			case <-time.After(time.Second):
			}
		}
		if pid == victim && data[0] != 0xAA {
			mu.Lock()
			bad++
			mu.Unlock()
		}
		return nil
	}
	a, _, err := p.Load(victim, fill(0xAA, nil))
	if err != nil {
		t.Fatal(err)
	}
	a.MarkDirty()
	a.Release()
	hold, _, err := p.Load(pinned, fill(0xBB, nil)) // pinned: the victim is the only candidate
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	e := p.AdvanceEpoch()

	loaded := make(chan error, 1)
	go func() {
		ref, _, err := p.Load(incoming, fill(0xCC, filled))
		if err == nil {
			ref.Release()
		}
		loaded <- err
	}()
	<-evicting
	flushed := make(chan error, 1)
	go func() { flushed <- p.FlushBefore(e) }()
	// Let the eviction finish only once the checkpoint has met its frame. A
	// checkpoint that writes the frame is held in FlushFn until the fill has
	// landed, so it writes the incoming page's bytes.
	select {
	case how := <-reached:
		t.Logf("the checkpoint %s", how)
	case <-time.After(10 * time.Second):
		t.Fatal("the checkpoint never reached the evicting frame")
	}
	close(release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("page %d was written with another page's bytes %d times", victim, bad)
	}
	if n := p.DirtyBefore(e); n != 0 {
		t.Fatalf("checkpoint left %d pre-cut dirty frames", n)
	}
}
