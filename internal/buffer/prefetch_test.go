package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"quickstore/internal/disk"
)

func pageImage(tag byte) []byte {
	return bytes.Repeat([]byte{tag}, disk.PageSize)
}

// putPrefetched installs img as pid's speculative image.
func putPrefetched(p *Pool, pid disk.PageID, img []byte) (int, bool) {
	i, ok, err := p.PutPrefetched(pid, func(buf []byte) error {
		copy(buf, img)
		return nil
	})
	if err != nil {
		panic(err) // the fill above cannot fail
	}
	return i, ok
}

// TestPutPrefetchedFill: the image is written by the fill function, straight
// into the frame it lands in. A page that lands nowhere is never filled, and
// a fill that fails leaves its frame empty and returns its error.
func TestPutPrefetchedFill(t *testing.T) {
	p := New(2, nil)
	fills := 0
	fill := func(tag byte) func([]byte) error {
		return func(buf []byte) error {
			fills++
			if tag == 0 {
				return errors.New("bad image")
			}
			for k := range buf {
				buf[k] = tag
			}
			return nil
		}
	}
	i, ok, err := p.PutPrefetched(1, fill(0xA1))
	if err != nil || !ok || fills != 1 || p.Frame(i).Data[disk.PageSize-1] != 0xA1 {
		t.Fatalf("install: frame %d, %v, %v, %d fills", i, ok, err, fills)
	}
	if _, ok, err := p.PutPrefetched(1, fill(0xB2)); ok || err != nil || fills != 1 {
		t.Fatalf("resident page: %v, %v, %d fills; want dropped unfilled", ok, err, fills)
	}
	if _, ok, err := p.PutPrefetched(2, fill(0)); ok || err == nil || fills != 2 {
		t.Fatalf("failing fill: %v, %v, %d fills; want its error", ok, err, fills)
	}
	if _, resident := p.Lookup(2); resident || p.Empty() != 1 || p.Resident() != 1 {
		t.Fatalf("after a failed fill: page 2 resident %v, empty %d, resident %d; want the frame empty",
			resident, p.Empty(), p.Resident())
	}
	if o, _, _ := p.Speculation(); o != 1 {
		t.Fatalf("%d speculative frames outstanding, want 1", o)
	}
}

func TestPutPrefetchedBasics(t *testing.T) {
	p := New(2, nil)
	i, ok := putPrefetched(p, 1, pageImage(0xA1))
	if !ok {
		t.Fatal("install into empty pool failed")
	}
	f := p.Frame(i)
	if !f.Prefetched || f.Ref || f.Pin != 0 || f.Data[0] != 0xA1 {
		t.Fatalf("bad speculative frame: %+v", f)
	}
	// Installing a resident page is a no-op.
	if _, ok := putPrefetched(p, 1, pageImage(0xB2)); ok {
		t.Fatal("reinstalled a resident page")
	}
	if f.Data[0] != 0xA1 {
		t.Fatal("no-op install overwrote the frame")
	}
	// First use clears the flag exactly once.
	if !p.ConsumePrefetched(i) {
		t.Fatal("first consume reported no prefetch")
	}
	if p.ConsumePrefetched(i) {
		t.Fatal("second consume reported a prefetch")
	}
}

// victimAt is a replacement policy that always names frame i.
type victimAt int

func (v victimAt) Victim(*Pool) (int, error) { return int(v), nil }

// speculationCount reports the pool's outstanding speculative frames, failing
// the test when the counter and the frame flags disagree.
func speculationCount(t *testing.T, p *Pool) int {
	t.Helper()
	o, _, _ := p.Speculation()
	spec := 0
	for i := 0; i < p.Len(); i++ {
		if p.Frame(i).Prefetched {
			spec++
		}
	}
	if o != spec {
		t.Fatalf("%d speculative frames flagged, %d counted", spec, o)
	}
	return o
}

// TestPutPrefetchedNeverEvictsDemandPages: in a pool full of demand-loaded
// pages, a speculative image whose victim is pinned or dirty is dropped. No
// page leaves the pool and nothing is written back.
func TestPutPrefetchedNeverEvictsDemandPages(t *testing.T) {
	var evicted []disk.PageID
	p := New(2, nil)
	p.OnEvict = func(pid disk.PageID, _ int) { evicted = append(evicted, pid) }
	p.FlushFn = func(pid disk.PageID, _ []byte) error {
		t.Errorf("speculation wrote dirty page %d back", pid)
		return nil
	}
	i1, _ := p.Put(1, loadTag(1))
	i2, _ := p.Put(2, loadTag(2))
	p.Pin(i1)
	p.SetPolicy(victimAt(i1))
	if _, ok := putPrefetched(p, 3, pageImage(3)); ok {
		t.Fatal("speculative install displaced a pinned demand page")
	}
	p.Unpin(i1)
	p.MarkDirty(i2)
	p.SetPolicy(victimAt(i2))
	if _, ok := putPrefetched(p, 3, pageImage(3)); ok {
		t.Fatal("speculative install displaced a dirty demand page")
	}
	if p.Resident() != 2 || len(evicted) != 0 || speculationCount(t, p) != 0 {
		t.Fatalf("resident = %d, evicted %v", p.Resident(), evicted)
	}
	for _, pid := range []disk.PageID{1, 2} {
		if _, ok := p.Lookup(pid); !ok {
			t.Fatalf("page %d evicted by refused speculation", pid)
		}
	}
}

// TestPutPrefetchedTakesEmptyFramesOnly: while a frame is empty, speculation
// takes it and evicts nothing, whatever the policy names. Once the pool is
// full, it never displaces older unused speculation and counts no waste.
func TestPutPrefetchedTakesEmptyFramesOnly(t *testing.T) {
	var evicted, dropped []disk.PageID
	p := New(2, nil)
	p.OnEvict = func(pid disk.PageID, _ int) { evicted = append(evicted, pid) }
	p.OnPrefetchDrop = func(pid disk.PageID) { dropped = append(dropped, pid) }
	i1, _ := p.Put(1, loadTag(1))
	p.SetPolicy(victimAt(i1))
	i2, ok := putPrefetched(p, 2, pageImage(2))
	if !ok || i2 == i1 {
		t.Fatalf("install = frame %d, %v; want the empty frame", i2, ok)
	}
	if _, ok := p.Lookup(1); !ok || len(evicted) != 0 {
		t.Fatalf("install evicted %v while a frame was empty", evicted)
	}
	p.SetPolicy(victimAt(i2))
	if _, ok := putPrefetched(p, 3, pageImage(3)); ok {
		t.Fatal("speculative install displaced older speculation")
	}
	if _, ok := p.Lookup(2); !ok {
		t.Fatal("older speculative page evicted by a refused install")
	}
	if len(evicted) != 0 || len(dropped) != 0 || speculationCount(t, p) != 1 {
		t.Fatalf("evicted %v, OnPrefetchDrop calls %v (want none)", evicted, dropped)
	}
}

// TestPutPrefetchedIntoFullPool: with no empty frame, a speculative image takes
// exactly the clean, unpinned frame the policy names, and counts no waste.
func TestPutPrefetchedIntoFullPool(t *testing.T) {
	var evicted, dropped []disk.PageID
	p := New(4, nil)
	p.OnEvict = func(pid disk.PageID, _ int) { evicted = append(evicted, pid) }
	p.OnPrefetchDrop = func(pid disk.PageID) { dropped = append(dropped, pid) }
	for pid := disk.PageID(1); pid <= 3; pid++ {
		p.Put(pid, loadTag(byte(pid)))
	}
	if _, ok := putPrefetched(p, 4, pageImage(4)); !ok {
		t.Fatal("install into the last empty frame failed")
	}
	frame := func(pid disk.PageID) int {
		t.Helper()
		i, ok := p.Lookup(pid)
		if !ok {
			t.Fatalf("page %d is not resident", pid)
		}
		return i
	}
	check := func(step string, outstanding int) {
		t.Helper()
		if o := speculationCount(t, p); p.Empty() != 0 || p.Resident() != p.Len() || o != outstanding {
			t.Fatalf("%s: empty=%d resident=%d outstanding=%d, want 0 %d %d",
				step, p.Empty(), p.Resident(), o, p.Len(), outstanding)
		}
	}
	check("full", 1)

	i1 := frame(1)
	p.SetPolicy(victimAt(i1))
	i, ok := putPrefetched(p, 9, pageImage(9))
	if !ok || i != i1 {
		t.Fatalf("install = frame %d, %v; want the policy's victim %d", i, ok, i1)
	}
	if f := p.Frame(i); f.Page != 9 || !f.Prefetched || f.Ref || f.Data[0] != 9 {
		t.Fatalf("bad speculative frame: page %d prefetched %v ref %v", f.Page, f.Prefetched, f.Ref)
	}
	if _, ok := p.Lookup(1); ok || len(evicted) != 1 || evicted[0] != 1 || len(dropped) != 0 {
		t.Fatalf("evicted %v, dropped %v; want page 1 evicted and nothing wasted", evicted, dropped)
	}
	check("installed", 2)
	// A resident page is never installed twice, whatever the policy names.
	if _, ok := putPrefetched(p, 3, pageImage(0xFF)); ok || p.Frame(frame(3)).Data[0] != 3 {
		t.Fatal("reinstalled a resident page")
	}
	check("resident", 2)
}

// TestOccupancyCounts follows the counters that replace the frame scans:
// Empty, the lowest-empty-frame choice, and the speculation verdicts.
func TestOccupancyCounts(t *testing.T) {
	p := New(4, nil)
	check := func(step string, empty, outstanding int, used, wasted int64) {
		t.Helper()
		o, u, w := p.Speculation()
		if p.Empty() != empty || o != outstanding || u != used || w != wasted {
			t.Fatalf("%s: empty=%d outstanding=%d used=%d wasted=%d, want %d %d %d %d",
				step, p.Empty(), o, u, w, empty, outstanding, used, wasted)
		}
		n := 0
		for i := 0; i < p.Len(); i++ {
			if p.Frame(i).Page == disk.InvalidPage {
				n++
			}
		}
		if n != p.Empty() {
			t.Fatalf("%s: %d empty frames, Empty() = %d", step, n, p.Empty())
		}
	}
	check("new", 4, 0, 0, 0)
	p.Put(1, loadTag(1))
	putPrefetched(p, 2, pageImage(2))
	putPrefetched(p, 3, pageImage(3))
	check("filled", 1, 2, 0, 0)
	i2, _ := p.Lookup(2)
	p.ConsumePrefetched(i2)
	check("used", 1, 1, 1, 0)
	// Frames are handed out lowest index first, also after an eviction
	// below the frames filled since (the paper tables depend on it).
	i1, _ := p.Lookup(1)
	if err := p.Evict(i1); err != nil {
		t.Fatal(err)
	}
	check("evicted", 2, 1, 1, 0)
	if i, _ := p.Put(4, loadTag(4)); i != i1 {
		t.Fatalf("page 4 went to frame %d, want the lowest empty frame %d", i, i1)
	}
	if i, _ := p.Put(5, loadTag(5)); i != 3 {
		t.Fatalf("page 5 went to frame %d, want 3", i)
	}
	check("full", 0, 1, 1, 0)
	// A load that fails leaves its frame empty and findable.
	p.DropSpeculative()
	check("dropped", 1, 0, 1, 1)
	if _, err := p.Put(6, func([]byte) error { return ErrNotCached }); err == nil {
		t.Fatal("failed load reported success")
	}
	check("failed load", 1, 0, 1, 1)
	p.DropAll()
	check("drop all", 4, 0, 1, 1)
}

func TestDropSpeculativeKeepsUsedAndPinned(t *testing.T) {
	var dropped, evicted []disk.PageID
	p := New(4, nil)
	p.OnPrefetchDrop = func(pid disk.PageID) { dropped = append(dropped, pid) }
	p.OnEvict = func(pid disk.PageID, _ int) { evicted = append(evicted, pid) }
	p.Put(1, loadTag(1))
	for pid := disk.PageID(2); pid <= 4; pid++ {
		putPrefetched(p, pid, pageImage(byte(pid)))
	}
	i2, _ := p.Lookup(2)
	p.ConsumePrefetched(i2)
	i3, _ := p.Lookup(3)
	p.Pin(i3)
	p.DropSpeculative()
	p.Unpin(i3)
	if len(dropped) != 1 || dropped[0] != 4 || len(evicted) != 1 || evicted[0] != 4 {
		t.Fatalf("dropped %v evicted %v, want [4] [4]", dropped, evicted)
	}
	for _, pid := range []disk.PageID{1, 2, 3} {
		if _, ok := p.Lookup(pid); !ok {
			t.Fatalf("page %d left the pool", pid)
		}
	}
}

// TestFreeFrameTakesPolicyVictimOverPrefetched: a demand miss in a full pool evicts the
// policy's victim, also while unused speculative frames are outstanding: they
// are the read-ahead the traversal is about to use.
func TestFreeFrameTakesPolicyVictimOverPrefetched(t *testing.T) {
	var dropped []disk.PageID
	p := New(2, nil)
	p.OnPrefetchDrop = func(pid disk.PageID) { dropped = append(dropped, pid) }
	p.Put(1, loadTag(1))
	putPrefetched(p, 2, pageImage(2))
	i1, _ := p.Lookup(1)
	p.SetPolicy(victimAt(i1))
	if i, err := p.Put(3, loadTag(3)); err != nil || i != i1 {
		t.Fatalf("demand load = frame %d, %v; want the policy's victim %d", i, err, i1)
	}
	i2, ok := p.Lookup(2)
	if !ok || !p.Frame(i2).Prefetched || len(dropped) != 0 {
		t.Fatalf("speculative page 2 resident=%v, wasted %v: a demand miss displaced it", ok, dropped)
	}
}

func TestDropAllCountsWastedPrefetches(t *testing.T) {
	var dropped []disk.PageID
	p := New(4, nil)
	p.OnPrefetchDrop = func(pid disk.PageID) { dropped = append(dropped, pid) }
	p.Put(1, loadTag(1))
	putPrefetched(p, 2, pageImage(2))
	putPrefetched(p, 3, pageImage(3))
	i, _ := p.Lookup(3)
	p.ConsumePrefetched(i) // page 3 was used; only page 2 is waste
	p.DropAll()
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Fatalf("wasted prefetches: %v (want [2])", dropped)
	}
}

// TestConcurrentPinUnpinEvict hammers one pool from many goroutines under an
// external mutex — the synchronization model the Pool documents (one owner
// session serializes access) — and checks the invariants hold throughout.
// Run with -race: the point is that the lock discipline plus the pool's
// callback structure stays race-free even when callbacks re-enter pool state.
func TestConcurrentPinUnpinEvict(t *testing.T) {
	const (
		frames  = 16
		pages   = 64
		workers = 8
		iters   = 2000
	)
	var mu sync.Mutex
	p := New(frames, nil)
	p.FlushFn = func(pid disk.PageID, data []byte) error { return nil }
	p.OnEvict = func(pid disk.PageID, frame int) {
		// Re-enter the pool from the callback, as core.Store's hook does.
		_, _ = p.Lookup(pid)
	}
	p.OnPrefetchDrop = func(pid disk.PageID) { _, _ = p.Lookup(pid) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				pid := disk.PageID(1 + rng.Intn(pages))
				mu.Lock()
				switch rng.Intn(7) {
				case 0, 1: // demand load + touch
					if i, err := p.Put(pid, loadTag(byte(pid))); err == nil {
						if p.Frame(i).Data[0] != byte(pid) {
							t.Errorf("frame %d holds wrong image", i)
						}
					}
				case 2: // pin/unpin cycle
					if i, ok := p.Get(pid); ok {
						p.Pin(i)
						p.Frame(i).Data[1] = byte(w)
						p.Unpin(i)
					}
				case 3: // explicit evict
					if i, ok := p.Lookup(pid); ok && p.Frame(i).Pin == 0 {
						if err := p.Evict(i); err != nil {
							t.Errorf("evict: %v", err)
						}
					}
				case 4: // speculative install
					putPrefetched(p, pid, pageImage(byte(pid)))
				case 5: // consume if prefetched
					if i, ok := p.Lookup(pid); ok {
						p.ConsumePrefetched(i)
					}
				case 6: // end of a transaction
					p.DropSpeculative()
				}
				if p.Resident()+p.Empty() != frames {
					t.Errorf("resident %d + empty %d != frames %d", p.Resident(), p.Empty(), frames)
				}
				if p.Resident() > frames {
					t.Errorf("resident %d > frames %d", p.Resident(), frames)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Final integrity sweep: the index and frames must agree.
	seen := 0
	for i := 0; i < p.Len(); i++ {
		f := p.Frame(i)
		if f.Page == disk.InvalidPage {
			continue
		}
		seen++
		if j, ok := p.Lookup(f.Page); !ok || j != i {
			t.Errorf("index out of sync for page %d (frame %d)", f.Page, i)
		}
		if f.Pin != 0 {
			t.Errorf("frame %d left pinned", i)
		}
	}
	if seen != p.Resident() {
		t.Errorf("%d occupied frames vs %d indexed", seen, p.Resident())
	}
	spec := 0
	for i := 0; i < p.Len(); i++ {
		if p.Frame(i).Prefetched {
			spec++
		}
	}
	if o, _, _ := p.Speculation(); o != spec {
		t.Errorf("%d speculative frames vs %d counted", spec, o)
	}
}
