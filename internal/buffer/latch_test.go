package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quickstore/internal/disk"
)

// TestLatchPoolBasics covers the single-threaded contract: load fills a
// frame once, hits pin without reloading, eviction writes dirty pages back
// through FlushFn, and Snapshot copies without perturbing anything.
func TestLatchPoolBasics(t *testing.T) {
	p := NewLatchPool(4)
	var flushed []disk.PageID
	p.FlushFn = func(pid disk.PageID, data []byte) error {
		flushed = append(flushed, pid)
		return nil
	}
	load := func(pid disk.PageID) func([]byte) error {
		return func(buf []byte) error {
			binary.LittleEndian.PutUint32(buf, uint32(pid))
			return nil
		}
	}

	ref, loaded, err := p.Load(7, load(7))
	if err != nil || !loaded {
		t.Fatalf("Load(7) = loaded=%v err=%v, want fresh load", loaded, err)
	}
	ref.Read(func(data []byte) {
		if binary.LittleEndian.Uint32(data) != 7 {
			t.Fatalf("loaded frame holds %d, want 7", binary.LittleEndian.Uint32(data))
		}
	})
	ref.Release()

	ref2, loaded, err := p.Load(7, func([]byte) error {
		t.Fatal("loader ran on a resident page")
		return nil
	})
	if err != nil || loaded {
		t.Fatalf("Load(7) second time = loaded=%v err=%v, want hit", loaded, err)
	}
	ref2.Write(func(data []byte) { binary.LittleEndian.PutUint32(data, 77) })
	ref2.MarkDirty()
	ref2.Release()

	var snap [disk.PageSize]byte
	if !p.Snapshot(7, snap[:]) {
		t.Fatal("Snapshot(7) missed a resident page")
	}
	if binary.LittleEndian.Uint32(snap[:]) != 77 {
		t.Fatalf("snapshot holds %d, want 77", binary.LittleEndian.Uint32(snap[:]))
	}

	// Fill past capacity: page 7 must eventually be written back.
	for pid := disk.PageID(100); pid < 110; pid++ {
		r, _, err := p.Load(pid, load(pid))
		if err != nil {
			t.Fatalf("Load(%d): %v", pid, err)
		}
		r.Release()
	}
	found := false
	for _, pid := range flushed {
		if pid == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty page 7 evicted without write-back (flushed: %v)", flushed)
	}
	hits, misses, evicted := p.Stats()
	if hits == 0 || misses == 0 || evicted == 0 {
		t.Fatalf("stats hits=%d misses=%d evicted=%d, want all nonzero", hits, misses, evicted)
	}
}

// TestLatchPoolLoadDedup proves the in-flight dedup: many goroutines
// faulting the same page concurrently issue exactly one load.
func TestLatchPoolLoadDedup(t *testing.T) {
	p := NewLatchPool(8)
	var loads atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var loadedCount atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			ref, loaded, err := p.Load(42, func(buf []byte) error {
				loads.Add(1)
				binary.LittleEndian.PutUint32(buf, 42)
				return nil
			})
			if err != nil {
				t.Errorf("Load: %v", err)
				return
			}
			if loaded {
				loadedCount.Add(1)
			}
			ref.Read(func(data []byte) {
				if binary.LittleEndian.Uint32(data) != 42 {
					t.Errorf("read %d, want 42", binary.LittleEndian.Uint32(data))
				}
			})
			ref.Release()
		}()
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads issued for one page, want 1 (dedup)", n)
	}
	if n := loadedCount.Load(); n != 1 {
		t.Fatalf("%d callers report loaded=true, want 1", n)
	}
}

// TestLatchPoolLoadErrorPropagates checks that a failed load reaches its
// loader and leaves no residue, and that a rider waiting on a fill that
// fails does not adopt its error: the page is un-indexed and the rider
// loads it with its own loader, whose error is the one it gets.
func TestLatchPoolLoadErrorPropagates(t *testing.T) {
	p := NewLatchPool(4)
	boom := errors.New("bad sector")
	if _, _, err := p.Load(9, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Load error = %v, want %v", err, boom)
	}
	// The page must not be resident; a retry loads again.
	ref, loaded, err := p.Load(9, func(buf []byte) error { return nil })
	if err != nil || !loaded {
		t.Fatalf("retry Load = loaded=%v err=%v, want fresh load", loaded, err)
	}
	ref.Release()

	const pid = disk.PageID(11)
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := p.Load(pid, func([]byte) error {
			close(started)
			<-release
			return boom
		})
		first <- err
	}()
	<-started
	refused := errors.New("the rider's own read failed")
	rider := make(chan error, 1)
	go func() {
		_, _, err := p.Load(pid, func([]byte) error { return refused })
		rider <- err
	}()
	waitParked(t, "Load") // the rider waits on the filling frame
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("held fill's Load error = %v, want %v", err, boom)
	}
	if err := <-rider; !errors.Is(err, refused) {
		t.Fatalf("rider's Load error = %v, want its own loader's %v", err, refused)
	}
	s := p.stripe(pid)
	s.mu.Lock()
	_, indexed := s.index[pid]
	s.mu.Unlock()
	if indexed {
		t.Fatalf("page %d left indexed after both its fills failed", pid)
	}
	ref, loaded, err = p.Load(pid, func(buf []byte) error { return nil })
	if err != nil || !loaded {
		t.Fatalf("Load after the failed fills = loaded=%v err=%v, want fresh load", loaded, err)
	}
	ref.Release()
}

// waitParked polls the goroutine stacks until one is parked on a stripe's
// condition variable inside the LatchPool method fn: the one wait a test
// cannot see from outside the pool.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*LatchPool)."+fn+"(") {
				return
			}
		}
	}
	t.Fatalf("no goroutine parked in LatchPool.%s", fn)
}

// TestLatchPoolParallelStress is the -race stress: goroutines hammer
// Load/Snapshot/Write/MarkDirty/Release across stripes while
// capacity pressure forces constant eviction, and every read must observe
// a consistent page image (the content latch forbids torn reads).
func TestLatchPoolParallelStress(t *testing.T) {
	const (
		frames  = 32
		pages   = 256
		workers = 8
		iters   = 2000
	)
	p := NewLatchPool(frames)
	var store sync.Map // pid -> latest committed stamp
	p.FlushFn = func(pid disk.PageID, data []byte) error {
		a := binary.LittleEndian.Uint64(data[8:])
		b := binary.LittleEndian.Uint64(data[16:])
		if a != b {
			return fmt.Errorf("torn write-back of page %d: %d != %d", pid, a, b)
		}
		store.Store(pid, a)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				pid := disk.PageID(1 + rng.Intn(pages)) // 0 is InvalidPage, never cached
				ref, _, err := p.Load(pid, func(buf []byte) error {
					var stamp uint64
					if v, ok := store.Load(pid); ok {
						stamp = v.(uint64)
					}
					binary.LittleEndian.PutUint64(buf[8:], stamp)
					binary.LittleEndian.PutUint64(buf[16:], stamp)
					return nil
				})
				if err != nil {
					t.Errorf("Load(%d): %v", pid, err)
					return
				}
				if rng.Intn(3) == 0 {
					ref.Write(func(data []byte) {
						stamp := binary.LittleEndian.Uint64(data[8:]) + 1
						binary.LittleEndian.PutUint64(data[8:], stamp)
						binary.LittleEndian.PutUint64(data[16:], stamp)
					})
					ref.MarkDirty()
				} else {
					ref.Read(func(data []byte) {
						a := binary.LittleEndian.Uint64(data[8:])
						b := binary.LittleEndian.Uint64(data[16:])
						if a != b {
							t.Errorf("torn read of page %d: %d != %d", pid, a, b)
						}
					})
				}
				if rng.Intn(4) == 0 {
					var snap [disk.PageSize]byte
					p.Snapshot(pid, snap[:])
				}
				ref.Release()
			}
		}(w)
	}
	wg.Wait()
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
}

// TestLatchPoolStripes pins the stripe sizing: tiny pools collapse to one
// stripe (still correct, no parallelism) and big pools cap at 64.
func TestLatchPoolStripes(t *testing.T) {
	for _, tc := range []struct{ frames, want int }{
		{1, 1}, {2, 1}, {8, 1}, {16, 2}, {64, 8}, {512, 64}, {4608, 64},
	} {
		if got := NewLatchPool(tc.frames).Stripes(); got != tc.want {
			t.Errorf("NewLatchPool(%d).Stripes() = %d, want %d", tc.frames, got, tc.want)
		}
	}
}
