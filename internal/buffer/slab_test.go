package buffer

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"quickstore/internal/disk"
)

const slabBytes = slabFrames * disk.PageSize

// bytesAllocated returns the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// touch writes both ends of the image it is given, as a real load would.
func touch(buf []byte) error {
	buf[0], buf[len(buf)-1] = 1, 1
	return nil
}

// TestPoolFramesAllocatedOnFirstUse pins the memory rule of both pools: a
// pool costs nothing per frame until the frame takes a page, images come
// 64 to a slab, a full pool holds at most its capacity, and a frame keeps
// its image when its page leaves, so refilling allocates nothing.
func TestPoolFramesAllocatedOnFirstUse(t *testing.T) {
	// Bookkeeping a load may allocate besides images: index map rehashes
	// under churn. Well under one slab, so an extra slab still shows.
	const slack = 256 << 10
	for _, tc := range []struct {
		name   string
		frames int // the paper's capacity
		build  func(frames int) (load func(disk.PageID), dropAll func())
	}{
		{"LatchPool", 4608, func(n int) (func(disk.PageID), func()) {
			p := NewLatchPool(n)
			return func(pid disk.PageID) {
				ref, _, err := p.Load(pid, touch)
				if err != nil {
					panic(err)
				}
				ref.Release()
			}, p.DropAll
		}},
		{"Pool", 1536, func(n int) (func(disk.PageID), func()) {
			p := New(n, nil)
			return func(pid disk.PageID) {
				if _, err := p.Put(pid, touch); err != nil {
					panic(err)
				}
			}, p.DropAll
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var load func(disk.PageID)
			var dropAll func()
			if b := bytesAllocated(func() { load, dropAll = tc.build(tc.frames) }); b >= 1<<20 {
				t.Errorf("building a %d-frame pool allocated %d KB, want under 1 MB", tc.frames, b>>10)
			}
			b := bytesAllocated(func() {
				for pid := 1; pid <= 2*tc.frames; pid++ {
					load(disk.PageID(pid))
				}
			})
			if max := uint64(tc.frames * disk.PageSize); b > max+slack {
				t.Errorf("loading %d pages into %d frames allocated %d KB, want at most the capacity, %d KB", 2*tc.frames, tc.frames, b>>10, max>>10)
			}

			for _, k := range []int{1, 64, 65, 200} {
				load, _ := tc.build(tc.frames)
				slabs := (k + slabFrames - 1) / slabFrames
				b := bytesAllocated(func() {
					for pid := 1; pid <= k; pid++ {
						load(disk.PageID(pid))
					}
				})
				if b < uint64(slabs*slabBytes) || b >= uint64(slabs*slabBytes+slack) {
					t.Errorf("loading %d pages allocated %d KB, want %d slabs (%d KB)", k, b>>10, slabs, slabs*slabBytes>>10)
				}
			}

			const reload = 100
			allocs := testing.AllocsPerRun(5, func() {
				dropAll()
				for pid := 1; pid <= reload; pid++ {
					load(disk.PageID(pid))
				}
			})
			if allocs != 0 {
				t.Errorf("reloading %d pages after DropAll allocated %.1f times, want 0", reload, allocs)
			}
		})
	}
}

// TestLatchPoolAllocated pins the pool's footprint counter: a slab's worth
// of frames at a time, never more than the capacity, unchanged by DropAll.
func TestLatchPoolAllocated(t *testing.T) {
	p := NewLatchPool(100)
	if n := p.Allocated(); n != 0 {
		t.Fatalf("fresh pool: Allocated = %d, want 0", n)
	}
	// The second slab is cut to the 36 frames left of the capacity.
	for _, tc := range []struct{ pages, want int }{{1, 64}, {64, 64}, {65, 100}, {100, 100}} {
		for i := 1; i <= tc.pages; i++ {
			ref := loadPage(t, p, disk.PageID(i))
			ref.Release()
		}
		if n := p.Allocated(); n != tc.want {
			t.Fatalf("after loading pages 1..%d: Allocated = %d, want %d", tc.pages, n, tc.want)
		}
	}
	for i := 101; i <= 300; i++ {
		ref := loadPage(t, p, disk.PageID(i))
		ref.Release()
	}
	p.DropAll()
	if n := p.Allocated(); n != 100 {
		t.Fatalf("after overfilling and DropAll: Allocated = %d, want the capacity, 100", n)
	}
}

// TestLatchPoolConcurrentFirstFills races first fills on every stripe of a
// fresh pool: each page must read back its own bytes, and no two frames may
// share any byte of image.
func TestLatchPoolConcurrentFirstFills(t *testing.T) {
	const (
		workers = 8
		perW    = 128 // 1,024 pages, 16 a stripe: none is evicted
	)
	p := NewLatchPool(4608)
	stamp := func(pid disk.PageID) func([]byte) error {
		return func(buf []byte) error {
			for i := range buf {
				buf[i] = byte(pid)
			}
			binary.LittleEndian.PutUint32(buf, uint32(pid))
			binary.LittleEndian.PutUint32(buf[len(buf)-4:], uint32(pid))
			return nil
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				pid := disk.PageID(1 + w + workers*i)
				ref, loaded, err := p.Load(pid, stamp(pid))
				if err != nil || !loaded {
					t.Errorf("Load(%d) = loaded=%v err=%v, want a first fill", pid, loaded, err)
					return
				}
				ref.Release()
			}
		}(w)
	}
	wg.Wait()

	want := make([]byte, disk.PageSize)
	for pid := disk.PageID(1); pid <= workers*perW; pid++ {
		stamp(pid)(want)
		ref, loaded, err := p.Load(pid, stamp(0))
		if err != nil || loaded {
			t.Fatalf("Load(%d) = loaded=%v err=%v, want a hit", pid, loaded, err)
		}
		ref.Read(func(data []byte) {
			if string(data) != string(want) {
				t.Errorf("page %d does not read back its own bytes", pid)
			}
		})
		ref.Release()
	}
	if n, want := p.Allocated(), workers*perW; n != want {
		t.Errorf("Allocated = %d, want %d", n, want)
	}

	var starts []uintptr
	for si := range p.stripes {
		for fi := range p.stripes[si].frames {
			f := &p.stripes[si].frames[fi]
			if f.data == nil {
				continue
			}
			if len(f.data) != disk.PageSize || cap(f.data) != disk.PageSize {
				t.Fatalf("frame image has len %d cap %d, want %d", len(f.data), cap(f.data), disk.PageSize)
			}
			starts = append(starts, uintptr(unsafe.Pointer(&f.data[0])))
		}
	}
	if len(starts) != workers*perW {
		t.Fatalf("%d frames have images, want %d", len(starts), workers*perW)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] < disk.PageSize {
			t.Fatalf("two frame images overlap: %#x and %#x are %d bytes apart", starts[i-1], starts[i], starts[i]-starts[i-1])
		}
	}
}
