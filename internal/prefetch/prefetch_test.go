package prefetch

import (
	"errors"
	"slices"
	"testing"

	"quickstore/internal/buffer"
	"quickstore/internal/disk"
	"quickstore/internal/sim"
)

// harness binds a Prefetcher to a real client pool and a fake server: fetch
// records each round trip and lands the images the way esm.Client.ReadAhead
// does.
type harness struct {
	pool     *buffer.Pool
	clock    *sim.Clock
	p        *Prefetcher
	frames   [][]disk.PageID
	fetchErr error
}

func newHarness(poolFrames int) *harness {
	h := &harness{pool: buffer.New(poolFrames, nil), clock: sim.NewClock(sim.CostModel{})}
	h.p = New(h.clock, h.pool, func(pids []disk.PageID) error {
		h.frames = append(h.frames, slices.Clone(pids))
		if h.fetchErr != nil {
			return h.fetchErr
		}
		for _, pid := range pids {
			h.pool.PutPrefetched(pid, func(buf []byte) error {
				buf[0] = byte(pid)
				return nil
			})
		}
		return nil
	})
	return h
}

// hint enqueues pages lo..hi and pumps.
func (h *harness) hint(t *testing.T, lo, hi disk.PageID) {
	t.Helper()
	for pid := lo; pid <= hi; pid++ {
		h.p.Enqueue(pid)
	}
	if err := h.p.Pump(); err != nil {
		t.Fatal(err)
	}
}

// demand fetches pid on demand as esm.Client.FetchPage does: one recorded
// round trip with pid first, pid installed as a demand frame and pinned while
// the riders Demand picked go in as speculative ones. It returns the riders.
func (h *harness) demand(t *testing.T, pid disk.PageID) []disk.PageID {
	t.Helper()
	ahead := slices.Clone(h.p.Demand(pid))
	h.frames = append(h.frames, append([]disk.PageID{pid}, ahead...))
	i, err := h.pool.Put(pid, func(buf []byte) error {
		buf[0] = byte(pid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.pool.Pin(i)
	defer h.pool.Unpin(i)
	for _, a := range ahead {
		h.pool.PutPrefetched(a, func(buf []byte) error {
			buf[0] = byte(a)
			return nil
		})
	}
	return ahead
}

// use consumes the speculative frames of pages lo..hi, as faults on them do.
func (h *harness) use(t *testing.T, lo, hi disk.PageID) {
	t.Helper()
	for pid := lo; pid <= hi; pid++ {
		i, ok := h.pool.Lookup(pid)
		if !ok || !h.pool.ConsumePrefetched(i) {
			t.Fatalf("page %d is not a speculative frame", pid)
		}
	}
}

// widen uses what is sent, as a dense traversal does, until the window is at
// least w; the pages it uses (numbered from a million) stay resident.
func (h *harness) widen(t *testing.T, w int) {
	t.Helper()
	for next := disk.PageID(1 << 20); h.p.Window() < w; {
		n := disk.PageID(h.p.Window())
		h.hint(t, next, next+n-1)
		h.use(t, next, next+n-1)
		next += n
	}
	h.frames = nil
}

func (h *harness) fetched() (pids []disk.PageID) {
	for _, f := range h.frames {
		pids = append(pids, f...)
	}
	return pids
}

func TestEmptyPumpIsFree(t *testing.T) {
	h := newHarness(8)
	if err := h.p.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 || h.clock.Count(sim.CtrPrefetchBatch) != 0 {
		t.Error("empty pump issued a round trip")
	}
}

func TestEnqueueDedupAndDepth(t *testing.T) {
	h := newHarness(8)
	h.pool.Put(5, func([]byte) error { return nil })

	h.p.Enqueue(disk.InvalidPage) // ignored
	h.p.Enqueue(5)                // resident: ignored
	h.p.Enqueue(1)
	h.p.Enqueue(1) // already queued: ignored
	h.p.Enqueue(2)
	if got := h.p.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if n := h.clock.Count(sim.CtrPrefetchIssued); n != 0 {
		t.Errorf("issued = %d before any pump, want 0", n)
	}
	h.p.Reset()
	if got := h.p.Pending(); got != 0 {
		t.Fatalf("pending after Reset = %d", got)
	}
	// A full queue forgets its oldest hint, not its newest.
	for pid := disk.PageID(100); pid < 100+MaxQueue+3; pid++ {
		h.p.Enqueue(pid)
	}
	if got := h.p.Pending(); got != MaxQueue {
		t.Fatalf("pending = %d, want the cap %d", got, MaxQueue)
	}
	h.p.Enqueue(100) // forgotten, so eligible again
	if got := h.p.Pending(); got != MaxQueue {
		t.Fatalf("pending = %d after re-hinting a forgotten page", got)
	}
}

func TestPumpBatchingAndOrderedDrain(t *testing.T) {
	h := newHarness(1024)
	h.widen(t, 150) // the window covers a burst of several frames
	batches := h.clock.Count(sim.CtrPrefetchBatch)
	h.hint(t, 2000, 2149)
	// 150 pages, MaxFrame to a round trip: full frames and a rest, in hint order.
	want := (150 + MaxFrame - 1) / MaxFrame
	if len(h.frames) != want {
		t.Fatalf("%d frames, want %d: %v", len(h.frames), want, h.frames)
	}
	for i, f := range h.frames {
		if n := min(MaxFrame, 150-i*MaxFrame); len(f) != n {
			t.Fatalf("frame %d carries %d pages, want %d", i, len(f), n)
		}
	}
	if n := h.clock.Count(sim.CtrPrefetchBatch) - batches; int(n) != want {
		t.Errorf("round trips charged = %d, want %d", n, want)
	}
	for i, pid := range h.fetched() {
		if pid != disk.PageID(2000+i) {
			t.Fatalf("fetch order %v", h.fetched())
		}
	}
	if h.p.Pending() != 0 {
		t.Errorf("queue not drained: %d", h.p.Pending())
	}
}

func TestPumpFetchError(t *testing.T) {
	h := newHarness(8)
	h.fetchErr = errors.New("boom")
	h.p.Enqueue(1)
	h.p.Enqueue(2)
	h.p.Enqueue(3)
	if err := h.p.Pump(); err == nil {
		t.Fatal("fetch error not surfaced")
	}
	if h.pool.Resident() != 0 {
		t.Errorf("pages installed despite the fetch error")
	}
	// The failed pump must not leave the queue stuck.
	if h.p.Pending() != 0 {
		t.Errorf("pending = %d after failed pump", h.p.Pending())
	}
}

func TestReadAheadOneRoundTripPerPump(t *testing.T) {
	h := newHarness(256)
	h.widen(t, 20)
	issued := h.clock.Count(sim.CtrPrefetchIssued)
	h.hint(t, 1, 20)
	if len(h.frames) != 1 || len(h.frames[0]) != 20 {
		t.Fatalf("20 hints went out as %v, want one frame of 20", h.frames)
	}
	if n := h.clock.Count(sim.CtrPrefetchIssued) - issued; n != 20 {
		t.Errorf("issued = %d, want 20", n)
	}
}

// TestReadAheadWindowBoundedByPool: while the pool has empty frames the window
// may fill them all; once it has none, speculation evicts the policy's
// victims but never holds more than a third of the frames, and the window
// shrinks to that bound, so half of it is a refill the pump can still wait for.
func TestReadAheadWindowBoundedByPool(t *testing.T) {
	const frames, bound = 128, 128 / PoolShare
	h := newHarness(frames)
	h.widen(t, 64) // 8+16+32 pages used and resident, 72 frames empty
	h.hint(t, 1000, 1099)
	if got := len(h.fetched()); got != 64 {
		t.Fatalf("asked for %d pages, want the window of 64 (more than a third of the pool, fewer than its empty frames)", got)
	}
	if _, _, evicted := h.pool.Stats(); evicted != 0 || h.pool.Empty() != 8 {
		t.Fatalf("%d evicted, %d empty: read-ahead into empty frames evicted something", evicted, h.pool.Empty())
	}
	h.p.Reset()
	h.use(t, 1000, 1063)
	if w := h.p.Window(); w != bound {
		t.Fatalf("window = %d with 8 empty frames, want a third of the pool: %d", w, bound)
	}

	// The pool fills: the rest of a window's worth evicts.
	h.frames = nil
	h.hint(t, 2000, 2099)
	if got := len(h.fetched()); got != bound {
		t.Fatalf("asked for %d pages, want the window %d", got, bound)
	}
	if out, _, _ := h.pool.Speculation(); out != bound || h.pool.Resident() != frames {
		t.Fatalf("outstanding %d, resident %d; want %d, %d", out, h.pool.Resident(), bound, frames)
	}
	h.frames = nil
	h.hint(t, 3000, 3010)
	if len(h.frames) != 0 {
		t.Fatalf("window full, yet asked for %v", h.frames)
	}
	// Using half the window is a round trip's worth.
	h.use(t, 2000, 2000+bound/2-1)
	h.hint(t, 3000, 3000)
	if got := h.fetched(); len(got) != bound/2 || got[0] != 2000+bound {
		t.Fatalf("refill fetched %v, want %d pages from %d", got, bound/2, 2000+bound)
	}
	if out, _, _ := h.pool.Speculation(); out != bound {
		t.Fatalf("outstanding %d, want %d", out, bound)
	}
}

func TestReadAheadWindowFollowsUseAndWaste(t *testing.T) {
	const w0, k = InitialWindow, InitialWindow / 2
	h := newHarness(1024)
	h.hint(t, 1, 200)
	if got := len(h.fetched()); got != w0 {
		t.Fatalf("first burst fetched %d pages, want the initial window %d", got, w0)
	}
	// The window is full: further hints wait.
	h.frames = nil
	h.hint(t, 300, 310)
	if len(h.frames) != 0 {
		t.Fatalf("window full, yet asked for %v", h.frames)
	}
	// Every use widens it by one and frees a frame of it.
	h.use(t, 1, k)
	if w := h.p.Window(); w != w0+k {
		t.Fatalf("window = %d after %d uses, want %d", w, k, w0+k)
	}
	h.hint(t, 400, 400)
	if got := len(h.fetched()); got != 2*k {
		t.Fatalf("refill fetched %d pages, want %d (%d freed + %d grown)", got, 2*k, k, k)
	}
	// The transaction ends with w0+k frames never used: they leave the pool
	// and the window shrinks by as many.
	h.pool.DropSpeculative()
	h.p.Reset()
	if w := h.p.Window(); w != 0 {
		t.Fatalf("window = %d after wasting all of it, want 0", w)
	}
	if h.pool.Resident() != k {
		t.Fatalf("resident = %d, want the %d pages that were used", h.pool.Resident(), k)
	}
	// A shut window asks for nothing...
	h.frames = nil
	h.hint(t, 500, 520)
	if len(h.frames) != 0 {
		t.Fatalf("window shut, yet asked for %v", h.frames)
	}
	// ...until a queued page turns out to be needed: the window opens by two,
	// and the two pages it has room for ride in the demand read.
	h.frames = nil
	if ahead := h.demand(t, 500); !slices.Equal(ahead, []disk.PageID{501, 502}) || h.p.Window() != 2 {
		t.Fatalf("demand of a queued page in a shut window: window %d, riders %v; want 2, [501 502]", h.p.Window(), ahead)
	}
}

// TestDemandReadWidensWindow: a demanded page that was queued widens the
// window by two (a right hint, used, and a miss the window caused); one never
// hinted is no evidence. Either way the riders are what the window has room
// for, oldest first, at most a frame's worth with the demanded page, and they
// count as pages issued but not as a round trip of their own.
func TestDemandReadWidensWindow(t *testing.T) {
	h := newHarness(1024)
	h.hint(t, 1, 100) // fetches 1..8, the initial window; 9..100 stay queued
	h.frames = nil
	if ahead := h.demand(t, 5000); len(ahead) != 0 || h.p.Window() != InitialWindow {
		t.Fatalf("unqueued demand: window %d, riders %v; want %d, none", h.p.Window(), ahead, InitialWindow)
	}
	if ahead := h.demand(t, 50); !slices.Equal(ahead, []disk.PageID{9, 10}) || h.p.Window() != InitialWindow+2 {
		t.Fatalf("queued demand: window %d, riders %v; want %d, [9 10]", h.p.Window(), ahead, InitialWindow+2)
	}
	if got := h.p.Pending(); got != 89 {
		t.Errorf("pending = %d, want 89 (92 queued, less the demanded page and two riders)", got)
	}
	if i, c := h.clock.Count(sim.CtrPrefetchIssued), h.clock.Count(sim.CtrPrefetchBatch); i != 10 || c != 1 {
		t.Errorf("issued %d in %d batches, want 10 in 1: riders are issued, their trip is the demand read's", i, c)
	}

	// A wide window fills one frame with the demanded page and MaxFrame-1 riders.
	g := newHarness(1024)
	g.widen(t, 2*MaxFrame)
	for pid := disk.PageID(1); pid <= 3*MaxFrame; pid++ {
		g.p.Enqueue(pid)
	}
	ahead := g.demand(t, 2)
	if len(ahead) != MaxFrame-1 || ahead[0] != 1 || ahead[1] != 3 || ahead[MaxFrame-2] != MaxFrame {
		t.Fatalf("riders %v, want %d pages from 1 to %d without 2", ahead, MaxFrame-1, MaxFrame)
	}
}

// TestDemandReadRidersIntoFullPool: a rider that finds no empty frame takes
// the replacement policy's victim, as a pumped page does, so riders into a
// full pool must be worth a round trip of their own: at least two, and every
// queued hint or half the window. With empty frames a lone rider goes.
func TestDemandReadRidersIntoFullPool(t *testing.T) {
	// setup puts 30 used pages in a pool of the given size, hints 1..20 and
	// uses one of the 8 pages the pump fetched: room for 2 of the 12 queued.
	setup := func(frames int) *harness {
		h := newHarness(frames)
		for pid := disk.PageID(1000); pid < 1030; pid++ {
			h.pool.Put(pid, func([]byte) error { return nil })
		}
		h.hint(t, 1, 20) // the initial window: 1..8
		h.use(t, 1, 1)
		return h
	}
	full := setup(30) // a window of 9, bounded by the pool to 10
	if full.pool.Empty() != 0 || full.p.Window() != InitialWindow+1 {
		t.Fatalf("pool has %d empty frames, window %d", full.pool.Empty(), full.p.Window())
	}
	if ahead := full.demand(t, 999); len(ahead) != 0 {
		t.Fatalf("2 riders of 12 queued, window %d, evicting: sent %v", full.p.Window(), ahead)
	}
	roomy := setup(64)
	if ahead := roomy.demand(t, 999); !slices.Equal(ahead, []disk.PageID{9, 10}) {
		t.Fatalf("riders into empty frames: %v, want [9 10]", ahead)
	}
	// Three more uses: a window of 10 (the pool's bound) with 4 outstanding
	// has room for 6, more than half of it: worth a trip, and sent.
	full.use(t, 2, 4)
	if ahead := full.demand(t, 998); len(ahead) != 6 || ahead[0] != 9 || full.p.Window() != 10 {
		t.Fatalf("window %d, riders %v: want 10 and 6 from 9", full.p.Window(), ahead)
	}
}

func TestReadAheadWaitsForARoundTripsWorth(t *testing.T) {
	h := newHarness(1024)
	h.widen(t, 32)
	h.hint(t, 1, 100) // fetches 1..32, 33..100 stay queued
	h.frames = nil
	// One frame freed at a time must not become one page fetched at a time:
	// after u uses the window is 32+u with 32-u outstanding, room for 2u.
	for pid := disk.PageID(1); pid <= 10; pid++ {
		h.use(t, pid, pid)
		h.hint(t, pid, pid) // a fault's pump with nothing new to hint
	}
	if len(h.frames) != 0 {
		t.Fatalf("window of %d refilled in dribbles: %v", h.p.Window(), h.frames)
	}
	h.use(t, 11, 11) // window 43, 21 outstanding, room 22 >= 43/2
	h.hint(t, 11, 11)
	if len(h.frames) != 1 || len(h.frames[0]) != 22 {
		t.Fatalf("refill = %v, want one frame of 22", h.frames)
	}
	// A lone hint is never worth a round trip of its own.
	g := newHarness(64)
	g.hint(t, 7, 7)
	if len(g.frames) != 0 {
		t.Fatalf("one hint went out alone: %v", g.frames)
	}
}

// TestReadAheadRehintsDroppedPage is the sticky-requested regression: a page
// whose image was dropped (or never fetched) for lack of room used to stay
// in a session-lifetime "requested" set, which only eviction cleared — and a
// page that was never resident is never evicted — so it was never hinted
// again. Nothing is remembered across pumps now but the queue itself.
func TestReadAheadRehintsDroppedPage(t *testing.T) {
	h := newHarness(8)
	for pid := disk.PageID(1); pid <= 8; pid++ {
		i, _ := h.pool.Put(pid, func([]byte) error { return nil })
		h.pool.Pin(i)
	}
	h.hint(t, 10, 11) // every frame pinned: asked for, and dropped
	if got := h.fetched(); len(got) != 2 || h.pool.Resident() != 8 {
		t.Fatalf("fetched %v; resident %d", got, h.pool.Resident())
	}
	if _, ok := h.pool.Lookup(10); ok {
		t.Fatal("page 10 displaced a pinned frame")
	}
	h.p.Reset() // the transaction ends
	for pid := disk.PageID(1); pid <= 8; pid++ {
		i, _ := h.pool.Lookup(pid)
		h.pool.Unpin(i)
	}
	h.frames = nil
	h.hint(t, 10, 11)
	if got := h.fetched(); len(got) != 2 {
		t.Fatalf("pages dropped once were not hinted again: fetched %v", got)
	}
	for _, pid := range []disk.PageID{10, 11} {
		if _, ok := h.pool.Lookup(pid); !ok {
			t.Fatalf("page %d not installed once there was room", pid)
		}
	}
}
