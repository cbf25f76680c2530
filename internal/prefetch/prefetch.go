// Package prefetch implements QuickStore's mapping-object read-ahead: the
// default fault path of core.Store.
//
// The oracle is free: every QuickStore page carries a mapping object — an
// array of <virtual range, disk OID> entries naming exactly the disk pages
// the page's pointers refer to — and the fault handler already walks it on
// every fault (Section 3.3 of the paper). Read-ahead turns that walk into
// one round trip: the referenced pages that are not resident are asked for
// in a single batched OpReadPages frame and land in the client pool as
// speculative, not-yet-used frames. The next fault on such a page is a
// buffer hit instead of a round trip of its own.
//
// Everything runs on the session's thread, inside the fault: a pump is a
// plain call and nothing is in flight between pumps. Hints the window has no
// room for yet wait in a bounded queue until the transaction ends.
//
// There is nothing to tune. How much is asked for follows from what the
// client pool shows:
//
//   - a speculative page takes an empty frame, or else the frame the pool's
//     replacement policy would have given the next miss (buffer.PutPrefetched:
//     never a pinned or dirty one, never another unused speculative frame).
//     A working set larger than the cache is read ahead too, in steady-state
//     replacement;
//   - never more speculative frames outstanding (installed, not yet used)
//     than a window that starts at InitialWindow, grows by one for every
//     speculative frame that is used and shrinks by one for every one that
//     is wasted — evicted unused, or still unused when its transaction ends,
//     at which point it leaves the pool. A queued page that the traversal
//     reaches first, and that is fetched on demand, widens the window by two
//     (see Demand): that costs no wire, so a window that waste has shut can
//     reopen. A traversal that uses what it is sent is soon sent everything
//     its mapping objects name; a sparse one wastes at most a window's worth
//     of wire. The window never exceeds MaxWindow, nor what the pool can
//     hold: its empty frames, or 1/PoolShare of its frames once fewer are
//     empty;
//   - no round trip that is not worth one (see Pump).
//
// A demand fetch carries read-ahead too: the queued hints the window has room
// for ride in the demanded page's own round trip, after it (Demand).
package prefetch

import (
	"slices"

	"quickstore/internal/buffer"
	"quickstore/internal/disk"
	"quickstore/internal/sim"
)

const (
	// MaxFrame caps the pages in one OpReadPages round trip (a response of
	// at most 256 KB, in a pooled buffer no connection keeps once the
	// frame is read), the demanded page of a demand read included; a pump
	// with more hints than that loops.
	MaxFrame = 32
	// InitialWindow is a new session's bound on outstanding speculative
	// frames; MaxWindow is as far as use can raise it.
	InitialWindow = 8
	MaxWindow     = 512
	// PoolShare bounds the window by the pool: once fewer than 1/PoolShare
	// of its frames are empty, at most that share may be speculative.
	PoolShare = 3
	// MaxQueue bounds the hints kept for when the window has room.
	MaxQueue = 512
)

// Prefetcher keeps the read-ahead hints of one transaction and fetches them.
// It is not synchronized: Enqueue, Pump and Reset run on the session's single
// application thread.
type Prefetcher struct {
	clock *sim.Clock
	pool  *buffer.Pool
	fetch func(pids []disk.PageID) error

	queue []disk.PageID // hints not yet fetched, oldest first
	frame []disk.PageID // the round trip being assembled

	window       int   // bound on outstanding speculative frames
	used, wasted int64 // pool verdicts already folded into window
}

// New builds the read-ahead of the session that owns pool. fetch performs one
// batched read and lands the images in pool as speculative frames
// (esm.Client.ReadAhead). A nil clock means events are not counted.
func New(clock *sim.Clock, pool *buffer.Pool, fetch func(pids []disk.PageID) error) *Prefetcher {
	if clock == nil {
		clock = sim.NewClock(sim.CostModel{})
	}
	// The queue and the round trip under assembly are sized for their bounds
	// once, so a fresh session does not regrow them on its fault path.
	return &Prefetcher{clock: clock, pool: pool, fetch: fetch, window: InitialWindow,
		queue: make([]disk.PageID, 0, MaxQueue), frame: make([]disk.PageID, 0, MaxFrame)}
}

// Window returns the current bound on outstanding speculative frames.
func (p *Prefetcher) Window() int {
	p.room()
	return p.window
}

// room folds the pool's verdicts since the last look into the window, bounds
// it by what the pool can hold, and returns how many pages may be asked for
// now.
func (p *Prefetcher) room() int {
	outstanding, used, wasted := p.pool.Speculation()
	limit := min(MaxWindow, max(p.pool.Len()/PoolShare, p.pool.Empty()))
	p.window += int((used - p.used) - (wasted - p.wasted))
	p.window = min(max(p.window, 0), limit)
	p.used, p.wasted = used, wasted
	return max(p.window-outstanding, 0)
}

// Enqueue records a read-ahead hint for pid. Hints for resident pages and
// for pages already queued are ignored; a full queue forgets its oldest hint.
// A pool with no empty frame takes hints too: each page fetched then takes
// the replacement policy's victim (buffer.PutPrefetched).
func (p *Prefetcher) Enqueue(pid disk.PageID) {
	if pid == disk.InvalidPage {
		return
	}
	if _, resident := p.pool.Lookup(pid); resident || slices.Contains(p.queue, pid) {
		return
	}
	if len(p.queue) == MaxQueue {
		p.queue = p.queue[:copy(p.queue, p.queue[1:])]
	}
	p.queue = append(p.queue, pid)
}

// Demand tells the read-ahead that pid is about to be fetched on demand and
// returns the queued hints that ride along in the same round trip, after pid
// (the slice is the Prefetcher's and valid until its next call). If pid was
// queued, the window grows by two: the hint was right and is used, as a used
// speculative frame counts, and the window held it back, so the miss is the
// window's. That is also how a window that waste has shut reopens without
// costing a page. Riders obey the window, and the pool's room as every
// speculative page does; when some would take a victim instead of an empty
// frame, they must also be worth a round trip of their own (see Pump).
func (p *Prefetcher) Demand(pid disk.PageID) []disk.PageID {
	if i := slices.Index(p.queue, pid); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
		p.window = min(p.window+2, MaxWindow)
	}
	n := min(p.room(), len(p.queue))
	// pid itself takes one of the empty frames.
	if n == 0 || (n >= p.pool.Empty() && !p.worth(n)) {
		return nil
	}
	p.dequeue(p.fill(0, min(n, MaxFrame-1)))
	p.clock.Charge(sim.CtrPrefetchIssued, int64(len(p.frame)))
	return p.frame
}

// Pending reports the number of queued, not-yet-fetched hints.
func (p *Prefetcher) Pending() int { return len(p.queue) }

// Reset forgets the queued hints; they do not outlive their transaction.
func (p *Prefetcher) Reset() { p.queue = p.queue[:0] }

// Pump fetches queued hints, oldest first, as far as the window has room: one
// round trip for up to MaxFrame of them, more only beyond that. It waits
// until a round trip is worth making (worth).
func (p *Prefetcher) Pump() error {
	budget := p.room()
	if !p.worth(min(budget, len(p.queue))) {
		return nil
	}
	var err error
	next := 0 // queue[:next] has been asked for or found resident
	for err == nil && budget > 0 && next < len(p.queue) {
		next = p.fill(next, min(budget, MaxFrame))
		if len(p.frame) == 0 {
			break
		}
		budget -= len(p.frame)
		p.clock.Charge(sim.CtrPrefetchIssued, int64(len(p.frame)))
		p.clock.Charge(sim.CtrPrefetchBatch, 1)
		err = p.fetch(p.frame)
	}
	p.dequeue(next)
	return err
}

// worth reports whether n of the queued hints are worth a round trip: one
// that carries a single page saves nothing, and a window freed one frame at a
// time is not to be refilled one page at a time, so n must be every queued
// hint or half the window.
func (p *Prefetcher) worth(n int) bool {
	return n >= 2 && (n == len(p.queue) || n >= p.window/2)
}

// fill makes frame the first up to limit queued hints from queue[next] on
// that are not resident, and returns the index past the last one it looked at.
func (p *Prefetcher) fill(next, limit int) int {
	p.frame = p.frame[:0]
	for ; len(p.frame) < limit && next < len(p.queue); next++ {
		if _, resident := p.pool.Lookup(p.queue[next]); !resident {
			p.frame = append(p.frame, p.queue[next])
		}
	}
	return next
}

// dequeue forgets queue[:next].
func (p *Prefetcher) dequeue(next int) {
	p.queue = p.queue[:copy(p.queue, p.queue[next:])]
}
