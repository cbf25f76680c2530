package buffer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"quickstore/internal/disk"
)

// LatchPool is the internally synchronized buffer pool used by the page
// server. Where Pool belongs to one single-threaded session, a LatchPool is
// shared by every client connection the server handles concurrently:
//
//   - Frames are partitioned into stripes (page id modulo stripe count),
//     each guarded by its own latch, so lookups and hits on different
//     stripes never contend.
//   - Each frame carries a pin count (guarded by the stripe latch) and a
//     content latch (an RWMutex over the page bytes), so readers copying a
//     page out overlap each other and exclude only writers.
//   - All I/O — demand loads and eviction write-backs — happens with no
//     stripe latch held. A per-page in-flight table dedups concurrent
//     loads (two clients faulting the same page issue one disk read) and
//     makes loads of an evicting page wait for its write-back, so the
//     reload cannot read the stale disk image.
//
// Lock order within the pool: stripe latch → frame content latch. FlushFn
// runs with only a content read latch held, so it may take the WAL and
// volume locks (the server's steal path does) but must never re-enter the
// pool.
type LatchPool struct {
	stripes []latchStripe
	mask    uint32 // len(stripes) - 1; stripe count is a power of two
	nframes int

	// FlushFn, if set, writes back a dirty page before its frame is reused
	// (and during FlushAll). Set it before the pool is shared.
	FlushFn func(pid disk.PageID, data []byte) error

	// evictionWait, if set, is called as a flush starts to wait out an
	// eviction's write-back of pid; tests order against it.
	evictionWait func(pid disk.PageID)

	// epoch is the fuzzy-checkpoint clock: every clean→dirty transition
	// stamps the frame with the current value, and AdvanceEpoch starts a
	// new generation so a checkpoint can flush exactly the pages dirtied
	// before its cut while writers keep dirtying pages behind it.
	epoch atomic.Uint64

	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
	resident atomic.Int64
}

type latchStripe struct {
	mu       sync.Mutex
	frames   []latchFrame
	index    map[disk.PageID]int
	hand     int
	inflight map[disk.PageID]*inflight
}

type latchFrame struct {
	page       disk.PageID
	data       []byte
	pin        int
	ref        bool
	dirty      bool
	dirtyEpoch uint64 // pool epoch at the clean→dirty transition
	content    sync.RWMutex
}

// inflight marks a page with I/O in progress: a demand load filling a
// frame, or an eviction writing one back. Waiters block on done, then
// re-examine the stripe. err is written before done is released. The
// completion signal is a WaitGroup inside the struct rather than a channel
// beside it: every miss and every eviction makes one of these.
type inflight struct {
	done sync.WaitGroup
	err  error
	load bool // a demand load (waiters may adopt err); else an eviction
}

func newInflight(load bool) *inflight {
	fl := &inflight{load: load}
	fl.done.Add(1)
	return fl
}

// maxReserveSpins bounds the retry loop when every frame in a stripe is
// transiently pinned. Pins in the server are held only across a page copy,
// so thousands of yields mean a real leak, not contention.
const maxReserveSpins = 100000

// NewLatchPool creates a pool of nframes 8K frames. The stripe count is
// derived from the frame count: one latch per ~8 frames, capped at 64.
func NewLatchPool(nframes int) *LatchPool {
	nstripes := 1
	for nstripes*2 <= nframes/8 && nstripes*2 <= 64 {
		nstripes *= 2
	}
	p := &LatchPool{
		stripes: make([]latchStripe, nstripes),
		mask:    uint32(nstripes - 1),
		nframes: nframes,
	}
	backing := make([]byte, nframes*disk.PageSize)
	next := 0
	for i := range p.stripes {
		n := nframes / nstripes
		if i < nframes%nstripes {
			n++
		}
		s := &p.stripes[i]
		s.frames = make([]latchFrame, n)
		s.index = make(map[disk.PageID]int, n)
		s.inflight = map[disk.PageID]*inflight{}
		for j := range s.frames {
			s.frames[j].data = backing[next*disk.PageSize : (next+1)*disk.PageSize : (next+1)*disk.PageSize]
			next++
		}
	}
	return p
}

func (p *LatchPool) stripe(pid disk.PageID) *latchStripe {
	return &p.stripes[uint32(pid)&p.mask]
}

// Len returns the number of frames in the pool.
func (p *LatchPool) Len() int { return p.nframes }

// Stripes returns the stripe count (tests and stats).
func (p *LatchPool) Stripes() int { return len(p.stripes) }

// Resident returns the number of pages currently cached.
func (p *LatchPool) Resident() int { return int(p.resident.Load()) }

// Stats reports hit/miss/eviction counts.
func (p *LatchPool) Stats() (hits, misses, evicted int64) {
	return p.hits.Load(), p.misses.Load(), p.evicted.Load()
}

// PageRef is a pinned reference to a resident page, handed out by value so
// a page access allocates nothing. The frame cannot be evicted or reused
// while the reference is held. Access the bytes through Read/Write (which
// take the frame's content latch) and call Release exactly once when done,
// on the variable Load or Get filled, not on a copy.
type PageRef struct {
	pool *LatchPool
	s    *latchStripe
	idx  int
	pid  disk.PageID
}

// Page returns the page id the reference pins.
func (r *PageRef) Page() disk.PageID { return r.pid }

// Read calls fn with the page bytes under the frame's shared content
// latch. fn must not retain the slice or re-enter the pool.
func (r *PageRef) Read(fn func(data []byte)) {
	f := &r.s.frames[r.idx]
	f.content.RLock()
	fn(f.data)
	f.content.RUnlock()
}

// Write calls fn with the page bytes under the frame's exclusive content
// latch. It does not mark the frame dirty; call MarkDirty if fn modified
// the page. fn must not retain the slice or re-enter the pool.
func (r *PageRef) Write(fn func(data []byte)) {
	f := &r.s.frames[r.idx]
	f.content.Lock()
	fn(f.data)
	f.content.Unlock()
}

// MarkDirty flags the pinned frame as modified. Only the clean→dirty
// transition stamps the epoch: a frame already dirty keeps its older stamp,
// because its bytes still include changes from that older generation.
func (r *PageRef) MarkDirty() {
	r.s.mu.Lock()
	f := &r.s.frames[r.idx]
	if !f.dirty {
		f.dirty = true
		f.dirtyEpoch = r.pool.epoch.Load()
	}
	r.s.mu.Unlock()
}

// Release drops the pin. The reference must not be used afterwards.
func (r *PageRef) Release() {
	if r.pool == nil {
		panic("buffer: double release of page reference")
	}
	r.s.mu.Lock()
	f := &r.s.frames[r.idx]
	if f.pin <= 0 {
		r.s.mu.Unlock()
		panic("buffer: release of unpinned frame")
	}
	f.pin--
	r.s.mu.Unlock()
	r.pool = nil
}

// Get returns a pinned reference to pid if resident, setting the reference
// bit. It does not wait for in-flight loads; use Load for read-through.
func (p *LatchPool) Get(pid disk.PageID) (PageRef, bool) {
	s := p.stripe(pid)
	s.mu.Lock()
	i, ok := s.index[pid]
	if !ok {
		s.mu.Unlock()
		return PageRef{}, false
	}
	f := &s.frames[i]
	f.ref = true
	f.pin++
	s.mu.Unlock()
	p.hits.Add(1)
	return PageRef{pool: p, s: s, idx: i, pid: pid}, true
}

// Load returns a pinned reference to pid, calling load to fill a frame on
// a miss. loaded reports whether this call performed the load: a caller
// that rode another client's in-flight load of the same page gets
// loaded=false (its I/O was deduplicated), exactly like a hit. The load
// callback and any eviction write-back run with no stripe latch held.
func (p *LatchPool) Load(pid disk.PageID, load func(buf []byte) error) (ref PageRef, loaded bool, err error) {
	s := p.stripe(pid)
	for {
		s.mu.Lock()
		if i, ok := s.index[pid]; ok {
			f := &s.frames[i]
			f.ref = true
			f.pin++
			s.mu.Unlock()
			p.hits.Add(1)
			return PageRef{pool: p, s: s, idx: i, pid: pid}, false, nil
		}
		if fl := s.inflight[pid]; fl != nil {
			isLoad := fl.load
			s.mu.Unlock()
			fl.done.Wait()
			if isLoad && fl.err != nil {
				// The load we were riding failed; adopt its error, as if
				// our own read had failed.
				return PageRef{}, false, fl.err
			}
			continue
		}
		fl := newInflight(true)
		s.inflight[pid] = fl
		s.mu.Unlock()

		idx, rerr := p.reserveFrame(s)
		if rerr == nil {
			f := &s.frames[idx]
			rerr = load(f.data) // frame is reserved: no latch needed for the fill
			if rerr != nil {
				s.mu.Lock()
				f.pin-- // release the reservation
				delete(s.inflight, pid)
				s.mu.Unlock()
			} else {
				s.mu.Lock()
				f.page = pid
				f.dirty = false
				f.ref = true
				s.index[pid] = idx
				delete(s.inflight, pid)
				s.mu.Unlock()
				p.misses.Add(1)
				p.resident.Add(1)
			}
		} else {
			s.mu.Lock()
			delete(s.inflight, pid)
			s.mu.Unlock()
		}
		fl.err = rerr
		fl.done.Done()
		if rerr != nil {
			return PageRef{}, true, rerr
		}
		return PageRef{pool: p, s: s, idx: idx, pid: pid}, true, nil
	}
}

// reserveFrame returns a free frame in s, pinned (pin=1) so no concurrent
// loader can claim it: an empty frame if there is one, else the stripe's
// clock victim. Dirty victims are written back with the stripe latch
// released; an in-flight entry makes concurrent loads of the victim page
// wait for the write-back before rereading it from the volume.
func (p *LatchPool) reserveFrame(s *latchStripe) (int, error) {
	for spin := 0; ; spin++ {
		s.mu.Lock()
		victim := -1
		for i := range s.frames {
			f := &s.frames[i]
			if f.page == disk.InvalidPage && f.pin == 0 {
				f.pin = 1
				s.mu.Unlock()
				return i, nil
			}
		}
		n := len(s.frames)
		for scanned := 0; scanned < 2*n; scanned++ {
			i := s.hand
			s.hand = (s.hand + 1) % n
			f := &s.frames[i]
			if f.pin != 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			victim = i
			break
		}
		if victim < 0 {
			s.mu.Unlock()
			if spin >= maxReserveSpins {
				return 0, ErrNoVictim
			}
			runtime.Gosched()
			continue
		}
		f := &s.frames[victim]
		vpid := f.page
		dirty := f.dirty
		f.pin = 1
		delete(s.index, vpid)
		fl := newInflight(false)
		s.inflight[vpid] = fl
		s.mu.Unlock()

		var werr error
		if dirty && p.FlushFn != nil {
			f.content.RLock()
			werr = p.FlushFn(vpid, f.data)
			f.content.RUnlock()
		}
		s.mu.Lock()
		delete(s.inflight, vpid)
		if werr != nil {
			// The write-back failed: the page stays resident and dirty.
			s.index[vpid] = victim
			f.pin = 0
			s.mu.Unlock()
			fl.done.Done()
			return 0, werr
		}
		f.page = disk.InvalidPage
		f.dirty = false
		f.ref = false
		s.mu.Unlock()
		p.evicted.Add(1)
		p.resident.Add(-1)
		fl.done.Done()
		return victim, nil
	}
}

// Snapshot copies pid's current image into dst (PageSize bytes) without
// touching the reference bit or the hit counters: the access discipline of
// snapshot reads, coherence validation and before-image capture, which are
// served from the pool when the page is resident but never perturb
// replacement state. A miss means the volume holds the newest image, so it
// waits out I/O in flight on pid first: a page being written back by an
// eviction is in neither the index nor, yet, the volume.
func (p *LatchPool) Snapshot(pid disk.PageID, dst []byte) bool {
	s := p.stripe(pid)
	for {
		s.mu.Lock()
		if i, ok := s.index[pid]; ok {
			f := &s.frames[i]
			f.pin++
			s.mu.Unlock()
			f.content.RLock()
			copy(dst, f.data)
			f.content.RUnlock()
			s.mu.Lock()
			f.pin--
			s.mu.Unlock()
			return true
		}
		fl := s.inflight[pid]
		s.mu.Unlock()
		if fl == nil {
			return false
		}
		fl.done.Wait()
	}
}

// Evict removes pid from the pool if resident and unpinned, writing it
// back first when dirty. It reports whether the page was evicted.
func (p *LatchPool) Evict(pid disk.PageID) (bool, error) {
	s := p.stripe(pid)
	s.mu.Lock()
	i, ok := s.index[pid]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	f := &s.frames[i]
	if f.pin != 0 {
		s.mu.Unlock()
		return false, fmt.Errorf("buffer: evicting pinned page %d", pid)
	}
	dirty := f.dirty
	f.pin = 1
	delete(s.index, pid)
	fl := newInflight(false)
	s.inflight[pid] = fl
	s.mu.Unlock()

	var werr error
	if dirty && p.FlushFn != nil {
		f.content.RLock()
		werr = p.FlushFn(pid, f.data)
		f.content.RUnlock()
	}
	s.mu.Lock()
	delete(s.inflight, pid)
	if werr != nil {
		s.index[pid] = i
		f.pin = 0
		s.mu.Unlock()
		fl.done.Done()
		return false, werr
	}
	f.page = disk.InvalidPage
	f.dirty = false
	f.ref = false
	f.pin = 0
	s.mu.Unlock()
	p.evicted.Add(1)
	p.resident.Add(-1)
	fl.done.Done()
	return true, nil
}

// FlushAll writes back every dirty page without evicting. Dirty flags are
// cleared before each write-back, so a page re-dirtied concurrently stays
// dirty; the flushed image excludes writes that arrive after its content
// latch is taken (a checkpoint never promised to cover them).
func (p *LatchPool) FlushAll() error {
	return p.flushBounded(^uint64(0))
}

// AdvanceEpoch starts a new dirty generation and returns its number e:
// every frame dirtied before the call carries a stamp < e, every frame
// dirtied after it stamps e (or later). A MarkDirty racing the advance may
// land in the old generation — harmless, FlushBefore then covers it too.
func (p *LatchPool) AdvanceEpoch() uint64 {
	return p.epoch.Add(1)
}

// FlushBefore writes back exactly the dirty frames stamped below epoch e,
// leaving frames dirtied in generation e and later alone. This is the
// fuzzy checkpoint's page walk: it drains the pre-cut generation while
// writers keep dirtying pages — whose records lie beyond the checkpoint's
// log cut — behind it. Like FlushAll it never displaces a frame.
func (p *LatchPool) FlushBefore(e uint64) error {
	return p.flushBounded(e)
}

// DirtyBefore counts frames still dirty from a generation below e; zero
// means FlushBefore(e) has fully drained the pre-e generation.
func (p *LatchPool) DirtyBefore(e uint64) int {
	n := 0
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if f.page != disk.InvalidPage && f.dirty && f.dirtyEpoch < e {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// flushBounded writes back dirty frames stamped below bound. A write-back
// failure restores the dirty flag with the OLDER stamp: if a writer
// re-dirtied the frame mid-flush its new stamp must not hide the fact that
// pre-bound bytes never reached the volume.
//
// A frame an eviction is writing back (its page already out of the index)
// is waited for, not written: the moment that write-back ends the frame is
// its new page's, and the fill of that page takes no content latch, so a
// second write of the victim from this frame could carry the new page's
// bytes to the victim's place on the volume.
func (p *LatchPool) flushBounded(bound uint64) error {
	if p.FlushFn == nil {
		for si := range p.stripes {
			s := &p.stripes[si]
			s.mu.Lock()
			for i := range s.frames {
				if f := &s.frames[i]; f.dirty && f.dirtyEpoch < bound {
					f.dirty = false
				}
			}
			s.mu.Unlock()
		}
		return nil
	}
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		for i := 0; i < len(s.frames); i++ {
			f := &s.frames[i]
			if f.page == disk.InvalidPage || !f.dirty || f.dirtyEpoch >= bound {
				continue
			}
			if j, ok := s.index[f.page]; !ok || j != i {
				if fl := s.inflight[f.page]; fl != nil {
					pid := f.page
					s.mu.Unlock()
					if p.evictionWait != nil {
						p.evictionWait(pid)
					}
					fl.done.Wait()
					s.mu.Lock()
					i-- // look at the frame again: written back, or restored
				}
				continue
			}
			pid := f.page
			saved := f.dirtyEpoch
			f.dirty = false
			f.pin++
			s.mu.Unlock()
			f.content.RLock()
			err := p.FlushFn(pid, f.data)
			f.content.RUnlock()
			s.mu.Lock()
			f.pin--
			if err != nil {
				if !f.dirty || f.dirtyEpoch > saved {
					f.dirtyEpoch = saved
				}
				f.dirty = true
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// DropAll empties the pool without flushing (used to make caches cold).
// Pinned frames and pages with I/O in flight are skipped; callers drop
// caches only on quiesced servers, where neither exists.
func (p *LatchPool) DropAll() {
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if f.page == disk.InvalidPage || f.pin != 0 {
				continue
			}
			delete(s.index, f.page)
			f.page = disk.InvalidPage
			f.dirty = false
			f.ref = false
			p.resident.Add(-1)
		}
		s.mu.Unlock()
	}
}
