package buffer

import (
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
//   - Each frame is in one state: free, filling, resident or writing back.
//     The stripe index maps a page to its frame in every state but free,
//     and a missing page from the moment its loader claims it, so
//     concurrent loads of one page issue one disk read, and a page an
//     eviction is writing back keeps its bytes and its index entry until
//     the write-back lands.
//   - All I/O — demand loads and eviction write-backs — happens with no
//     stripe latch held. A caller that needs a page claimed, filling or
//     writing back waits on the stripe's condition variable and looks
//     again.
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

	// slab hands a frame its image as it first leaves free (slab.go). Its
	// lock is a leaf, taken under a stripe latch.
	slabMu sync.Mutex
	slab   slab

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
	mu     sync.Mutex
	frames []latchFrame
	index  map[disk.PageID]int // page → frame, or unframed
	hand   int
	// moved (locked by mu) is broadcast whenever a frame leaves filling or
	// writing back, a claim is dropped, or a writing-back frame's last pin
	// goes.
	moved sync.Cond
}

// unframed is the index entry of a page its loader has claimed but not yet
// framed: it may still be writing a victim back.
const unframed = -1

// frameState is where a frame is in its life. A frame leaves filling only
// by its loader's hand and writing back only by its evictor's.
type frameState uint8

const (
	frameFree        frameState = iota // holds no page
	frameFilling                       // its loader fills it with no latch held
	frameResident                      // holds its page; hits pin it
	frameWritingBack                   // an eviction is writing its dirty page back
)

type latchFrame struct {
	state      frameState
	page       disk.PageID
	data       []byte
	pin        int
	ref        bool
	dirty      bool
	dirtyEpoch uint64 // pool epoch at the clean→dirty transition
	content    sync.RWMutex
}

// maxReserveSpins bounds the retry loop when every frame in a stripe is
// transiently pinned. Pins in the server are held only across a page copy,
// so thousands of yields mean a real leak, not contention.
const maxReserveSpins = 100000

// NewLatchPool creates a pool of nframes 8K frames, which get their images
// as they first take pages. The stripe count is derived from the frame
// count: one latch per ~8 frames, capped at 64.
func NewLatchPool(nframes int) *LatchPool {
	nstripes := 1
	for nstripes*2 <= nframes/8 && nstripes*2 <= 64 {
		nstripes *= 2
	}
	p := &LatchPool{
		stripes: make([]latchStripe, nstripes),
		mask:    uint32(nstripes - 1),
		nframes: nframes,
		slab:    slab{limit: nframes},
	}
	for i := range p.stripes {
		n := nframes / nstripes
		if i < nframes%nstripes {
			n++
		}
		s := &p.stripes[i]
		s.frames = make([]latchFrame, n)
		s.index = make(map[disk.PageID]int, n)
		s.moved.L = &s.mu
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

// Allocated returns the number of frame images the pool has allocated, in
// whole slabs: its memory is Allocated × PageSize, the high-water mark of
// its resident pages rounded up to a slab, never more than Len.
func (p *LatchPool) Allocated() int {
	p.slabMu.Lock()
	defer p.slabMu.Unlock()
	return p.slab.allocated
}

// Stats reports hit/miss/eviction counts.
func (p *LatchPool) Stats() (hits, misses, evicted int64) {
	return p.hits.Load(), p.misses.Load(), p.evicted.Load()
}

// PageRef is a pinned reference to a resident page, handed out by value so
// a page access allocates nothing. The frame cannot be evicted or reused
// while the reference is held. Access the bytes through Read/Write (which
// take the frame's content latch) and call Release exactly once when done,
// on the variable Load filled, not on a copy.
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

// find returns the frame pid is indexed to once that frame is resident, or
// also writing back if writingBack is set, waiting out the other states;
// ok is false if pid is not indexed. Caller holds s.mu.
func (s *latchStripe) find(pid disk.PageID, writingBack bool) (i int, ok bool) {
	for {
		if i, ok = s.index[pid]; !ok {
			return 0, false
		}
		if i != unframed {
			if st := s.frames[i].state; st == frameResident || writingBack && st == frameWritingBack {
				return i, true
			}
		}
		s.moved.Wait()
	}
}

// Load returns a pinned reference to pid, calling load to fill a frame on
// a miss. loaded reports whether this call performed the load: a caller
// that rode another client's in-flight load of the same page gets
// loaded=false (its I/O was deduplicated), exactly like a hit. A page an
// eviction is writing back is waited for and then missed. If the load it
// rode fails, a caller loads the page itself with its own loader. The load
// callback and any eviction write-back run with no stripe latch held.
func (p *LatchPool) Load(pid disk.PageID, load func(buf []byte) error) (ref PageRef, loaded bool, err error) {
	s := p.stripe(pid)
	s.mu.Lock()
	if i, ok := s.find(pid, false); ok {
		f := &s.frames[i]
		f.ref = true
		f.pin++
		s.mu.Unlock()
		p.hits.Add(1)
		return PageRef{pool: p, s: s, idx: i, pid: pid}, false, nil
	}
	s.index[pid] = unframed
	s.mu.Unlock()

	idx, err := p.reserveFrame(s, pid)
	var f *latchFrame
	if err == nil {
		f = &s.frames[idx]
		err = load(f.data) // the frame is filling: nobody else touches its bytes
	}
	s.mu.Lock()
	if err != nil {
		delete(s.index, pid)
		if f != nil {
			f.state, f.pin = frameFree, 0
		}
	} else {
		f.state, f.ref = frameResident, true
	}
	s.moved.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return PageRef{}, true, err
	}
	p.misses.Add(1)
	p.resident.Add(1)
	return PageRef{pool: p, s: s, idx: idx, pid: pid}, true, nil
}

// reserveFrame frames pid, which the caller has claimed, and returns its
// frame filling and pinned once for the caller: an empty frame if there is
// one, else the stripe's clock victim. A dirty victim is written back with
// the stripe latch released, resident in every other way until the write
// lands; if the write fails the victim stays resident and dirty.
func (p *LatchPool) reserveFrame(s *latchStripe, pid disk.PageID) (int, error) {
	for spin := 0; ; spin++ {
		s.mu.Lock()
		victim := -1
		for i := range s.frames {
			if s.frames[i].state == frameFree {
				victim = i
				break
			}
		}
		n := len(s.frames)
		for scanned := 0; victim < 0 && scanned < 2*n; scanned++ {
			i := s.hand
			s.hand = (s.hand + 1) % n
			f := &s.frames[i]
			if f.state != frameResident || f.pin != 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			victim = i
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
		if f.state == frameResident {
			if f.dirty && p.FlushFn != nil {
				vpid := f.page
				f.state = frameWritingBack
				s.mu.Unlock()
				f.content.RLock()
				werr := p.FlushFn(vpid, f.data)
				f.content.RUnlock()
				s.mu.Lock()
				if werr != nil {
					f.state = frameResident
					s.moved.Broadcast()
					s.mu.Unlock()
					return 0, werr
				}
				for f.pin > 0 {
					s.moved.Wait() // a Snapshot is still copying the victim out
				}
			}
			delete(s.index, f.page)
			p.evicted.Add(1)
			p.resident.Add(-1)
		} else if f.data == nil {
			p.slabMu.Lock()
			f.data = p.slab.image()
			p.slabMu.Unlock()
		}
		f.state, f.page, f.pin, f.ref, f.dirty = frameFilling, pid, 1, false, false
		s.index[pid] = victim
		s.moved.Broadcast()
		s.mu.Unlock()
		return victim, nil
	}
}

// Snapshot copies pid's current image into dst (PageSize bytes) without
// touching the reference bit or the hit counters: the access discipline of
// snapshot reads, coherence validation and before-image capture, which are
// served from the pool when the page is resident but never perturb
// replacement state. A page an eviction is writing back is copied in place:
// its bytes are the newest until the write lands. A page being loaded is
// waited for; a miss means the volume holds the newest image.
func (p *LatchPool) Snapshot(pid disk.PageID, dst []byte) bool {
	s := p.stripe(pid)
	s.mu.Lock()
	i, ok := s.find(pid, true)
	if !ok {
		s.mu.Unlock()
		return false
	}
	f := &s.frames[i]
	f.pin++
	s.mu.Unlock()
	f.content.RLock()
	copy(dst, f.data)
	f.content.RUnlock()
	s.mu.Lock()
	if f.pin--; f.pin == 0 && f.state == frameWritingBack {
		s.moved.Broadcast() // its evictor waits to hand the frame on
	}
	s.mu.Unlock()
	return true
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
// means FlushBefore(e) has fully drained the pre-e generation. A frame an
// eviction is writing back stays dirty until its write lands.
func (p *LatchPool) DirtyBefore(e uint64) int {
	n := 0
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		for i := range s.frames {
			if f := &s.frames[i]; f.dirty && f.dirtyEpoch < e {
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
// Only resident frames are written. A frame an eviction is writing back is
// waited for and looked at again: the checkpoint may not finish before its
// pre-bound bytes are on the volume, and once they are the frame belongs
// to another page (or, if the write failed, is resident and dirty again).
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
			if !f.dirty || f.dirtyEpoch >= bound {
				continue
			}
			if f.state == frameWritingBack {
				s.moved.Wait()
				i--
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
// Pinned frames and frames with I/O in progress are skipped; callers drop
// caches only on quiesced servers, where neither exists.
func (p *LatchPool) DropAll() {
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if f.state != frameResident || f.pin != 0 {
				continue
			}
			delete(s.index, f.page)
			f.state = frameFree
			f.dirty = false
			f.ref = false
			p.resident.Add(-1)
		}
		s.mu.Unlock()
	}
}
