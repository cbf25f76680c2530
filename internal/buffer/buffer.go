// Package buffer implements the fixed-size page buffer pools used at both
// the client and the server. Replacement policy is pluggable: the server
// and the E system use the traditional clock algorithm (reference bit per
// frame), while QuickStore installs its simplified clock from Section 3.5,
// which consults virtual-memory protections instead of reference bits.
package buffer

import (
	"errors"
	"fmt"

	"quickstore/internal/disk"
)

// Errors returned by the pool.
var (
	ErrNoVictim  = errors.New("buffer: all frames pinned, no victim available")
	ErrNotCached = errors.New("buffer: page not resident")
)

// Frame is one buffer-pool slot. Data is the frame's page image, nil until
// the frame first takes a page and its own from then on; it remains valid
// while the page stays resident.
type Frame struct {
	Page  disk.PageID // InvalidPage when the frame is empty
	Data  []byte
	Pin   int
	Dirty bool
	Ref   bool // reference bit for the traditional clock policy
	// Prefetched marks a speculative frame installed by read-ahead
	// (internal/prefetch) that no caller has used yet. The flag is cleared on
	// first real use (ConsumePrefetched); a frame evicted or dropped with the
	// flag still set was a wasted read.
	Prefetched bool
	// LSN is the coherence token the server vended with this page image
	// (the LSN of the commit that produced it). Zero means unversioned:
	// the frame always revalidates as a full read. Maintained by the ESM
	// client; the pool only clears it on install/evict.
	LSN uint64
	// Stale marks a frame Begin validation found out of date but could not
	// repair in place because it was pinned. The next access must
	// revalidate against the server before trusting the bytes.
	Stale bool
	// Unlogged marks a frame some caller changed without declaring the
	// change WAL-logged (MarkDirty sets it, MarkDirtyLogged leaves it
	// alone). It is sticky until the frame is cleaned or leaves the pool.
	// The ESM client ships an Unlogged dirty frame to the server whole; a
	// dirty frame without the mark is rebuilt by the server from the log
	// records alone and never sent.
	Unlogged bool
}

// Policy selects a victim frame for replacement. It may assume the pool's
// lock is held by the caller.
type Policy interface {
	// Victim returns the index of a replaceable (unpinned) frame.
	Victim(p *Pool) (int, error)
}

// Pool is a page buffer pool. It is not internally synchronized: each pool
// belongs to exactly one client or server session, whose own lock (or the
// single-threaded transaction model) serializes access.
type Pool struct {
	frames  []Frame
	index   map[disk.PageID]int
	policy  Policy
	Hand    int // clock hand, exported for policies
	hits    int64
	misses  int64
	evicted int64

	// Occupancy, kept so that finding room is a field read instead of a scan
	// of every frame: empty counts frames holding no page, and no frame below
	// lowEmpty is empty. spec counts frames whose Prefetched flag is set;
	// specUsed and specWasted are the verdicts such frames have received.
	empty, lowEmpty      int
	spec                 int
	specUsed, specWasted int64

	slab slab // frame images, handed out by firstEmpty

	// FlushFn, if set, is called to write back a dirty page before its
	// frame is reused.
	FlushFn func(pid disk.PageID, data []byte) error
	// OnEvict, if set, is called after a page leaves the pool (clean or
	// flushed). QuickStore uses it to revoke virtual-memory mappings.
	OnEvict func(pid disk.PageID, frame int)
	// OnPrefetchDrop, if set, is called when a frame leaves the pool with
	// its Prefetched flag still set — a speculative read that was never
	// used. The ESM client hooks it to count wasted prefetches.
	OnPrefetchDrop func(pid disk.PageID)
}

// New creates a pool of nframes 8K frames with the given policy
// (nil selects the traditional clock). The frames get their images as they
// first take pages (slab.go).
func New(nframes int, policy Policy) *Pool {
	if policy == nil {
		policy = Clock{}
	}
	return &Pool{
		frames: make([]Frame, nframes),
		index:  make(map[disk.PageID]int, nframes),
		policy: policy,
		empty:  nframes,
		slab:   slab{limit: nframes},
	}
}

// Len returns the number of frames in the pool.
func (p *Pool) Len() int { return len(p.frames) }

// SetPolicy replaces the replacement policy (QuickStore installs its
// simplified clock after the session is built).
func (p *Pool) SetPolicy(policy Policy) { p.policy = policy }

// Frame returns the frame at index i.
func (p *Pool) Frame(i int) *Frame { return &p.frames[i] }

// Lookup returns the frame index of pid if resident. It does not touch the
// reference bit.
func (p *Pool) Lookup(pid disk.PageID) (int, bool) {
	i, ok := p.index[pid]
	return i, ok
}

// Get returns the frame index of pid if resident, setting the reference bit
// (a logical access for the clock policy).
func (p *Pool) Get(pid disk.PageID) (int, bool) {
	i, ok := p.index[pid]
	if ok {
		p.frames[i].Ref = true
		p.hits++
	}
	return i, ok
}

// Put installs page pid in the pool, evicting a victim if needed, and fills
// the frame via load. It returns the frame index. If the page is already
// resident, load is not called.
func (p *Pool) Put(pid disk.PageID, load func(buf []byte) error) (int, error) {
	if i, ok := p.Get(pid); ok {
		return i, nil
	}
	p.misses++
	i, err := p.freeFrame()
	if err != nil {
		return 0, err
	}
	if err := load(p.frames[i].Data); err != nil {
		return 0, err
	}
	p.occupy(i, pid)
	p.frames[i].Ref = true
	return i, nil
}

// Empty returns the number of frames holding no page.
func (p *Pool) Empty() int { return p.empty }

// Speculation reports the speculative frames outstanding (installed by
// PutPrefetched, not yet used) and how many have so far been used and wasted.
func (p *Pool) Speculation() (outstanding int, used, wasted int64) {
	return p.spec, p.specUsed, p.specWasted
}

// occupy makes the empty frame i hold pid, clean and unreferenced.
func (p *Pool) occupy(i int, pid disk.PageID) {
	p.frames[i] = Frame{Page: pid, Data: p.frames[i].Data}
	p.index[pid] = i
	p.empty--
}

// vacate empties frame i and tells the hooks its page has left the pool.
func (p *Pool) vacate(i int) {
	f := &p.frames[i]
	pid, wasted := f.Page, f.Prefetched
	delete(p.index, pid)
	*f = Frame{Page: disk.InvalidPage, Data: f.Data}
	p.empty++
	if i < p.lowEmpty {
		p.lowEmpty = i
	}
	if wasted {
		p.spec--
		p.specWasted++
		if p.OnPrefetchDrop != nil {
			p.OnPrefetchDrop(pid)
		}
	}
	if p.OnEvict != nil {
		p.OnEvict(pid, i)
	}
}

// PutPrefetched installs a speculative page image read ahead of any use,
// which fill writes into the frame's image, as Put's loader does. It takes
// an empty frame if there is one; in a full pool it takes the frame the
// replacement policy would have given the next miss anyway. Speculation
// never steals and never cannibalises itself: when there is no victim, or
// it is pinned, dirty or an unused speculative frame, the image is dropped
// instead (ok=false) and fill is not called, as it is not when the page is
// already resident. The frame is installed with the reference bit clear and
// Prefetched set; when fill fails it stays empty and the error is returned.
func (p *Pool) PutPrefetched(pid disk.PageID, fill func(buf []byte) error) (idx int, ok bool, err error) {
	if _, resident := p.index[pid]; resident {
		return 0, false, nil
	}
	var i int
	if p.empty > 0 {
		i = p.firstEmpty()
	} else {
		v, err := p.policy.Victim(p)
		if err != nil {
			return 0, false, nil
		}
		if f := &p.frames[v]; f.Pin != 0 || f.Dirty || f.Prefetched {
			return 0, false, nil
		}
		p.evicted++
		p.vacate(v)
		i = v
	}
	if err := fill(p.frames[i].Data); err != nil {
		return 0, false, err
	}
	p.occupy(i, pid)
	p.frames[i].Prefetched = true
	p.spec++
	return i, true, nil
}

// ConsumePrefetched clears frame i's Prefetched flag, reporting whether it
// was set — i.e. whether this access is the first real use of a
// speculative frame.
func (p *Pool) ConsumePrefetched(i int) bool {
	f := &p.frames[i]
	if !f.Prefetched {
		return false
	}
	f.Prefetched = false
	p.spec--
	p.specUsed++
	return true
}

// DropSpeculative evicts every speculative frame that was never used (they
// are clean, and pinned ones stay), so that read-ahead that did not pay off
// leaves no trace in the pool.
func (p *Pool) DropSpeculative() {
	for i := 0; p.spec > 0 && i < len(p.frames); i++ {
		if f := &p.frames[i]; f.Prefetched && f.Pin == 0 {
			p.evicted++
			p.vacate(i)
		}
	}
}

// firstEmpty returns the lowest-numbered empty frame, giving it an image if
// it never had one; p.empty must be > 0.
func (p *Pool) firstEmpty() int {
	for p.frames[p.lowEmpty].Page != disk.InvalidPage {
		p.lowEmpty++
	}
	if f := &p.frames[p.lowEmpty]; f.Data == nil {
		f.Data = p.slab.image()
	}
	return p.lowEmpty
}

// freeFrame returns an empty frame, evicting the policy's victim if there is
// none. An unused speculative frame gets no special treatment: it is the
// policy's to judge like any other page, so demand misses do not evict the
// read-ahead a traversal is about to use.
func (p *Pool) freeFrame() (int, error) {
	if p.empty > 0 {
		return p.firstEmpty(), nil
	}
	i, err := p.policy.Victim(p)
	if err != nil {
		return 0, err
	}
	if err := p.Evict(i); err != nil {
		return 0, err
	}
	return i, nil
}

// Evict removes the page in frame i from the pool, flushing it first if
// dirty. The frame must be unpinned.
func (p *Pool) Evict(i int) error {
	f := &p.frames[i]
	if f.Page == disk.InvalidPage {
		return nil
	}
	if f.Pin != 0 {
		return fmt.Errorf("buffer: evicting pinned page %d", f.Page)
	}
	if f.Dirty && p.FlushFn != nil {
		if err := p.FlushFn(f.Page, f.Data); err != nil {
			return err
		}
	}
	p.evicted++
	p.vacate(i)
	return nil
}

// Pin increments the pin count of frame i.
func (p *Pool) Pin(i int) { p.frames[i].Pin++ }

// Unpin decrements the pin count of frame i.
func (p *Pool) Unpin(i int) {
	if p.frames[i].Pin <= 0 {
		panic("buffer: unpin of unpinned frame")
	}
	p.frames[i].Pin--
}

// MarkDirty flags frame i as modified by a change the caller does not vouch
// for as logged: the conservative default, under which the frame ships whole.
func (p *Pool) MarkDirty(i int) {
	p.frames[i].Dirty = true
	p.frames[i].Unlogged = true
}

// MarkDirtyLogged flags frame i as modified by a change whose every byte the
// caller covers with a log record (LogUpdate) before the transaction commits
// or the frame is stolen. Only such callers may use it: a byte changed under
// this call and never logged is lost, because the frame itself is not shipped.
func (p *Pool) MarkDirtyLogged(i int) { p.frames[i].Dirty = true }

// FlushAll writes back every dirty page (without evicting). Used at commit
// and checkpoint.
func (p *Pool) FlushAll() error {
	for i := range p.frames {
		f := &p.frames[i]
		if f.Page != disk.InvalidPage && f.Dirty {
			if p.FlushFn != nil {
				if err := p.FlushFn(f.Page, f.Data); err != nil {
					return err
				}
			}
			f.Dirty = false
			f.Unlogged = false
		}
	}
	return nil
}

// DropAll empties the pool without flushing (used to make caches cold).
func (p *Pool) DropAll() {
	for i := range p.frames {
		if p.frames[i].Page != disk.InvalidPage {
			p.vacate(i)
		}
	}
}

// Resident returns the number of pages currently cached.
func (p *Pool) Resident() int { return len(p.index) }

// Stats reports hit/miss/eviction counts.
func (p *Pool) Stats() (hits, misses, evicted int64) { return p.hits, p.misses, p.evicted }

// Clock is the traditional clock replacement policy: sweep frames, skip
// pinned ones, clear set reference bits, and take the first frame whose
// reference bit is already clear.
type Clock struct{}

// Victim implements Policy.
func (Clock) Victim(p *Pool) (int, error) {
	n := p.Len()
	for scanned := 0; scanned < 2*n; scanned++ {
		i := p.Hand
		p.Hand = (p.Hand + 1) % n
		f := p.Frame(i)
		if f.Pin != 0 {
			continue
		}
		if f.Ref {
			f.Ref = false
			continue
		}
		return i, nil
	}
	return 0, ErrNoVictim
}
