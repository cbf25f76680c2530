package core

import (
	"errors"
	"fmt"
	"math/rand"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/page"
	"quickstore/internal/pagedelta"
	"quickstore/internal/prefetch"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
)

// Ref is a QuickStore persistent reference: a raw virtual-memory address
// (Figure 4 of the paper). The high bits name a virtual frame; the low 13
// bits are the object's offset within its page. NilRef (0) is the null
// pointer.
type Ref = vmem.Addr

// NilRef is the null persistent pointer.
const NilRef Ref = 0

// ErrSnapshotReadOnly rejects write access inside a snapshot session
// (BeginSnapshot): snapshot reads run without page locks, so letting a
// write through would mutate state no lock protects.
var ErrSnapshotReadOnly = errors.New("core: store is in a read-only snapshot session")

// RelocationMode selects how QuickStore handles pages whose referenced
// objects could not keep their previous virtual addresses (Section 5.5).
type RelocationMode int

// Relocation modes.
const (
	// RelocNormal swizzles on collision and keeps the new mapping in
	// memory only (the default; identical to QS-CR when collisions are
	// natural rather than injected).
	RelocNormal RelocationMode = iota
	// RelocCR (continual relocation) never writes changed mappings back:
	// relocated pages are re-swizzled every time they are faulted in.
	RelocCR
	// RelocOR (one-time relocation) commits changed mappings to the
	// database, turning read-only transactions into update transactions.
	RelocOR
)

// DefaultRecoveryBufferBytes matches the paper's 4MB recovery area.
const DefaultRecoveryBufferBytes = 4 << 20

// DefaultBase is the bottom of the persistent virtual address region.
const DefaultBase vmem.Addr = 0x0000_0800_0000_0000

// DefaultMaxFrames covers 8GB of persistent address space.
const DefaultMaxFrames = 1 << 20

// frameBatch is how many virtual frames the store reserves from the
// persistent global counter per server round trip.
const frameBatch = 256

// Config tunes a Store.
type Config struct {
	// BulkLoad disables recovery copying, diffing, and logging: every
	// dirty page ships whole at commit (a normal session ships only the
	// log, see dirtyLogged). Used by the database generator.
	BulkLoad bool
	// RecoveryBufferBytes bounds the recovery area (default 4MB).
	RecoveryBufferBytes int
	// Relocation selects the Section 5.5 policy.
	Relocation RelocationMode
	// RelocateFraction forces this fraction of page-range claims to be
	// relocated even when their previous address is free (the Figure 17
	// experiment). 0 disables injection.
	RelocateFraction float64
	// RelocSeed seeds the relocation-injection RNG.
	RelocSeed int64
	// Base and MaxFrames shape the persistent address region.
	Base      vmem.Addr
	MaxFrames int

	// TraditionalClock replaces the simplified clock of Section 3.5 with
	// the classic reference-bit clock (ablation; reference bits cannot
	// observe raw pointer dereferences, so recently mapped pages get no
	// protection from replacement).
	TraditionalClock bool
	// WholeObjectLogging disables the diffing log generator and logs each
	// modified page in full instead (ablation for the Hoski93b
	// comparison: how much log volume diffing saves).
	WholeObjectLogging bool

	// DemandPaging turns mapping-object read-ahead (internal/prefetch) off:
	// every fault fetches its one page, the 1994 protocol the paper's tables
	// price. Only the experiment harness sets it (DESIGN.md §8).
	DemandPaging bool
}

func (c *Config) fill() {
	if c.RecoveryBufferBytes == 0 {
		c.RecoveryBufferBytes = DefaultRecoveryBufferBytes
	}
	if c.Base == 0 {
		c.Base = DefaultBase
	}
	if c.MaxFrames == 0 {
		c.MaxFrames = DefaultMaxFrames
	}
}

// Store is one application session's view of a QuickStore database, layered
// on an ESM client session. It is single-threaded, like the paper's client
// process. It finds a page descriptor three ways: by the virtual frame of an
// address (byAddr), by the physical address of the page's object (byOID),
// and by the client-pool frame the page is mapped from (byFrame).
type Store struct {
	c     *esm.Client
	clock *sim.Clock
	space *vmem.Space
	cfg   Config

	byAddr descTable
	byOID  map[esm.OID]*PageDesc
	// byFrame[i] is the descriptor whose page is mapped from pool frame i
	// (its FrameIdx is i), nil for a frame holding anything else. A slot is
	// set where FrameIdx is set; every page leaving the pool clears its slot
	// through onEvict, and a frame refreshed in place through onRefresh.
	byFrame []*PageDesc

	// descs is the chunk newDesc takes descriptors from; descChunks counts
	// the chunks the session has allocated.
	descs      []PageDesc
	descChunks int

	largeGeom map[esm.OID]esm.LargeInfo

	dataFile, mapFile, bmFile uint32
	mapCluster, bmCluster     *esm.Cluster

	frameNext, frameEnd uint64 // frame-number batch from the server counter

	txSeq       uint64
	inTx        bool
	snapTx      bool // read-only snapshot session (BeginSnapshot)
	rec         recoveryBuffer
	dirtied     []*PageDesc
	freshPages  map[disk.PageID]*PageDesc
	relocations int64

	// Lock-ahead (lockAhead): the pages the last update transaction wrote, in
	// the order it first wrote them, and how many locks may be held on a
	// guess at once.
	lastWrites []*PageDesc
	la         lockWindow

	rng    *rand.Rand
	policy *SimplifiedClock     // nil under the traditional-clock ablation
	pf     *prefetch.Prefetcher // nil under demand paging

	// Scratch buffers of the fault and commit paths, each valid only inside
	// the call that fills it: decoded mapping entries (processMapping), a
	// page's referenced set and its encoding (updateMapping), diff regions
	// (diffAndLog), a lock-ahead list (lockAhead).
	mapEntries []mapEntry
	refSet     []mapEntry
	mapBlob    []byte
	regs       []pagedelta.Region
	aheadPids  []disk.PageID

	// Diagnostics.
	swizzleChecks int64
}

// storeFiles are the ESM files a QuickStore database occupies.
var storeFiles = [3]string{"qs.data", "qs.map", "qs.bitmap"}

// frameCounterName is the persistent global frame counter of Section 3.3.
const frameCounterName = "qs.frames"

// New creates a fresh QuickStore database through client c.
func New(c *esm.Client, cfg Config) (*Store, error) {
	s, err := newStore(c, cfg)
	if err != nil {
		return nil, err
	}
	ids := [3]uint32{}
	for i, name := range storeFiles {
		id, err := c.CreateFile(name)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	s.dataFile, s.mapFile, s.bmFile = ids[0], ids[1], ids[2]
	s.initClusters()
	return s, nil
}

// Open attaches to an existing QuickStore database.
func Open(c *esm.Client, cfg Config) (*Store, error) {
	s, err := newStore(c, cfg)
	if err != nil {
		return nil, err
	}
	ids := [3]uint32{}
	for i, name := range storeFiles {
		id, err := c.OpenFile(name)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	s.dataFile, s.mapFile, s.bmFile = ids[0], ids[1], ids[2]
	s.initClusters()
	return s, nil
}

func newStore(c *esm.Client, cfg Config) (*Store, error) {
	cfg.fill()
	// A session's tables start at the size of what its pool can hold, so a
	// cold session does not grow them again page by page.
	pool := c.Pool()
	s := &Store{
		c:          c,
		clock:      c.Clock(),
		cfg:        cfg,
		byAddr:     newDescTable(cfg.Base, cfg.MaxFrames),
		byOID:      make(map[esm.OID]*PageDesc, pool.Len()),
		byFrame:    make([]*PageDesc, pool.Len()),
		largeGeom:  map[esm.OID]esm.LargeInfo{},
		freshPages: map[disk.PageID]*PageDesc{},
		mapEntries: make([]mapEntry, 0, maxPageMapEntries),
		rng:        rand.New(rand.NewSource(cfg.RelocSeed)),
	}
	s.rec.cap = cfg.RecoveryBufferBytes
	s.la = lockWindow{size: lockWindowInitial, cut: -1}
	s.space = vmem.NewSpace(cfg.Base, cfg.MaxFrames, s.clock)
	s.space.SetHandler(s.handleFault)
	s.space.ExpectMapped(pool.Len())
	pool.OnEvict = s.onEvict
	c.OnRefresh = s.onRefresh
	if !cfg.TraditionalClock {
		s.policy = NewSimplifiedClock(s)
		pool.SetPolicy(s.policy)
	}
	c.BeforeSteal = s.beforeSteal
	// QuickStore's diff logging covers mapped data pages only; the client
	// must log the metadata-file structure it writes itself (bitmap and
	// mapping object slots), or a redo-only restart — and every replication
	// follower at promotion — recovers slotless metadata pages.
	c.LogStructure = true
	if !cfg.DemandPaging {
		s.pf = prefetch.New(s.clock, pool, c.ReadAhead)
	}
	return s, nil
}

func (s *Store) initClusters() {
	s.mapCluster = s.c.NewCluster(s.mapFile)
	s.bmCluster = s.c.NewCluster(s.bmFile)
}

// policyOf returns the installed simplified clock (nil if replaced).
func (s *Store) policyOf() *SimplifiedClock { return s.policy }

// Space returns the simulated virtual-memory space through which all
// persistent object accesses flow.
func (s *Store) Space() *vmem.Space { return s.space }

// Client returns the underlying ESM session.
func (s *Store) Client() *esm.Client { return s.c }

// Clock returns the session cost-model clock.
func (s *Store) Clock() *sim.Clock { return s.clock }

// metaOIDFor is the canonical OID of a small page's meta-object. All
// mapping entries and hash-table keys use this form, so it must be
// deterministic across sessions.
func (s *Store) metaOIDFor(pid disk.PageID) esm.OID {
	return esm.OID{Page: pid, Slot: metaSlot, Unique: 0, File: s.dataFile}
}

// --- Transactions ----------------------------------------------------------

// Begin starts a transaction.
func (s *Store) Begin() error {
	if s.inTx {
		return fmt.Errorf("core: transaction already active")
	}
	if err := s.c.Begin(); err != nil {
		return err
	}
	s.txSeq++
	s.inTx = true
	return nil
}

// BeginSnapshot opens a read-only snapshot session: until EndSnapshot,
// every persistent read observes one consistent commit LSN, served without
// any page locks — concurrent writers on other sessions proceed untouched.
// Write faults and allocating entry points fail with ErrSnapshotReadOnly.
func (s *Store) BeginSnapshot() error {
	if s.inTx || s.snapTx {
		return fmt.Errorf("core: transaction already active")
	}
	if err := s.c.BeginSnapshot(); err != nil {
		return err
	}
	s.txSeq++
	s.snapTx = true
	return nil
}

// EndSnapshot closes the snapshot session. Pages faulted during it are
// evicted from the client pool (the eviction hook revokes their mappings),
// so the next transaction refetches current images.
func (s *Store) EndSnapshot() error {
	if !s.snapTx {
		return esm.ErrNoTx
	}
	err := s.c.EndSnapshot()
	s.snapTx = false
	s.endTx()
	return err
}

// Commit runs the three commit phases of Section 5.2 — diff modified pages
// and generate log records, update the mapping objects of modified pages,
// and ship the log (plus the dirty frames that are not log-covered) to the
// server — then releases transaction state.
func (s *Store) Commit() error {
	if !s.inTx {
		return esm.ErrNoTx
	}
	// Phase 1: diffing and log generation.
	if err := s.flushRecovery(); err != nil {
		return err
	}
	// Phase 2: mapping-object maintenance for every modified page. It can
	// rewrite the meta-object of a page created by this transaction, so
	// the whole-image records of those pages are taken after it: the
	// server rebuilds such a page from that record alone.
	if err := s.updateMappings(); err != nil {
		return err
	}
	if err := s.logFreshPages(); err != nil {
		return err
	}
	// Phase 3: ESM commit (log force; only frames not log-covered ship).
	if err := s.c.Commit(); err != nil {
		return err
	}
	s.endTx()
	return nil
}

// Abort discards the transaction. Dirty pages are dropped from the client
// pool (their mappings are revoked via the eviction hook), the server rolls
// back anything that was stolen mid-transaction, and descriptors of pages
// created by the transaction are removed — their virtual frames and disk
// pages are dead, and a cluster cursor still pointing at one must not be
// reused (see Cluster handling in Alloc).
func (s *Store) Abort() error {
	if !s.inTx {
		return esm.ErrNoTx
	}
	s.rec.reset()
	for _, d := range s.freshPages {
		d.RecIdx = -1
		d.Pid = disk.InvalidPage // the page is dead: nothing to lock ahead of a retry
		if d.FrameIdx >= 0 {
			_ = s.space.Unmap(d.Lo)
			s.byFrame[d.FrameIdx] = nil
			d.FrameIdx = -1
		}
		s.byAddr.Remove(d)
		delete(s.byOID, d.Phys)
	}
	if err := s.c.Abort(); err != nil {
		return err
	}
	// The metadata cluster cursors may point at pages the abort just
	// discarded; start fresh ones.
	s.initClusters()
	s.endTx()
	return nil
}

func (s *Store) endTx() {
	for i, d := range s.dirtied {
		if d.FrameIdx >= 0 {
			// Downgrade so the next transaction's first update faults
			// again (new lock, new recovery copy).
			_ = s.space.Protect(d.Lo, vmem.ProtRead)
		}
		d.Dirtied = false
		d.RecIdx = -1
		d.PrevWrite = i
	}
	if len(s.dirtied) > 0 {
		// What was written is the guess at what the next update transaction
		// — a retry, if this one aborted — will write.
		s.dirtied, s.lastWrites = s.lastWrites[:0], s.dirtied
	}
	s.la.cut = -1
	clear(s.freshPages)
	s.rec.reset()
	s.inTx = false
	if s.pf != nil {
		// What this transaction read ahead and never touched was a wrong
		// guess: it leaves the pool, and the window hears about the waste.
		s.c.Pool().DropSpeculative()
		s.pf.Reset()
	}
}

// --- Virtual frame allocation (Section 3.3) --------------------------------

// allocFrames reserves n contiguous virtual frames. Frame numbers come from
// a persistent global counter so successive program runs never reuse
// addresses unnecessarily; when the counter wraps past the end of the
// space, the descriptor table is scanned for a free gap.
func (s *Store) allocFrames(n uint32) (vmem.Addr, error) {
	need := uint64(n)
	if s.frameNext+need > s.frameEnd {
		batch := uint64(frameBatch)
		if need > batch {
			batch = need
		}
		start, err := s.c.Counter(frameCounterName, batch)
		if err != nil {
			return 0, err
		}
		s.frameNext, s.frameEnd = start, start+batch
	}
	if s.frameNext+need <= uint64(s.cfg.MaxFrames) {
		lo := s.cfg.Base + vmem.Addr(s.frameNext<<vmem.FrameShift)
		s.frameNext += need
		return lo, nil
	}
	// Wraparound: scan the table for a gap of n frames (rare; the paper
	// notes it only matters when the database outgrows virtual memory).
	if lo, ok := s.byAddr.gap(n); ok {
		return lo, nil
	}
	return 0, fmt.Errorf("core: virtual address space exhausted (%d frames wanted)", n)
}

// rangeFree reports whether [lo, lo+n frames) is inside the space and
// unclaimed.
func (s *Store) rangeFree(lo vmem.Addr, n uint32) bool {
	return s.byAddr.free(lo, lo+vmem.Addr(uint64(n)<<vmem.FrameShift))
}

// --- Page residency helpers ------------------------------------------------

// residentData returns the in-pool bytes of the page behind d, refetching
// and remapping it (read access) if it was evicted. The page is NOT pinned.
func (s *Store) residentData(d *PageDesc) ([]byte, int, error) {
	if d.FrameIdx >= 0 {
		return s.c.PageData(d.FrameIdx), d.FrameIdx, nil
	}
	if !d.Accessed || d.Pid == disk.InvalidPage {
		return nil, 0, fmt.Errorf("core: %v has no disk page yet", d)
	}
	idx, err := s.c.FetchPage(d.Pid)
	if err != nil {
		return nil, 0, err
	}
	d.FrameIdx = idx
	s.byFrame[idx] = d
	data := s.c.PageData(idx)
	if err := s.space.Map(d.Lo, data, vmem.ProtRead); err != nil {
		return nil, 0, err
	}
	s.clock.Charge(sim.CtrMmapCall, 1)
	return data, idx, nil
}

// onEvict revokes the virtual-memory mapping of an evicted data page
// (Figure 1b: access to frame A is disabled when page a leaves the pool).
func (s *Store) onEvict(pid disk.PageID, frame int) {
	d := s.byFrame[frame]
	if d == nil {
		return
	}
	_ = s.space.Unmap(d.Lo)
	s.clock.Charge(sim.CtrMmapCall, 1)
	d.FrameIdx = -1
	s.byFrame[frame] = nil
}

// onRefresh handles a coherence repair rewriting a resident frame in
// place: the frame now holds another session's committed image — pointers
// swizzled to THAT session's address assignments, not this one's — so the
// mapping is revoked and the swizzle state discarded exactly as if the
// page had been evicted and refetched. The next access faults, finds the
// page still resident, and re-processes its mapping object (SeenTx zero
// forces this even within the same transaction).
func (s *Store) onRefresh(pid disk.PageID, frame int) {
	if d := s.byFrame[frame]; d != nil {
		d.SeenTx = 0
		s.onEvict(pid, frame)
	}
}

// beforeSteal preserves write-ahead logging when a dirty page leaves the
// pool mid-transaction: the page is diffed against its recovery copy and the
// log records are emitted before the frame is given up — they are then all
// the server gets of it, unless the frame is Unlogged and ships whole.
func (s *Store) beforeSteal(pid disk.PageID, data []byte) error {
	var d *PageDesc
	if i, ok := s.c.Pool().Lookup(pid); ok {
		d = s.byFrame[i]
	}
	if s.cfg.BulkLoad {
		delete(s.freshPages, pid)
		if d != nil {
			d.RecIdx = -1
		}
		return nil
	}
	if fd, ok := s.freshPages[pid]; ok {
		s.logWholePage(pid, data)
		delete(s.freshPages, pid)
		fd.RecIdx = -1
		return nil
	}
	if d == nil || d.RecIdx < 0 {
		return nil
	}
	s.diffAndLog(d, data)
	return nil
}

// --- Roots ------------------------------------------------------------------

// SetRoot registers ref under a persistent name in the open transaction
// (esm.Client.SetRoot). The referenced object must live on a small-object
// page. Setting NilRef clears the root.
func (s *Store) SetRoot(name string, ref Ref) error {
	if s.snapTx {
		return ErrSnapshotReadOnly
	}
	if ref == NilRef {
		return s.c.SetRoot(name, esm.NilOID, 0)
	}
	d := s.byAddr.Find(ref)
	if d == nil {
		return fmt.Errorf("core: SetRoot(%q): %#x is not a persistent address", name, ref)
	}
	if d.IsLarge {
		return fmt.Errorf("core: SetRoot(%q): roots must reference small objects", name)
	}
	return s.c.SetRoot(name, d.Phys, uint64(ref))
}

// Root resolves a persistent name to its reference, entering the root's
// page into the current mapping if it is not there yet.
func (s *Store) Root(name string) (Ref, error) {
	oid, aux, err := s.c.GetRoot(name)
	if err != nil {
		return NilRef, err
	}
	if oid.IsNil() {
		return NilRef, nil
	}
	ref := Ref(aux)
	if d, ok := s.byOID[oid]; ok {
		// Honor a relocation of the root page within this session.
		return d.Lo + Ref(ref.Offset()), nil
	}
	lo := ref.FrameBase()
	if !s.rangeFree(lo, 1) {
		newLo, err := s.allocFrames(1)
		if err != nil {
			return NilRef, err
		}
		s.relocations++
		lo = newLo
	}
	d := s.newDesc()
	*d = PageDesc{
		Lo: lo, Hi: lo + vmem.FrameSize,
		ObjLo: lo, ObjPages: 1,
		Phys:     oid,
		FrameIdx: -1, RecIdx: -1,
	}
	if err := s.byAddr.Insert(d); err != nil {
		return NilRef, err
	}
	s.byOID[oid] = d
	return lo + Ref(ref.Offset()), nil
}

// --- Object allocation ------------------------------------------------------

// Cluster places consecutive allocations on the same page, like the paper's
// composite-part clusters.
type Cluster struct {
	s    *Store
	desc *PageDesc
}

// NewCluster starts a fresh placement cursor in the data file.
func (s *Store) NewCluster() *Cluster { return &Cluster{s: s} }

// Break forces the next allocation onto a fresh page.
func (cl *Cluster) Break() { cl.desc = nil }

// Alloc creates a size-byte object (rounded up to 8 bytes so embedded
// pointers stay word-aligned for the page bitmap) with pointers at the
// given byte offsets. It returns the object's persistent reference.
func (s *Store) Alloc(cl *Cluster, size int, refOffsets []int) (Ref, error) {
	if !s.inTx {
		return NilRef, esm.ErrNoTx
	}
	size = (size + 7) &^ 7
	for attempt := 0; attempt < 2; attempt++ {
		// A cluster cursor can outlive its page: an abort removes the
		// descriptors of pages created by the rolled-back transaction.
		if cl.desc != nil && s.byAddr.Find(cl.desc.Lo) != cl.desc {
			cl.desc = nil
		}
		if cl.desc == nil {
			if err := s.newDataPage(cl); err != nil {
				return NilRef, err
			}
		}
		d := cl.desc
		data, idx, err := s.residentData(d)
		if err != nil {
			return NilRef, err
		}
		p := page.MustWrap(data)
		if p.FreeSpace() < size {
			cl.desc = nil
			continue
		}
		if err := s.enableWriteDirect(d); err != nil {
			return NilRef, err
		}
		// enableWriteDirect may flush the recovery buffer, which cannot
		// evict d (no fetches happen), so data stays valid.
		_, off, err := p.Insert(size)
		if err != nil {
			return NilRef, err
		}
		s.dirtyLogged(idx)
		if len(refOffsets) > 0 {
			if err := s.setBitmapBits(d, off, refOffsets); err != nil {
				return NilRef, err
			}
		}
		return d.Lo + Ref(off), nil
	}
	return NilRef, fmt.Errorf("core: object of %d bytes does not fit on an empty page", size)
}

// newDataPage allocates and formats a fresh QuickStore small-object page:
// slotted layout, meta-object in slot 0, a zeroed bitmap object in the
// bitmap file, a virtual frame from the global counter, and a writable
// mapping.
func (s *Store) newDataPage(cl *Cluster) error {
	pid, err := s.c.AllocPages(1)
	if err != nil {
		return err
	}
	idx, err := s.c.Pool().Put(pid, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	data := s.c.PageData(idx)
	p := page.Init(data, page.TypeSlotted)
	p.SetFileID(s.dataFile)
	if _, _, err := p.Insert(metaObjSize); err != nil {
		return err
	}
	s.c.Pool().Pin(idx)
	bmOID, _, err := s.c.CreateObject(s.bmCluster, bitmapBytes)
	s.c.Pool().Unpin(idx)
	if err != nil {
		return err
	}
	lo, err := s.allocFrames(1)
	if err != nil {
		return err
	}
	// Re-resolve the frame: creating the bitmap object may have moved
	// things around (it cannot evict pid while pinned, but be safe).
	idx, ok := s.c.Pool().Lookup(pid)
	if !ok {
		return fmt.Errorf("core: fresh page %d evicted during setup", pid)
	}
	data = s.c.PageData(idx)
	p = page.MustWrap(data)
	if err := writeMeta(p, metaObject{VFrame: lo, MapOID: esm.NilOID, BmOID: bmOID}); err != nil {
		return err
	}
	s.dirtyLogged(idx) // freshPages below: logged whole at commit or steal

	d := &PageDesc{
		Lo: lo, Hi: lo + vmem.FrameSize,
		ObjLo: lo, ObjPages: 1,
		Phys:     s.metaOIDFor(pid),
		Accessed: true,
		SeenTx:   s.txSeq,
		Pid:      pid,
		FrameIdx: idx,
		RecIdx:   -1,
	}
	if err := s.byAddr.Insert(d); err != nil {
		return err
	}
	s.byOID[d.Phys] = d
	s.byFrame[idx] = d
	if err := s.space.Map(lo, data, vmem.ProtWrite); err != nil {
		return err
	}
	s.clock.Charge(sim.CtrMmapCall, 1)
	d.Dirtied = true
	s.dirtied = append(s.dirtied, d)
	s.freshPages[pid] = d
	cl.desc = d
	return nil
}

// setBitmapBits records pointer locations for a new object in the page's
// bitmap object.
func (s *Store) setBitmapBits(d *PageDesc, objOff int, refOffsets []int) error {
	data, _, err := s.residentData(d)
	if err != nil {
		return err
	}
	meta, err := readMeta(page.MustWrap(data))
	if err != nil {
		return err
	}
	bm, bmPageOff, bmFrame, err := s.c.ReadObjectAt(meta.BmOID)
	if err != nil {
		return err
	}
	var old []byte
	if !s.cfg.BulkLoad {
		old = append([]byte(nil), bm...)
	}
	for _, r := range refOffsets {
		off := objOff + r
		if off&7 != 0 {
			return fmt.Errorf("core: pointer offset %d is not 8-aligned", off)
		}
		bitmapSet(bm, off)
	}
	s.dirtyLogged(bmFrame)
	if !s.cfg.BulkLoad {
		s.c.LogUpdate(meta.BmOID.Page, bmPageOff, old, append([]byte(nil), bm...))
	}
	return nil
}

// --- Large objects ----------------------------------------------------------

// AllocLarge creates a multi-page object of size bytes (no embedded
// pointers; large objects hold bulk data like the OO7 Manual) and returns
// the persistent reference of its first byte. The descriptor object is
// placed via cl.
func (s *Store) AllocLarge(cl *Cluster, size uint64) (Ref, error) {
	if !s.inTx {
		return NilRef, esm.ErrNoTx
	}
	// The ESM descriptor object (a few words) lives on a QuickStore page;
	// make sure the cluster page can host it so the low-level cluster API
	// never silently starts an unformatted page.
	const descRoom = 64
	if cl.desc != nil {
		if data, _, err := s.residentData(cl.desc); err != nil {
			return NilRef, err
		} else if page.MustWrap(data).FreeSpace() < descRoom {
			cl.desc = nil
		}
	}
	if cl.desc == nil {
		if err := s.newDataPage(cl); err != nil {
			return NilRef, err
		}
	}
	esmCl := esm.ResumeCluster(s.dataFile, cl.desc.Pid)
	if err := s.enableWriteDirect(cl.desc); err != nil {
		return NilRef, err
	}
	oid, info, err := s.c.CreateLarge(esmCl, size, 0)
	if err != nil {
		return NilRef, err
	}
	if oid.Page != cl.desc.Pid {
		return NilRef, fmt.Errorf("core: large descriptor escaped its cluster page")
	}
	s.largeGeom[oid] = info
	lo, err := s.allocFrames(info.Pages)
	if err != nil {
		return NilRef, err
	}
	d := &PageDesc{
		Lo: lo, Hi: lo + vmem.Addr(uint64(info.Pages)<<vmem.FrameShift),
		ObjLo: lo, ObjPages: info.Pages,
		Phys:    oid,
		IsLarge: true,
		Pid:     disk.InvalidPage, FrameIdx: -1, RecIdx: -1,
	}
	if err := s.byAddr.Insert(d); err != nil {
		return NilRef, err
	}
	s.byOID[oid] = d
	return lo, nil
}

// Delete removes the small object at ref: its slot is marked dead, its
// pointer bits are cleared from the page bitmap, and the page follows the
// usual update protocol (lock, recovery copy, diff at commit). The space is
// not reused and outstanding references dangle, exactly as the paper
// describes (Section 4.5.2).
func (s *Store) Delete(ref Ref) error {
	if !s.inTx {
		return esm.ErrNoTx
	}
	d := s.byAddr.Find(ref)
	if d == nil {
		return fmt.Errorf("core: Delete(%#x): not a persistent address", ref)
	}
	if d.IsLarge {
		return fmt.Errorf("core: Delete(%#x): large objects are deleted via their owner", ref)
	}
	data, _, err := s.residentData(d)
	if err != nil {
		return err
	}
	if err := s.enableWriteDirect(d); err != nil {
		return err
	}
	p := page.MustWrap(data)
	slot, obj, err := p.ObjectAt(ref.Offset())
	if err != nil {
		return err
	}
	// Clear the dead object's pointer bits so mapping maintenance and
	// swizzling never interpret its stale bytes as pointers.
	meta, err := readMeta(p)
	if err != nil {
		return err
	}
	bm, bmOff, bmFrame, err := s.c.ReadObjectAt(meta.BmOID)
	if err != nil {
		return err
	}
	var oldBm []byte
	if !s.cfg.BulkLoad {
		oldBm = append([]byte(nil), bm...)
	}
	start := ref.Offset()
	for off := start &^ 7; off < start+len(obj); off += 8 {
		bitmapClear(bm, off)
	}
	s.dirtyLogged(bmFrame)
	if !s.cfg.BulkLoad {
		s.c.LogUpdate(meta.BmOID.Page, bmOff, oldBm, append([]byte(nil), bm...))
	}
	// Re-resolve: the bitmap read may have shuffled frames.
	data, idx, err := s.residentData(d)
	if err != nil {
		return err
	}
	p = page.MustWrap(data)
	if err := p.Delete(slot); err != nil {
		return err
	}
	s.dirtyLogged(idx) // enableWriteDirect above took the recovery copy
	return nil
}

// LargeSize returns the byte size of the large object at ref.
func (s *Store) LargeSize(ref Ref) (uint64, error) {
	d := s.byAddr.Find(ref)
	if d == nil || !d.IsLarge {
		return 0, fmt.Errorf("core: %#x is not a large object", ref)
	}
	info, err := s.largeInfo(d)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// LargeWrite bulk-writes data into the large object at ref+off through the
// storage manager (the loader's path; reads go through virtual memory).
func (s *Store) LargeWrite(ref Ref, data []byte, off uint64) error {
	d := s.byAddr.Find(ref)
	if d == nil || !d.IsLarge {
		return fmt.Errorf("core: %#x is not a large object", ref)
	}
	return s.c.LargeWriteAt(d.Phys, data, off)
}

func (s *Store) largeInfo(d *PageDesc) (esm.LargeInfo, error) {
	if info, ok := s.largeGeom[d.Phys]; ok {
		return info, nil
	}
	info, err := s.c.LargeInfoOf(d.Phys)
	if err != nil {
		return esm.LargeInfo{}, err
	}
	s.largeGeom[d.Phys] = info
	return info, nil
}

// RefForPage resolves a (disk page, byte offset) pair — the form QuickStore
// keeps in B-tree index entries — to a virtual-memory reference, entering
// the page into the current mapping if needed. The page's recorded virtual
// frame lives in its on-page meta-object, so an unmapped page costs one
// page read here; the subsequent application dereference then faults
// without further I/O, matching the paper's one-fault-per-object cost for
// index-driven access (Q1, Q2, T7).
func (s *Store) RefForPage(pid disk.PageID, off int) (Ref, error) {
	oid := s.metaOIDFor(pid)
	if d, ok := s.byOID[oid]; ok {
		return d.Lo + Ref(off), nil
	}
	idx, err := s.c.FetchPage(pid)
	if err != nil {
		return NilRef, err
	}
	meta, err := readMeta(page.MustWrap(s.c.PageData(idx)))
	if err != nil {
		return NilRef, err
	}
	lo := meta.VFrame.FrameBase()
	if !s.rangeFree(lo, 1) {
		lo, err = s.allocFrames(1)
		if err != nil {
			return NilRef, err
		}
		s.relocations++
	}
	d := s.newDesc()
	*d = PageDesc{
		Lo: lo, Hi: lo + vmem.FrameSize,
		ObjLo: lo, ObjPages: 1,
		Phys:     oid,
		FrameIdx: -1, RecIdx: -1,
	}
	if err := s.byAddr.Insert(d); err != nil {
		return NilRef, err
	}
	s.byOID[oid] = d
	return lo + Ref(off), nil
}

// PageOf returns the disk page and page offset behind a small-object
// reference (the inverse of RefForPage, used to build index entries).
func (s *Store) PageOf(ref Ref) (disk.PageID, int, error) {
	d := s.byAddr.Find(ref)
	if d == nil {
		return disk.InvalidPage, 0, fmt.Errorf("core: %#x is not a persistent address", ref)
	}
	if d.IsLarge {
		return disk.InvalidPage, 0, fmt.Errorf("core: %#x is inside a large object", ref)
	}
	return d.Phys.Page, ref.Offset(), nil
}

// --- Introspection ----------------------------------------------------------

// DescCount returns the number of page descriptors in the current mapping.
func (s *Store) DescCount() int { return s.byAddr.n }

// Relocations returns how many page ranges have been relocated this session.
func (s *Store) Relocations() int64 { return s.relocations }

// FindDesc returns the descriptor covering ref (nil if none). Test hook.
func (s *Store) FindDesc(ref Ref) *PageDesc { return s.byAddr.Find(ref) }

// lockPageX obtains the exclusive page lock for d once per transaction. The
// lock comes before the recovery copy: a grant that finds the cached page
// stale makes the client refresh the frame in place (onRefresh then revokes
// the mapping), and a copy taken earlier would hold bytes another
// transaction has since replaced — as the before-images of this one's log
// records. After such a refresh the page is faulted back in here, so its new
// image's mapping object is processed before anything reads its pointers;
// refreshed reports that this happened.
//
// The lock costs a round trip only if the transaction does not hold it yet,
// and that round trip asks for more than d (lockAhead). The paper's protocol
// pays one per updated page, and that is what the cost model is charged.
func (s *Store) lockPageX(d *PageDesc) (refreshed bool, err error) {
	if d.XLockTx == s.txSeq {
		return false, nil
	}
	wasMapped := d.FrameIdx >= 0
	if err := s.c.LockPageAhead(d.Pid, s.lockAhead(d)); err != nil {
		return false, err
	}
	s.clock.Charge(sim.CtrLockUpgrade, 1)
	d.XLockTx = s.txSeq
	if wasMapped && d.FrameIdx < 0 {
		return true, s.handleFault(d.Lo, vmem.AccessRead)
	}
	return false, nil
}

// The lock-ahead window bounds the locks a transaction holds on a guess —
// granted ahead and not asked for yet. It grows by one for every such lock
// that is asked for and shrinks by one for every one that reaches transaction
// end unasked, so a session that rewrites what it wrote is soon sent its whole
// write set's locks in one round trip, and one that does not stops asking.
const (
	lockWindowInitial = 8
	lockWindowMax     = 512
)

type lockWindow struct {
	size         int
	used, wasted int64 // client verdicts already folded into size
	// cut is where in lastWrites this transaction's last list stopped for
	// want of room (-1: no list yet, or it took everything).
	cut int
}

// lockAhead picks the pages to ask for along with d's exclusive lock: when d
// was written by the session's last update transaction, the pages that
// transaction wrote after it, as many as the window has room for. It asks for
// nothing if d's lock needs no round trip, and only on this evidence: a
// transaction that starts rewriting the last one's pages will probably go on
// to. A lock taken ahead is a real lock — it makes a peer wait until this
// transaction ends, used or not — which is why the window closes on waste.
func (s *Store) lockAhead(d *PageDesc) []disk.PageID {
	i := d.PrevWrite
	if i >= len(s.lastWrites) || s.lastWrites[i] != d ||
		s.c.LockHeld(lock.KindPage, uint32(d.Pid)) == lock.Exclusive {
		return nil
	}
	w := &s.la
	outstanding, used, wasted := s.c.LocksAhead()
	w.size += int((used - w.used) - (wasted - w.wasted))
	w.used, w.wasted = used, wasted
	if w.cut >= 0 && i >= w.cut {
		// d was left off the last list for want of room: a wider window would
		// have saved this round trip. Costing nothing, this is also how a
		// window that waste has shut reopens.
		w.size++
	}
	w.size = min(max(w.size, 0), lockWindowMax)
	room := w.size - outstanding
	pids := s.aheadPids[:0]
	w.cut = -1
	for j, cd := range s.lastWrites[i+1:] {
		if cd.XLockTx == s.txSeq || cd.Pid == disk.InvalidPage {
			continue
		}
		if len(pids) >= room {
			w.cut = i + 1 + j
			break
		}
		pids = append(pids, cd.Pid)
	}
	s.aheadPids = pids
	return pids
}
