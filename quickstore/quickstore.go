// Package quickstore is the public API of this QuickStore reproduction: a
// memory-mapped persistent object store in the style of White & DeWitt
// (SIGMOD 1994), layered on an EXODUS-like page-shipping storage manager.
//
// Persistent objects live on 8K pages and are addressed by Ref values —
// simulated virtual-memory addresses. Dereferencing a Ref whose page is not
// resident triggers a page fault handled by the QuickStore runtime: the
// page is fetched from the storage server, its mapping object is processed
// so every page it references gets a virtual frame, and pointers are
// swizzled only if a frame collision forces relocation. Updates are caught
// by write-protection faults and logged by page diffing.
//
// A minimal session:
//
//	st, _ := quickstore.CreateMem(quickstore.Options{})
//	defer st.Close()
//	err := st.Update(func(tx *quickstore.Tx) error {
//	    cl := tx.NewCluster()
//	    node, _ := tx.Alloc(cl, 16, []int{0}) // 8-byte ref at offset 0
//	    tx.WriteU32(node+8, 42)
//	    return tx.SetRoot("head", node)
//	})
//
// See examples/ for complete programs and DESIGN.md for how the simulated
// virtual memory substitutes for mmap/SIGSEGV (the paper's hardware path).
package quickstore

import (
	"errors"
	"fmt"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
	"quickstore/internal/wal"
)

// Ref is a persistent reference: a virtual-memory address whose high bits
// name an 8K frame and whose low 13 bits locate the object within its page.
type Ref = core.Ref

// NilRef is the null persistent reference.
const NilRef = core.NilRef

// PageSize is the unit of disk allocation, transfer, and virtual-memory
// mapping.
const PageSize = disk.PageSize

// Options tunes a store.
type Options struct {
	// ServerBufferPages sizes the server pool (default 4608, the paper's
	// 36MB).
	ServerBufferPages int
	// ClientBufferPages sizes the client pool (default 1536, 12MB).
	ClientBufferPages int
	// RecoveryBufferBytes bounds the update recovery area (default 4MB).
	RecoveryBufferBytes int
	// BulkLoad disables logging for initial loads; pages ship whole at
	// commit. Reopen the store normally afterwards.
	BulkLoad bool
	// Relocation selects how pages that cannot keep their previous
	// virtual addresses are handled (the paper's Section 5.5):
	// continual relocation (default) re-swizzles in memory only; one-time
	// relocation commits the changed mapping back to the database.
	Relocation RelocationMode
	// RelocateFraction forces this fraction of page assignments to move
	// even without a collision — the paper's Figure 17 experiment knob.
	RelocateFraction float64
	// RelocSeed seeds the relocation-injection randomness.
	RelocSeed int64
	// MVCC enables the server's version store so Snapshot sessions work:
	// read-only views at one consistent commit point that never touch the
	// lock manager (DESIGN.md §15). Off by default (the paper's
	// configuration; the experiment tables are byte-identical either way).
	MVCC bool
}

// RelocationMode selects the Section 5.5 relocation policy.
type RelocationMode = core.RelocationMode

// Relocation policies.
const (
	RelocNormal = core.RelocNormal // swizzle on collision, in memory only
	RelocCR     = core.RelocCR     // continual relocation (never written back)
	RelocOR     = core.RelocOR     // one-time relocation (committed)
)

// Store is an open QuickStore database: an embedded page server plus one
// client session. It is single-threaded, modeling the paper's one
// application process per client.
type Store struct {
	vol    disk.Volume
	log    *wal.Log
	srv    *esm.Server
	client *esm.Client
	core   *core.Store
	clock  *sim.Clock
	inTx   bool
}

// CreateMem creates a fresh in-memory store (tests, examples, benchmarks).
func CreateMem(opts Options) (*Store, error) {
	return create(disk.NewMemVolume(), wal.NewMemLog(), opts)
}

// Create creates a fresh file-backed store: the database volume at path and
// the write-ahead log at path + ".log".
func Create(path string, opts Options) (*Store, error) {
	vol, err := disk.CreateFileVolume(path)
	if err != nil {
		return nil, err
	}
	log, err := wal.CreateFileLog(path + ".log")
	if err != nil {
		vol.Close()
		return nil, err
	}
	return create(vol, log, opts)
}

// Open opens an existing file-backed store, running restart recovery from
// its log.
func Open(path string, opts Options) (*Store, error) {
	vol, err := disk.OpenFileVolume(path)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFileLog(path + ".log")
	if err != nil {
		vol.Close()
		return nil, err
	}
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.OpenServer(vol, log, esm.ServerConfig{BufferPages: opts.ServerBufferPages, Clock: clock, MVCC: opts.MVCC})
	if err != nil {
		vol.Close()
		log.Close()
		return nil, err
	}
	return attach(vol, log, srv, clock, opts, false)
}

func create(vol disk.Volume, log *wal.Log, opts Options) (*Store, error) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(vol, log, esm.ServerConfig{BufferPages: opts.ServerBufferPages, Clock: clock, MVCC: opts.MVCC})
	if err != nil {
		vol.Close()
		log.Close()
		return nil, err
	}
	return attach(vol, log, srv, clock, opts, true)
}

func attach(vol disk.Volume, log *wal.Log, srv *esm.Server, clock *sim.Clock, opts Options, fresh bool) (*Store, error) {
	client := esm.NewClient(esm.NewInProcTransport(srv),
		esm.ClientConfig{BufferPages: opts.ClientBufferPages, Clock: clock})
	cfg := core.Config{
		BulkLoad:            opts.BulkLoad,
		RecoveryBufferBytes: opts.RecoveryBufferBytes,
		Relocation:          opts.Relocation,
		RelocateFraction:    opts.RelocateFraction,
		RelocSeed:           opts.RelocSeed,
	}
	var cs *core.Store
	var err error
	if fresh {
		cs, err = core.New(client, cfg)
	} else {
		cs, err = core.Open(client, cfg)
	}
	if err != nil {
		vol.Close()
		log.Close()
		return nil, err
	}
	return &Store{vol: vol, log: log, srv: srv, client: client, core: cs, clock: clock}, nil
}

// Close checkpoints the server and releases the volume and log.
func (s *Store) Close() error {
	if s.inTx {
		return errors.New("quickstore: Close inside a transaction")
	}
	if err := s.srv.Checkpoint(); err != nil {
		return err
	}
	if err := s.log.Close(); err != nil {
		return err
	}
	return s.vol.Close()
}

// Tx is an open transaction. All object access happens through it.
type Tx struct {
	s *Store
}

// Update runs fn in a read-write transaction: commit on nil, abort on error
// or panic.
func (s *Store) Update(fn func(tx *Tx) error) (err error) {
	if s.inTx {
		return errors.New("quickstore: nested transaction")
	}
	if err := s.core.Begin(); err != nil {
		return err
	}
	s.inTx = true
	defer func() {
		s.inTx = false
		if p := recover(); p != nil {
			//qsvet:ignore mustcheck best-effort rollback while repanicking; the panic is the outcome
			_ = s.core.Abort()
			panic(p)
		}
		if err != nil {
			//qsvet:ignore mustcheck best-effort rollback; fn's error is what the caller must see
			_ = s.core.Abort()
			return
		}
		err = s.core.Commit()
	}()
	return fn(&Tx{s: s})
}

// View runs fn in a transaction expected to be read-only; it commits so the
// paper's read-locking protocol completes, and aborts on error. With
// Options.MVCC, Snapshot is the cheaper consistent read.
func (s *Store) View(fn func(tx *Tx) error) error {
	return s.Update(fn)
}

// ErrSnapshotReadOnly is returned by write entry points used inside a
// Snapshot session.
var ErrSnapshotReadOnly = core.ErrSnapshotReadOnly

// Snapshot runs fn in a read-only snapshot session (requires
// Options.MVCC): every read sees the state as of one consistent commit
// point no matter what commits concurrently through other sessions, and no
// page locks are ever taken. Write entry points fail with
// ErrSnapshotReadOnly. This is also the online-backup primitive: read the
// whole object graph inside one Snapshot while writers proceed, and the
// copy is transaction-consistent.
func (s *Store) Snapshot(fn func(tx *Tx) error) error {
	if s.inTx {
		return errors.New("quickstore: Snapshot inside a transaction")
	}
	if err := s.core.BeginSnapshot(); err != nil {
		return err
	}
	s.inTx = true
	defer func() { s.inTx = false }()
	ferr := fn(&Tx{s: s})
	if err := s.core.EndSnapshot(); err != nil && ferr == nil {
		return err
	}
	return ferr
}

// Cluster groups allocations onto shared pages.
type Cluster = core.Cluster

// NewCluster starts a placement cursor.
func (tx *Tx) NewCluster() *Cluster { return tx.s.core.NewCluster() }

// Alloc creates an object of size bytes whose embedded references live at
// the given byte offsets (8-byte aligned). The object is zeroed.
func (tx *Tx) Alloc(cl *Cluster, size int, refOffsets []int) (Ref, error) {
	return tx.s.core.Alloc(cl, size, refOffsets)
}

// AllocLarge creates a multi-page object of size bytes containing no
// references (bulk data); the Ref addresses its first byte.
func (tx *Tx) AllocLarge(cl *Cluster, size uint64) (Ref, error) {
	return tx.s.core.AllocLarge(cl, size)
}

// SetRoot names a persistent entry point. The root is transactional data:
// other sessions see it from the transaction's commit on, and an aborted
// transaction leaves the name as it was. The directory holding roots is
// one page; a root it has no room for is refused.
func (tx *Tx) SetRoot(name string, r Ref) error { return tx.s.core.SetRoot(name, r) }

// Root resolves a persistent entry point.
func (tx *Tx) Root(name string) (Ref, error) { return tx.s.core.Root(name) }

// ReadU8 loads one byte at r (faulting the page in if needed).
func (tx *Tx) ReadU8(r Ref) (byte, error) { return tx.s.core.Space().ReadU8(r) }

// ReadU32 loads a 32-bit little-endian integer at r.
func (tx *Tx) ReadU32(r Ref) (uint32, error) { return tx.s.core.Space().ReadU32(r) }

// ReadU64 loads a 64-bit little-endian integer at r.
func (tx *Tx) ReadU64(r Ref) (uint64, error) { return tx.s.core.Space().ReadU64(r) }

// ReadRef loads an embedded reference at r.
func (tx *Tx) ReadRef(r Ref) (Ref, error) {
	v, err := tx.s.core.Space().ReadU64(r)
	return Ref(v), err
}

// ReadBytes fills buf from r.
func (tx *Tx) ReadBytes(r Ref, buf []byte) error { return tx.s.core.Space().ReadInto(r, buf) }

// WriteU8 stores one byte at r (write-faulting for recovery and locking).
func (tx *Tx) WriteU8(r Ref, v byte) error { return tx.s.core.Space().WriteU8(r, v) }

// WriteU32 stores a 32-bit integer at r.
func (tx *Tx) WriteU32(r Ref, v uint32) error { return tx.s.core.Space().WriteU32(r, v) }

// WriteU64 stores a 64-bit integer at r.
func (tx *Tx) WriteU64(r Ref, v uint64) error { return tx.s.core.Space().WriteU64(r, v) }

// WriteRef stores an embedded reference at r. The offset of r within its
// object must have been declared in Alloc's refOffsets, or the pointer will
// be invisible to swizzling and mapping maintenance.
func (tx *Tx) WriteRef(r Ref, v Ref) error { return tx.s.core.Space().WriteU64(r, uint64(v)) }

// WriteBytes stores data at r.
func (tx *Tx) WriteBytes(r Ref, data []byte) error { return tx.s.core.Space().WriteBytes(r, data) }

// Delete removes the small object at r. Its page space is not reused and
// outstanding references dangle (the paper's unchecked-reference trade-off,
// Section 4.5.2).
func (tx *Tx) Delete(r Ref) error { return tx.s.core.Delete(r) }

// LargeSize returns the byte size of the multi-page object at r.
func (tx *Tx) LargeSize(r Ref) (uint64, error) { return tx.s.core.LargeSize(r) }

// WriteLarge bulk-loads data into the multi-page object at r.
func (tx *Tx) WriteLarge(r Ref, data []byte, off uint64) error {
	return tx.s.core.LargeWrite(r, data, off)
}

// Stats summarizes the virtual-memory and I/O activity of the session.
type Stats struct {
	Faults       int64 // protection violations handled
	Accesses     int64 // loads/stores issued through the space
	ClientReads  int64 // page-shipping requests to the server
	DiskReads    int64 // server buffer misses
	SwizzledPtrs int64 // pointers rewritten due to frame collisions
	MmapCalls    int64 // protection/mapping changes
	MappedPages  int   // page descriptors in the current mapping
	Relocations  int64 // page ranges assigned new addresses
	LogRecords   int64 // log records generated
	// Mapping-object read-ahead, the default fault path (DESIGN.md §8).
	PrefetchIssued int64 // pages asked for ahead of any use
	PrefetchHits   int64 // faults satisfied by a speculative frame
	PrefetchWasted int64 // speculative frames never used
	// Lock-ahead, the write-fault path (DESIGN.md §18): exclusive page locks
	// that arrived with another page's lock request.
	LockAheadUsed   int64 // later asked for: a round trip saved
	LockAheadWasted int64 // held to transaction end unasked
	SimulatedMs     float64
}

// Stats reports the session's counters.
func (s *Store) Stats() Stats {
	snap := s.clock.Snapshot()
	_, lockUsed, lockWasted := s.client.LocksAhead()
	return Stats{
		Faults:         s.core.Space().Faults(),
		Accesses:       s.core.Space().Accesses(),
		ClientReads:    snap.Count(sim.CtrClientRead),
		DiskReads:      snap.Count(sim.CtrServerDiskRead),
		SwizzledPtrs:   snap.Count(sim.CtrSwizzledPtr),
		MmapCalls:      snap.Count(sim.CtrMmapCall),
		MappedPages:    s.core.DescCount(),
		Relocations:    s.core.Relocations(),
		LogRecords:     snap.Count(sim.CtrLogRecord),
		PrefetchIssued: snap.Count(sim.CtrPrefetchIssued),
		PrefetchHits:   snap.Count(sim.CtrPrefetchHit),
		PrefetchWasted: snap.Count(sim.CtrPrefetchWasted),

		LockAheadUsed:   lockUsed,
		LockAheadWasted: lockWasted,
		SimulatedMs:     snap.ElapsedMicros() / 1000,
	}
}

// ServerStats fetches the embedded page server's statistics snapshot
// (the OpStats protocol op): pool occupancy and hit rates, log volume,
// disk I/O, and pages served in reads that carry read-ahead.
func (s *Store) ServerStats() (*esm.ServerStats, error) {
	return s.client.ServerStats()
}

// DropCaches empties the client and server pools, making the next accesses
// cold (useful to observe faulting behaviour).
func (s *Store) DropCaches() error {
	if s.inTx {
		return errors.New("quickstore: DropCaches inside a transaction")
	}
	s.client.DropCaches()
	return s.srv.DropCaches()
}

// FrameOf formats a reference for diagnostics.
func FrameOf(r Ref) string {
	return fmt.Sprintf("frame %#x + %d", uint64(vmem.Addr(r).FrameBase()), vmem.Addr(r).Offset())
}
