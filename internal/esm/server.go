package esm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quickstore/internal/buffer"
	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/lock"
	"quickstore/internal/mvcc"
	"quickstore/internal/pagedelta"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// ErrMVCCDisabled rejects snapshot ops on a server running without a
// version store (ServerConfig.MVCC off). It travels to clients as a
// non-retryable remote error: a deployment either supports snapshot reads
// everywhere or nowhere, so failing over to another replica cannot help.
var ErrMVCCDisabled = errors.New("esm: snapshot reads disabled (server runs without MVCC)")

// snapshotBehindPrefix marks the read-your-writes rejection: the serving
// node's snapshot LSN is below the client's last-seen commit LSN. The
// replication Director recognizes it (IsSnapshotBehind) and retries the
// begin elsewhere, exactly like a not-leader redirect.
const snapshotBehindPrefix = "esm: snapshot behind client"

// IsSnapshotBehind reports whether err is a read-your-writes rejection
// from OpBeginSnapshot — the contacted node has not yet applied a commit
// the client already saw acknowledged.
func IsSnapshotBehind(err error) bool {
	return err != nil && strings.Contains(err.Error(), snapshotBehindPrefix)
}

// SnapshotBehindError formats the wire error for a read-your-writes
// rejection. Exported for internal/repl, whose followers answer snapshot
// begins without an esm.Server.
func SnapshotBehindError(serving, saw uint64) string {
	return fmt.Sprintf("%s: serving at %d, client saw %d", snapshotBehindPrefix, serving, saw)
}

// DefaultServerBufferPages is the server pool's capacity, the paper's 36 MB.
// It bounds the pool's memory; what the pool holds is the high-water mark of
// its resident pages in 64-frame slabs, since a frame gets its image on
// first use.
const DefaultServerBufferPages = 4608

// maxCatalogBytes bounds the catalog's serialized image to what fits in one
// page beside a 4-byte length.
const maxCatalogBytes = disk.PageSize - 4

// catalog is the server's persistent name service: persistent counters
// (QuickStore's global frame counter lives here), the file table and the
// next transaction id. It is durable through the log alone: every change
// appends the whole image as a wal.RecCatalog record (logCatalogLocked), and
// OpenServer takes the last image in the log. Named roots are not here: they
// are transactional data, entries of the root directory page (dirPage).
type catalog struct {
	Counters map[string]uint64 `json:"counters"`
	Files    map[string]uint32 `json:"files"`
	NextFile uint32            `json:"next_file"`
	NextTx   uint64            `json:"next_tx"`
}

// newCatalog is the catalog of a fresh store.
func newCatalog() catalog {
	return catalog{
		Counters: map[string]uint64{},
		Files:    map[string]uint32{},
		NextFile: 1,
		NextTx:   1,
	}
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	BufferPages int           // server pool size; 0 = DefaultServerBufferPages
	LockTimeout time.Duration // lock wait timeout; 0 = 1s
	Clock       *sim.Clock    // cost-model clock; nil = free clock

	// CommitWindow is the group-commit batching window (wal.SetCommitWindow):
	// a commit that becomes log-force leader waits this long for concurrent
	// committers to join its batch. 0 forces immediately (deterministic
	// single-session behavior; concurrent commits still piggyback on a
	// force in progress).
	CommitWindow time.Duration

	// Fault, when non-nil, arms the server's named crash points for the
	// crash drill. The volume and log should be wrapped with the same
	// plane (disk.WithHook, Log.FlushHook) so disk and log I/O share the
	// crashed latch. nil (production) costs one pointer check per point.
	Fault *faultinject.Plane

	// MVCC enables the version store (internal/mvcc): page installs retain
	// before-images so read-only sessions can run against a consistent
	// snapshot LSN without ever touching the lock manager. Off by default —
	// the paper's experiments predate snapshot reads and must not see a
	// byte of difference from them.
	MVCC bool

	// MVCCMaxBytes caps version-store memory (0 = mvcc.DefaultMaxBytes,
	// negative = unbounded). Readers whose snapshot falls behind an
	// eviction get ErrSnapshotTooOld and must begin a fresh snapshot.
	MVCCMaxBytes int
}

// Server is the page server: it owns the volume, the server buffer pool,
// the write-ahead log, and the lock manager, and answers the protocol ops.
//
// The server is concurrent: protocol dispatch takes no global lock, so
// page reads, batch fills, installs, and log appends from different client
// sessions overlap, including their disk I/O. Shared state is partitioned:
//
//   - pool (buffer.LatchPool) is internally synchronized with striped
//     latches; all page I/O runs outside any server lock, with per-page
//     in-flight dedup.
//   - log (wal.Log) and vol (disk.Volume) carry their own locks; commit
//     forces go through the log's group-commit path.
//   - locks (lock.Manager) is internally synchronized with FIFO waiters.
//   - mu — the one narrow server lock — guards only the catalog, the
//     transaction table (txs) and the commit state beside it (decisions,
//     lastCommitLSN). A catalog change appends its image to the log under
//     the same hold of mu, so log order is change order.
//
// Lock order: mu → (wal.Log.mu | volume lock). Pool stripe latches and
// frame content latches are taken without mu held; the pool's FlushFn
// (steal write-back) runs under a frame content latch and takes the log
// and volume locks, never mu. sim.Clock, faultinject.Plane, and
// lock.Manager locks are leaves.
type Server struct {
	mu    sync.Mutex
	vol   disk.Volume
	pool  *buffer.LatchPool
	log   *wal.Log
	locks *lock.Manager
	clock *sim.Clock
	fault *faultinject.Plane
	cat   catalog

	// txs (under mu) is the transaction table: one entry per live
	// transaction, from its begin (or its restart as an in-doubt
	// participant) until it retires.
	txs map[uint64]txState

	// decisions (under mu) is the 2PC coordinator side: commit verdicts
	// remembered for OpResolveTx inquiries until every participant
	// acknowledged (ResolveModeForget); their RecDecision LSNs pin the
	// checkpoint cut so the verdict survives re-crashes.
	decisions map[uint64]wal.LSN

	// lastCommitLSN (under mu) is the LSN of the newest commit record.
	// It is the snapshot point handed to OpBeginSnapshot: everything
	// committed at or below it is visible, everything after is not.
	lastCommitLSN wal.LSN

	// mv, when non-nil, is the version store backing snapshot reads.
	// Leaf lock: called under mu on the commit/begin-snapshot paths
	// (atomicity with lastCommitLSN), without mu on capture and lookup.
	mv *mvcc.Store

	// coh is the warm-cache coherence state (DESIGN.md §18): the per-page
	// version table, its boot epoch, and the page-change index. Its own
	// lock is taken under mu (commit/abort bookkeeping) and under frame
	// content latches (abort undo), never the other way around.
	coh *cohState

	// snapFloor is the oldest snapshot LSN this server can serve
	// faithfully: a reopened server's version store is empty, so a
	// snapshot pinned before the restart (a failover survivor) could be
	// shown commits it should not see. Reads below the floor are refused
	// with ErrSnapshotTooOld; the session re-begins a fresh snapshot.
	snapFloor wal.LSN

	// repl gates every commit and prepare ack on a replication quorum
	// (set via SetRepl; read under mu). A server with no replicas holds
	// soloQuorum, whose wait returns at once.
	repl QuorumWaiter

	// Coherence counters: ReadCheck requests served, Begin horizons
	// answered "too old", not-modified answers, delta repairs (and their
	// encoded bytes), and full-page answers to live reads. Atomics: stats
	// reads race ops by design.
	cohValidates   atomic.Int64
	cohFeedStale   atomic.Int64
	cohNotModified atomic.Int64
	cohDeltas      atomic.Int64
	cohDeltaBytes  atomic.Int64
	cohFulls       atomic.Int64
	cohFullBytes   atomic.Int64

	// prefetchPages counts the entries of live OpReadPages requests of two
	// or more, which carry read-ahead: a pump's batches, and demand reads
	// with hints riding behind the demanded page (counted too); commits
	// counts committed transactions; snapBegins/snapReads count snapshot
	// sessions opened and pages served on the lock-free snapshot path;
	// pagesLogApplied/pagesInstalled count the two ways a transaction's bytes
	// reach the pool (applyPayload page runs, installPage images);
	// lockAheadGranted/lockAheadRefused count the verdicts on OpLock
	// lock-ahead entries. Atomics: stats reads race concurrent ops by design.
	prefetchPages   atomic.Int64
	commits         atomic.Int64
	snapBegins      atomic.Int64
	snapReads       atomic.Int64
	pagesLogApplied atomic.Int64
	pagesInstalled  atomic.Int64

	lockAheadGranted atomic.Int64
	lockAheadRefused atomic.Int64

	// Transport-layer counters, maintained by Serve across every TCP
	// connection (the in-proc transport never touches them). Atomics for
	// the same reason as above.
	netInFlight   atomic.Int64
	netInFlightHW atomic.Int64
	netFlushes    atomic.Int64
	netFrames     atomic.Int64
	netBytesOut   atomic.Int64
}

// txState is one entry of the transaction table. first is the LSN of the
// transaction's earliest record (its begin record): the fuzzy checkpoint's
// log cut never passes it, since every record the transaction could still
// need for undo sits at or beyond it. last heads the transaction's PrevLSN
// chain. prep is set by a prepare (or by restart, for an in-doubt
// participant) and holds the 2PC participant state until the decision.
type txState struct {
	first, last wal.LSN
	prep        *preparedTx
}

// noteNetRequest tracks a decoded request entering server-side dispatch.
// The high-water store is racy by design: the mark is advisory telemetry,
// and a lost update can only under-report by the width of the race. The
// nil-receiver guards let Serve run handlers that expose no stats server
// (a follower repl.Node before promotion).
func (s *Server) noteNetRequest() {
	if s == nil {
		return
	}
	if n := s.netInFlight.Add(1); n > s.netInFlightHW.Load() {
		s.netInFlightHW.Store(n)
	}
}

// doneNetRequest balances noteNetRequest when the worker finishes.
func (s *Server) doneNetRequest() {
	if s == nil {
		return
	}
	s.netInFlight.Add(-1)
}

// noteNetFlush records one coalesced response flush of `frames` frames and
// `bytes` total bytes.
func (s *Server) noteNetFlush(frames, bytes int64) {
	if s == nil {
		return
	}
	s.netFlushes.Add(1)
	s.netFrames.Add(frames)
	s.netBytesOut.Add(bytes)
}

// ReplStats is the replication slice of ServerStats, produced by the
// attached QuorumWaiter (internal/repl). Defined here so the stats payload
// marshals from one package without an esm→repl import cycle.
type ReplStats struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Leader         string `json:"leader"`
	Quorum         int    `json:"quorum"`
	Followers      int    `json:"followers"`
	Elections      int64  `json:"elections"`
	QuorumCommits  int64  `json:"quorum_commits"`
	QuorumWaitNs   int64  `json:"quorum_wait_ns"`
	ShipRounds     int64  `json:"ship_rounds"`
	ShipBytes      int64  `json:"ship_bytes"`
	SnapshotsSent  int64  `json:"snapshots_sent"`
	DurableLSN     uint64 `json:"durable_lsn"`
	QuorumLSN      uint64 `json:"quorum_lsn"`
	MaxFollowerGap uint64 `json:"max_follower_gap"` // LSN bytes the laggiest follower trails the leader's durable prefix
}

// QuorumWaiter gates commit acknowledgements on replication. WaitQuorum
// returns once the log is durable through lsn on the configured quorum of
// replicas (counting the local one); that covers every record below lsn,
// catalog records included. A WaitQuorum error means the commit must NOT
// be acked — the caller's client sees the transaction as in doubt.
// Checkpointed hands the replicas a checkpoint's cut: the log now starts
// at cut, and every transaction with a record below it ended below through,
// the log's durable end at the checkpoint. It returns once the replicas it
// waits for have cut there too, or gave up on; it never fails the
// checkpoint. Implemented by internal/repl's Node; wired with SetRepl.
type QuorumWaiter interface {
	WaitQuorum(lsn wal.LSN) error
	Checkpointed(cut, through wal.LSN)
	ReplStats() *ReplStats
}

// soloQuorum is the quorum gate of a server with no replicas: the local
// log force is the whole quorum, so the wait returns at once, there is no
// replica to cut, and there is no replication telemetry to report.
type soloQuorum struct{}

func (soloQuorum) WaitQuorum(wal.LSN) error  { return nil }
func (soloQuorum) Checkpointed(_, _ wal.LSN) {}
func (soloQuorum) ReplStats() *ReplStats     { return nil }

// SetRepl attaches the replication quorum gate. Call before the server
// serves traffic (or from the repl node's own promotion path, which owns
// the server exclusively until it publishes it).
func (s *Server) SetRepl(q QuorumWaiter) {
	s.mu.Lock()
	s.repl = q
	s.mu.Unlock()
}

// quorumGate returns the quorum gate, read under mu.
func (s *Server) quorumGate() QuorumWaiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl
}

// ServerStats is the JSON payload returned in OpStats responses; it backs
// the `qsstore stats` subcommand.
//
// BufferPages is the pool's capacity; PoolAllocatedPages the frames it has
// allocated images for (buffer.LatchPool.Allocated), its real footprint.
type ServerStats struct {
	BufferPages        int   `json:"buffer_pages"`
	Resident           int   `json:"resident_pages"`
	PoolAllocatedPages int   `json:"pool_allocated_pages"`
	PoolHits           int64 `json:"pool_hits"`
	PoolMisses         int64 `json:"pool_misses"`
	PoolEvicted        int64 `json:"pool_evicted"`
	AllocatedPages     int   `json:"allocated_pages"`
	LogRecords         int64 `json:"log_records"`
	LogBytes           int64 `json:"log_bytes"`
	DiskReads          int64 `json:"disk_reads"`
	DiskWrites         int64 `json:"disk_writes"`
	PrefetchPages      int64 `json:"prefetch_pages_served"`
	Commits            int64 `json:"commits"`
	LogForces          int64 `json:"log_forces"`
	LogPiggybacks      int64 `json:"log_piggybacks"`

	// How transactions' bytes reached the pool. PagesLogApplied counts page
	// runs redone from log batches (the page itself never crossed the
	// wire); PagesInstalled counts whole page images received by steal,
	// commit, or prepare. A log-covered workload sliding back to whole-image
	// shipping shows up as the second growing against the first.
	PagesLogApplied int64 `json:"pages_log_applied"`
	PagesInstalled  int64 `json:"pages_installed"`

	// Lock-manager traffic. The snapshot-read acceptance check is a delta
	// of LockGrants across a read sweep: the MVCC path must leave it flat.
	// LockAheadGranted/LockAheadRefused count the entries of OpLock
	// lock-ahead lists: locks handed out without a round trip of their own
	// (each is also a LockGrants grant), and those a peer stood in the way of.
	LockGrants       int64 `json:"lock_grants"`
	LockWaits        int64 `json:"lock_waits"`
	LockAheadGranted int64 `json:"lock_ahead_granted,omitempty"`
	LockAheadRefused int64 `json:"lock_ahead_refused,omitempty"`

	// Snapshot-read counters; MVCC carries the version-store internals
	// and is present only when ServerConfig.MVCC is on.
	SnapBegins int64       `json:"snap_begins,omitempty"`
	SnapReads  int64       `json:"snap_reads,omitempty"`
	MVCC       *mvcc.Stats `json:"mvcc,omitempty"`

	// Transport-layer counters, nonzero only when clients arrive over TCP
	// (Serve). NetFrames/NetFlushes is the response coalescing ratio;
	// NetBytesOut/NetFrames is the mean response frame size.
	NetInFlightHW int64 `json:"net_inflight_hw"`
	NetFlushes    int64 `json:"net_flushes"`
	NetFrames     int64 `json:"net_frames"`
	NetBytesOut   int64 `json:"net_bytes_out"`

	// Repl is present only when the server runs under internal/repl:
	// quorum-commit, shipping, and election telemetry.
	Repl *ReplStats `json:"repl,omitempty"`

	// Warm-cache coherence traffic. CohValidates counts ReadCheck requests
	// (Begin validations); CohFeedStale Begin horizons the change feed
	// answered "too old" — another server's, trimmed out of the ring, or
	// more changed pages than one ReadCheck takes — each of which cost the
	// session a validation of its whole resident set; CohNotModified live
	// read entries answered "current", which ship no page bytes; CohDeltas
	// entries answered by patch (CohDeltaBytes patch payload total);
	// CohFulls live read entries answered with a whole-page image
	// (CohFullBytes their payload total: sparse images, raw where the
	// runs would not be shorter).
	// CohIndexEntries is the size of the page-change index the deltas are
	// made from (changes and version marks since the last checkpoint); it
	// has no byte cap, and a checkpoint empties it down to its cut.
	CohValidates    int64 `json:"coh_validates,omitempty"`
	CohFeedStale    int64 `json:"coh_feed_stale,omitempty"`
	CohNotModified  int64 `json:"coh_not_modified,omitempty"`
	CohDeltas       int64 `json:"coh_deltas,omitempty"`
	CohDeltaBytes   int64 `json:"coh_delta_bytes,omitempty"`
	CohFulls        int64 `json:"coh_fulls,omitempty"`
	CohFullBytes    int64 `json:"coh_full_bytes,omitempty"`
	CohIndexEntries int64 `json:"coh_index_entries,omitempty"`
}

// NewServer creates a server over a fresh volume: the root directory page is
// allocated, empty, and the empty catalog's image is the log's first record.
func NewServer(vol disk.Volume, log *wal.Log, cfg ServerConfig) (*Server, error) {
	s, err := newServerCommon(vol, log, cfg)
	if err != nil {
		return nil, err
	}
	pid, err := vol.Allocate(1)
	if err != nil {
		return nil, err
	}
	if pid != dirPage {
		return nil, fmt.Errorf("esm: root directory allocated at %d, want %d", pid, dirPage)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cat = newCatalog()
	return s, s.logCatalogLocked()
}

// RedoBefore brings a replica's volume up to every record of its log below
// cut, its leader's checkpoint cut (wal.RedoBefore), with the page access
// and page-header layout restart recovery uses.
func RedoBefore(vol disk.Volume, log *wal.Log, cut, through wal.LSN) error {
	return wal.RedoBefore(log, volStore{vol}, cut, through, disk.PageSize, pageLSNOf, setPageLSN)
}

// OpenServer attaches a server to an existing volume, running restart
// recovery from the log and taking the catalog from the last image in it.
// It runs before the server is shared, so no locking applies yet.
func OpenServer(vol disk.Volume, log *wal.Log, cfg ServerConfig) (*Server, error) {
	rec, err := wal.Recover(log, volStore{vol}, disk.PageSize, pageLSNOf, setPageLSN)
	if err != nil {
		return nil, fmt.Errorf("esm: restart recovery: %w", err)
	}
	// Recovery flushed the log, so its durable end is final: the server is
	// built only now, and its warm-cache epoch (newCohState) is that end.
	// Every token handed out before the restart misses against it — no
	// survivor of a crash or a replication failover (a promoted follower
	// comes through here too) is told "not modified" about bytes recovery
	// changed, and no page is read to make it so.
	s, err := newServerCommon(vol, log, cfg)
	if err != nil {
		return nil, err
	}
	// Recovery's analysis pass also found the last catalog image, the next
	// transaction id (ids are never reused), and the remembered coordinator
	// decisions: they resurface from their RecDecision records, since a
	// forget is memory-only and a restart conservatively re-remembers.
	s.decisions = rec.Decisions
	s.cat = newCatalog()
	switch {
	case rec.Catalog != nil:
		if err := json.Unmarshal(rec.Catalog, &s.cat); err != nil {
			return nil, fmt.Errorf("esm: corrupt catalog image: %w", err)
		}
	case log.StartLSN() > 1:
		// A checkpoint appends an image before it cuts the log, so a
		// truncated log without one is not this store's.
		return nil, errors.New("esm: the truncated log holds no catalog image")
	}
	s.cat.NextTx = max(s.cat.NextTx, rec.NextTx)
	// 2PC participant transactions whose verdict is unknown stay alive
	// across the restart: locks re-acquired, records pinned against
	// truncation, resolution deferred to an OpResolveTx inquiry.
	if err := s.registerInDoubt(rec.InDoubt); err != nil {
		return nil, err
	}
	// Everything the recovered log resolved is reflected in live pages, so
	// the durable end of the log is a valid (and maximal) snapshot point.
	// Starting here keeps read-your-writes monotone across a restart or a
	// failover promotion: no previously acknowledged commit has a higher LSN.
	s.lastCommitLSN = log.FlushedLSN()
	s.snapFloor = s.lastCommitLSN
	return s, nil
}

func newServerCommon(vol disk.Volume, log *wal.Log, cfg ServerConfig) (*Server, error) {
	if cfg.BufferPages == 0 {
		cfg.BufferPages = DefaultServerBufferPages
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewClock(sim.CostModel{})
	}
	s := &Server{
		vol:       vol,
		pool:      buffer.NewLatchPool(cfg.BufferPages),
		log:       log,
		locks:     lock.New(cfg.LockTimeout),
		clock:     cfg.Clock,
		fault:     cfg.Fault,
		txs:       map[uint64]txState{},
		decisions: map[uint64]wal.LSN{},
		coh:       newCohState(log.FlushedLSN()),
		repl:      soloQuorum{},
	}
	if cfg.MVCC {
		s.mv = mvcc.New(cfg.MVCCMaxBytes)
	}
	log.SetCommitWindow(cfg.CommitWindow)
	s.pool.FlushFn = func(pid disk.PageID, data []byte) error {
		if err := s.fault.Hit(faultinject.PtStealBeforeLogFlush); err != nil {
			return err
		}
		// WAL rule on the steal path: before a dirty page may overwrite
		// its volume copy, the log must be durable through that page's
		// pageLSN, or a crash after the write leaves an uncommitted page
		// on disk with no before-images to undo it.
		if err := s.log.FlushTo(wal.LSN(pageLSNOf(data))); err != nil {
			return err
		}
		if err := s.fault.Hit(faultinject.PtStealAfterLogFlush); err != nil {
			return err
		}
		s.clock.ChargeShared(sim.CtrServerDiskWrite, 1)
		return s.vol.WritePage(pid, data)
	}
	return s, nil
}

// volStore adapts a Volume to wal.PageStore. Restart recovery can meet
// log records for pages a crash left beyond the volume's (possibly stale)
// geometry — allocated and logged, but never flushed before the process
// died — so out-of-range pages are grown into existence rather than
// failing recovery.
type volStore struct{ v disk.Volume }

// ReadPage implements wal.PageStore.
func (vs volStore) ReadPage(id uint32, buf []byte) error {
	err := vs.v.ReadPage(disk.PageID(id), buf)
	if errors.Is(err, disk.ErrPageOutOfRange) {
		if gerr := vs.v.Grow(id + 1); gerr != nil {
			return gerr
		}
		return vs.v.ReadPage(disk.PageID(id), buf)
	}
	return err
}

// WritePage implements wal.PageStore.
func (vs volStore) WritePage(id uint32, buf []byte) error {
	err := vs.v.WritePage(disk.PageID(id), buf)
	if errors.Is(err, disk.ErrPageOutOfRange) {
		if gerr := vs.v.Grow(id + 1); gerr != nil {
			return gerr
		}
		return vs.v.WritePage(disk.PageID(id), buf)
	}
	return err
}

// pageLSNOf reads the LSN of a header-bearing (slotted/btree) page.
// Raw large-object data pages never appear in byte-range log records: they
// always ship whole (steal, commit, prepare), so redo and recovery only
// ever consult the LSN of header-bearing pages.
func pageLSNOf(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf[:8])
}

func setPageLSN(buf []byte, lsn uint64) { binary.LittleEndian.PutUint64(buf[:8], lsn) }

// logCatalogLocked appends the image of the catalog, just changed under
// mu, to the log. Nothing forces it: the next commit on this server forces
// and quorum-gates every lower LSN, so the change is durable with that
// commit. An image over maxCatalogBytes is refused and not logged: the op
// that made the change then puts the catalog back as it was.
func (s *Server) logCatalogLocked() error {
	img, err := json.Marshal(&s.cat)
	if err != nil {
		return err
	}
	if len(img) > maxCatalogBytes {
		return fmt.Errorf("esm: catalog too large (%d bytes)", len(img))
	}
	s.log.Append(wal.Record{Type: wal.RecCatalog, New: img})
	return nil
}

// Handle executes one protocol request. It never returns a nil response;
// errors travel in Response.Err. Handle is safe for concurrent use: the
// transport layer calls it from one goroutine per client connection.
func (s *Server) Handle(req *Request) *Response {
	resp, err := s.handle(req)
	if err != nil {
		resp = pooledResponse()
		resp.Err = err.Error()
	} else if resp == nil {
		resp = pooledResponse()
	}
	return resp
}

// answerN returns a pooled Response carrying n: every answer a Server
// builds comes from respPool, and whoever holds it last releases it
// (Response.Release).
func answerN(n uint64) *Response {
	resp := pooledResponse()
	resp.N = n
	return resp
}

func (s *Server) handle(req *Request) (*Response, error) {
	if s.fault.Crashed() {
		// An armed crash fired: the process is dead until the drill
		// restarts it. Every request fails unrun, including ones whose
		// own path carries no instrumented point.
		return nil, faultinject.ErrDown
	}
	switch req.Op {
	case OpBegin:
		if len(req.Data) != 0 && len(req.Data) != HorizonBytes {
			return nil, fmt.Errorf("esm: begin horizon of %d bytes, want %d", len(req.Data), HorizonBytes)
		}
		return s.beginFeed(s.beginTx(), req.Data), nil

	case OpReadPages:
		return s.readPages(req)

	case OpLog:
		pl, last, err := s.checkPayload(req.Tx, req.Data)
		if err != nil {
			return nil, err
		}
		lsn, err := s.applyPayload(req.Tx, pl, last)
		if err != nil {
			return nil, err
		}
		return answerN(uint64(lsn)), nil

	case OpCommit:
		lsn, err := s.commitOp(req.Tx, req.Data)
		if err != nil {
			return nil, err
		}
		// The commit LSN rides back: it is the token of every page the
		// commit installed, and the session's last-seen commit for
		// read-your-writes snapshot begins.
		return answerN(uint64(lsn)), nil

	case OpAbort:
		return nil, s.abort(req.Tx)

	case OpAllocPages:
		pid, err := s.vol.Allocate(int(req.N))
		if err != nil {
			return nil, err
		}
		resp := pooledResponse()
		resp.Page = uint32(pid)
		return resp, nil

	case OpFreePages:
		return nil, s.vol.Free(disk.PageID(req.Page), int(req.N))

	case OpLock:
		return s.lockPages(req)

	case OpCreateFile:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.cat.Files[req.Name]; ok {
			return nil, fmt.Errorf("esm: file %q exists", req.Name)
		}
		id := s.cat.NextFile
		s.cat.NextFile++
		s.cat.Files[req.Name] = id
		if err := s.logCatalogLocked(); err != nil {
			s.cat.NextFile--
			delete(s.cat.Files, req.Name)
			return nil, err
		}
		return answerN(uint64(id)), nil

	case OpOpenFile:
		s.mu.Lock()
		defer s.mu.Unlock()
		id, ok := s.cat.Files[req.Name]
		if !ok {
			return nil, fmt.Errorf("esm: no file %q", req.Name)
		}
		return answerN(uint64(id)), nil

	case OpCounter:
		s.mu.Lock()
		defer s.mu.Unlock()
		old, had := s.cat.Counters[req.Name]
		if req.N == 0 {
			return answerN(old), nil // a read: nothing to log
		}
		s.cat.Counters[req.Name] = old + req.N
		if err := s.logCatalogLocked(); err != nil {
			if had {
				s.cat.Counters[req.Name] = old
			} else {
				delete(s.cat.Counters, req.Name)
			}
			return nil, err
		}
		return answerN(old), nil

	case OpCheckpoint:
		return nil, s.checkpoint()

	case OpStats:
		hits, misses, evicted := s.pool.Stats()
		grants, waits := s.locks.Stats()
		st := ServerStats{
			BufferPages:        s.pool.Len(),
			Resident:           s.pool.Resident(),
			PoolAllocatedPages: s.pool.Allocated(),
			PoolHits:           hits,
			PoolMisses:         misses,
			PoolEvicted:        evicted,
			AllocatedPages:     int(s.vol.AllocatedPages()),
			LogRecords:         s.log.Records(),
			LogBytes:           s.log.Bytes(),
			DiskReads:          s.clock.SharedCount(sim.CtrServerDiskRead),
			DiskWrites:         s.clock.SharedCount(sim.CtrServerDiskWrite),
			PrefetchPages:      s.prefetchPages.Load(),
			Commits:            s.commits.Load(),
			LogForces:          s.log.Forces(),
			LogPiggybacks:      s.log.Piggybacks(),

			PagesLogApplied: s.pagesLogApplied.Load(),
			PagesInstalled:  s.pagesInstalled.Load(),

			LockGrants:       grants,
			LockWaits:        waits,
			LockAheadGranted: s.lockAheadGranted.Load(),
			LockAheadRefused: s.lockAheadRefused.Load(),
			SnapBegins:       s.snapBegins.Load(),
			SnapReads:        s.snapReads.Load(),
			NetInFlightHW:    s.netInFlightHW.Load(),
			NetFlushes:       s.netFlushes.Load(),
			NetFrames:        s.netFrames.Load(),
			NetBytesOut:      s.netBytesOut.Load(),
			CohValidates:     s.cohValidates.Load(),
			CohFeedStale:     s.cohFeedStale.Load(),
			CohNotModified:   s.cohNotModified.Load(),
			CohDeltas:        s.cohDeltas.Load(),
			CohDeltaBytes:    s.cohDeltaBytes.Load(),
			CohFulls:         s.cohFulls.Load(),
			CohFullBytes:     s.cohFullBytes.Load(),
			CohIndexEntries:  int64(s.coh.indexEntries()),
		}
		st.Repl = s.quorumGate().ReplStats()
		if s.mv != nil {
			mst := s.mv.Stats()
			st.MVCC = &mst
		}
		blob, err := json.Marshal(&st)
		if err != nil {
			return nil, err
		}
		resp := answerN(uint64(st.Resident))
		resp.Data = blob
		return resp, nil

	case OpBeginSnapshot:
		return s.beginSnapshot(wal.LSN(req.N))

	case OpEndSnapshot:
		return s.endSnapshot(wal.LSN(req.N))

	case OpPrepare:
		if req.Mode != 0 {
			// A router that still prepares its coordinator: its decision
			// would find the transaction prepared and be refused anyway.
			return nil, fmt.Errorf("esm: prepare of tx %d with mode %d: a prepare carries no mode (the coordinator does not prepare)", req.Tx, req.Mode)
		}
		lsn, err := s.prepare(req.Tx, req.Page, req.N, req.Data)
		if err != nil {
			return nil, err
		}
		return answerN(uint64(lsn)), nil

	case OpCommitDecision:
		lsn, err := s.commitDecision(req.Tx, req.Mode, req.Data)
		if err != nil {
			return nil, err
		}
		return answerN(uint64(lsn)), nil

	case OpResolveTx:
		return s.resolveTx(req)
	}
	return nil, fmt.Errorf("esm: unknown op %v", req.Op)
}

// beginTx opens a transaction: the next id, its RecBegin (the head of its
// record chain) and its transaction-table entry, whose first LSN pins the
// checkpoint cut while it lives. OpBegin and a beginning OpCommit
// (commitOp) share it.
func (s *Server) beginTx() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := s.cat.NextTx
	s.cat.NextTx++
	first := s.log.Append(wal.Record{Tx: tx, Type: wal.RecBegin})
	s.txs[tx] = txState{first: first, last: first}
	return tx
}

// beginFeed builds the response to an OpBegin for tx. A request without a
// horizon gets the bare transaction id. One with a horizon gets, in a pooled
// buffer the response owns (Response.Release), the change
// feed since it (cohState.feedSince) in Data, or, when the feed cannot
// answer it, the current horizon alone under RespStale: the client then
// validates its whole resident set. A "none" horizon (all zero, a session's
// first Begin) is not counted as a too-old answer.
func (s *Server) beginFeed(tx uint64, horizon []byte) *Response {
	if len(horizon) == 0 {
		return answerN(tx)
	}
	resp := answerN(tx)
	resp.buf = getBuf()
	var ok bool
	*resp.buf, ok = s.coh.feedSince((*resp.buf)[:0], horizon, validateChunk)
	resp.Data = *resp.buf
	if !ok {
		resp.Mode = RespStale
		if binary.LittleEndian.Uint64(horizon) != 0 {
			s.cohFeedStale.Add(1)
		}
	}
	return resp
}

// lockPages serves OpLock. The demanded resource is acquired first and may
// wait (a timeout is ErrDeadlock; the transaction aborts) — a page lock on
// disk.InvalidPage demands nothing and only has its list tried; the entries of the
// lock-ahead list are then tried in order and never wait — TryAcquire takes a
// lock only if no other transaction holds or awaits it — so lock-ahead adds
// no wait-for edge from this transaction to any other.
func (s *Server) lockPages(req *Request) (*Response, error) {
	kind := lock.Kind(req.Mode >> 4)
	mode := lock.Mode(req.Mode & 0xF)
	n, err := PageEntryCount(req.Data)
	if err != nil {
		return nil, err
	}
	if n > 0 && kind != lock.KindPage {
		return nil, fmt.Errorf("esm: lock-ahead list on a %d-kind lock", kind)
	}
	if demanded := kind != lock.KindPage || disk.PageID(req.Page) != disk.InvalidPage; demanded {
		if err := s.locks.Acquire(req.Tx, lock.Resource{Kind: kind, ID: uint64(req.Page)}, mode); err != nil {
			return nil, err
		}
	}
	// Piggybacked staleness check (DESIGN.md §18): a page-lock request
	// carries the token of the client's cached copy — N for the demanded
	// page, one per lock-ahead entry. Commits clear their version-table and
	// pending state before releasing locks, so a version probe after the
	// grant is authoritative: a mismatch means a committed writer got in
	// since the client cached the page, and the client must revalidate before
	// reading the frame. This closes the mid-transaction hole
	// Begin-validation cannot see (cache page, then another client commits,
	// then we lock it).
	resp := pooledResponse()
	if kind == lock.KindPage && req.N != 0 && !s.coh.isCurrent(disk.PageID(req.Page), req.N) {
		resp.Mode = RespStale
	}
	if n == 0 {
		return resp, nil
	}
	// The verdicts go in a pooled buffer the answer owns, each
	// LockAheadRefused (0) until granted.
	resp.buf = getBuf()
	*resp.buf = append((*resp.buf)[:0], make([]byte, n)...)
	resp.Data = *resp.buf
	granted := int64(0)
	for i := range resp.Data {
		pid, token := PageEntry(req.Data, i)
		if !s.locks.TryAcquire(req.Tx, lock.PageRes(pid), mode) {
			continue // LockAheadRefused
		}
		granted++
		resp.Data[i] = LockAheadGranted
		if token != 0 && !s.coh.isCurrent(disk.PageID(pid), token) {
			resp.Data[i] = LockAheadStale
		}
	}
	s.lockAheadGranted.Add(granted)
	s.lockAheadRefused.Add(int64(n) - granted)
	return resp, nil
}

// readPages serves OpReadPages, building every answer straight into one
// pooled response buffer (the Response owns it: see Release). A page is
// read into one pooled scratch image and encoded from there. Each entry is
// served by one of three policies:
//
//   - as of a snapshot (N != 0): snapRead;
//   - under ReadCheck (Begin validation): checkPage;
//   - otherwise, a demand fault, revalidation or read-ahead: fetchPage.
func (s *Server) readPages(req *Request) (*Response, error) {
	n, err := PageEntryCount(req.Data)
	if err != nil {
		return nil, err
	}
	snap, check := wal.LSN(req.N), req.Mode&ReadCheck != 0
	size := n * (answerHeadBytes + disk.PageSize) // every entry answered whole
	switch {
	case snap != 0:
		if s.mv == nil {
			return nil, ErrMVCCDisabled
		}
		if snap < s.snapFloor {
			return nil, fmt.Errorf("esm: snapshot read at %d: %w (server reopened at %d)", snap, mvcc.ErrSnapshotTooOld, s.snapFloor)
		}
	case check:
		s.cohValidates.Add(1)
		size = 0 // mostly current
	case n >= 2:
		s.prefetchPages.Add(int64(n))
	}
	resp := pooledResponse()
	resp.buf = getBuf()
	out := *resp.buf
	if need := 4 + (n+7)/8 + size; cap(out) < need {
		out = make([]byte, 0, need)
	}
	out, bitmap := AppendAnswerHead(out, n)
	scratch := getBuf()
	defer putBuf(scratch)
	if cap(*scratch) < disk.PageSize {
		*scratch = make([]byte, 0, disk.PageSize)
	}
	img := (*scratch)[:disk.PageSize]
	for i := 0; i < n; i++ {
		pid, token := PageEntry(req.Data, i)
		stale := true
		switch {
		case snap != 0:
			out, err = s.snapRead(out, disk.PageID(pid), snap, img)
		case check:
			out, stale = s.checkPage(out, disk.PageID(pid), token, img)
		default:
			out, stale, err = s.fetchPage(out, disk.PageID(pid), token, img)
		}
		if err != nil {
			resp.Release()
			return nil, err
		}
		if stale {
			MarkStale(out, bitmap, i)
		}
	}
	*resp.buf, resp.Data = out, out
	return resp, nil
}

// sealAnswer appends the answer that brings the client's copy of pid
// (token have) to img, the page's current image, served under token: a
// patch when one smaller than the image does it (cohState.appendDelta),
// else the full image.
func (s *Server) sealAnswer(out []byte, pid disk.PageID, img []byte, have, token uint64) []byte {
	if token != 0 {
		at := len(out)
		head := appendAnswerHead(out, uint32(pid), PageDelta, token, 0)
		if withPatch, ok := s.coh.appendDelta(head, img, pid, have); ok {
			n := len(withPatch) - at - answerHeadBytes
			binary.LittleEndian.PutUint32(withPatch[at+13:], uint32(n))
			s.cohDeltas.Add(1)
			s.cohDeltaBytes.Add(int64(n))
			return withPatch
		}
		out = head[:at]
	}
	out, n := AppendFullAnswer(out, uint32(pid), token, img)
	s.cohFulls.Add(1)
	s.cohFullBytes.Add(int64(n))
	return out
}

// fetchPage serves a page a transaction reads: the entry's token is that of
// the client's cached copy (0 for none). A token match answers "current"
// and ships nothing; a token the page-change index can patch from answers a
// pagedelta patch; anything else ships the full page with its token. The
// page is read through the server pool (loadPage), so a read-ahead warms
// the cache for the next client like a demand read does. The not-modified fast path
// charges nothing to the cost model — coherence traffic must leave the
// paper experiments' deterministic counters untouched — while the
// byte-shipping paths charge exactly one page transfer.
func (s *Server) fetchPage(out []byte, pid disk.PageID, token uint64, img []byte) ([]byte, bool, error) {
	ver1, pending1 := s.coh.probe(pid)
	if pending1 == 0 && token != 0 && ver1 == token {
		s.cohNotModified.Add(1)
		return out, false, nil
	}
	if err := s.loadPage(pid, img); err != nil {
		return nil, false, fmt.Errorf("esm: read of page %d: %w", pid, err)
	}
	newTok, current := s.coh.answer(pid, token, ver1, pending1)
	if current {
		s.cohNotModified.Add(1)
		return out, false, nil
	}
	return s.sealAnswer(out, pid, img, token, newTok), true, nil
}

// checkPage serves a ReadCheck entry, one clean resident frame at Begin:
// decide current vs stale, and repair a stale frame in place with a delta
// patch or a full image where a committed image is safely available. A
// stale entry without a repair (an uncommitted install pending on the page,
// an unstable interleaving, a page the volume lost) stays unanswered, and
// the client evicts the frame. The path reads through the non-perturbing
// pool snapshot and charges nothing to the cost model: validation is
// coherence traffic, not simulated I/O, and must not shift the
// deterministic experiment counters.
func (s *Server) checkPage(out []byte, pid disk.PageID, token uint64, img []byte) ([]byte, bool) {
	if s.coh.isCurrent(pid, token) {
		s.cohNotModified.Add(1)
		return out, false
	}
	ver1, pending1 := s.coh.probe(pid)
	if pending1 > 0 {
		// The frame may hold another transaction's uncommitted bytes;
		// there is no committed image to repair from without a lock.
		return out, true
	}
	if !s.pool.Snapshot(pid, img) && s.vol.ReadPage(pid, img) != nil {
		return out, true
	}
	newTok, current := s.coh.answer(pid, token, ver1, pending1)
	if current {
		s.cohNotModified.Add(1)
		return out, false
	}
	if newTok == 0 {
		return out, true
	}
	return s.sealAnswer(out, pid, img, token, newTok), true
}

// beginSnapshot opens a read-only snapshot session at the newest commit
// LSN. lastSeen is the client's read-your-writes floor: a node serving at
// an older LSN (a freshly promoted leader that lost the tail, a lagging
// follower) must refuse rather than silently show the client a past it
// has already read beyond. The pin is taken under mu, atomically with the
// snapshot choice: commits advance lastCommitLSN and retire versions
// under the same lock, so the chosen LSN cannot be reclaimed in between.
func (s *Server) beginSnapshot(lastSeen wal.LSN) (*Response, error) {
	if s.mv == nil {
		return nil, ErrMVCCDisabled
	}
	s.mu.Lock()
	snap := s.lastCommitLSN
	if snap == 0 {
		// Nothing committed yet. Snapshot 0 is the client's no-session
		// sentinel, and LSN 1 can only ever hold a begin record, so a
		// snapshot there is equivalently empty and always valid.
		snap = 1
	}
	if lastSeen > snap {
		s.mu.Unlock()
		return nil, errors.New(SnapshotBehindError(uint64(snap), uint64(lastSeen)))
	}
	s.mv.Pin(snap)
	s.mu.Unlock()
	s.snapBegins.Add(1)
	return answerN(uint64(snap)), nil
}

// snapRead serves one page as of snapshot LSN snap, without consulting the
// lock manager. The live frame is read first (non-perturbing: Snapshot
// leaves reference bits alone and volume reads bypass the pool), the
// version store second. A concurrent writer captures its before-image under
// the store lock before overwriting the frame under the content latch, so
// in either interleaving the bytes for snap are found: if the live read saw
// the new bytes the capture already happened, and if it saw the old bytes
// the pending version holds those same old bytes. The answer is a full
// image without a token: a snapshot copy is never revalidated.
func (s *Server) snapRead(out []byte, pid disk.PageID, snap wal.LSN, img []byte) ([]byte, error) {
	hit, err := s.peekPage(pid, img)
	if err != nil {
		return nil, fmt.Errorf("esm: snapshot read of page %d: %w", pid, err)
	}
	if pid != dirPage { // the root directory is free, as in loadPage
		if !hit {
			s.clock.ChargeShared(sim.CtrServerDiskRead, 1)
		}
		s.clock.ChargeShared(sim.CtrServerBufferHit, 1) // network leg of the transfer
	}
	old, err := s.mv.Lookup(uint32(pid), snap)
	if err != nil {
		return nil, err
	}
	if old != nil {
		copy(img, old)
	}
	s.snapReads.Add(1)
	out, _ = AppendFullAnswer(out, uint32(pid), 0, img)
	return out, nil
}

// endSnapshot releases the pin taken by beginSnapshot. Not idempotent — a
// replayed end would double-unpin someone else's snapshot — so transports
// must not retry it; a lost ack merely delays reclamation until the byte
// cap evicts the orphaned versions.
func (s *Server) endSnapshot(snap wal.LSN) (*Response, error) {
	if s.mv == nil {
		return nil, ErrMVCCDisabled
	}
	s.mv.Unpin(snap)
	return nil, nil
}

// checkpoint writes a fuzzy checkpoint: commits, aborts, installs, and
// snapshot reads all keep flowing while it runs — nothing quiesces.
//
// The protocol:
//
//  1. Choose the log cut under mu: the durable prefix end, lowered to the
//     begin-record LSN of the oldest in-flight transaction. Every record
//     below the cut belongs to a transaction that already resolved.
//  2. Advance the pool's dirty-page epoch, AFTER choosing the cut. A
//     transaction that resolves between the two steps dirtied its frames
//     before the epoch moved, so the generation walk below still covers
//     it; a transaction that begins after the cut was chosen only writes
//     records at or beyond it. Either way no redo is lost.
//  3. Walk the pre-cut generation to the volume (FlushBefore). Frames
//     dirtied after the epoch advanced are skipped — their covering
//     records survive the cut — so hot pages cannot stall the walk by
//     being redirtied. Write-back failures restore the old stamp; retry
//     until the generation drains or give up without truncating.
//  4. Force the log, sync the volume, and only then cut the log prefix
//     (TruncateBefore keeps LSNs intact). The catalog's image, appended
//     under mu with the cut chosen, lies at or above the cut, so the
//     retained log always holds one for OpenServer.
//
// Cutting the whole log behind a quiescence check (an empty transaction
// table under mu) would not cover the window between the pool flush and
// the check: a transaction that began AND committed inside that window is
// invisible to the check, its pages sit dirty only in the pool, and the cut
// discards the records that could redo them — a crash then reverts a
// committed transaction. The cut rule closes that window: such a
// transaction's records lie wholly at or beyond the cut and survive.
func (s *Server) checkpoint() error {
	s.mu.Lock()
	cut := s.log.FlushedLSN()
	for _, e := range s.txs {
		cut = min(cut, e.first)
	}
	// Unforgotten commit decisions pin the cut too: a participant may
	// still come asking, and after a re-crash the answer must be found in
	// this log — truncating the RecDecision would turn a committed
	// transaction into a presumed abort.
	for _, lsn := range s.decisions {
		cut = min(cut, lsn)
	}
	err := s.logCatalogLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	epoch := s.pool.AdvanceEpoch()
	for tries := 0; ; tries++ {
		err := s.pool.FlushBefore(epoch)
		if err == nil && s.pool.DirtyBefore(epoch) == 0 {
			break
		}
		if tries >= 16 {
			if err == nil {
				err = fmt.Errorf("esm: checkpoint could not drain %d dirty pages", s.pool.DirtyBefore(epoch))
			}
			return err
		}
	}
	if err := s.log.Flush(); err != nil {
		return err
	}
	through := s.log.FlushedLSN()
	if err := s.fault.Hit(faultinject.PtCheckpointBeforeSync); err != nil {
		return err
	}
	if err := s.vol.Sync(); err != nil {
		return err
	}
	if err := s.fault.Hit(faultinject.PtCheckpointBeforeTruncate); err != nil {
		return err
	}
	if err := s.log.TruncateBefore(cut); err != nil {
		return err
	}
	s.coh.dropBefore(uint64(cut))
	// Nothing is written after the cut: the log file's header carries the
	// LSN base, so even a log the cut emptied reopens where its LSN space
	// left off and never hands out an LSN a page was stamped with before.
	if err := s.fault.Hit(faultinject.PtCheckpointAfterTruncate); err != nil {
		return err
	}
	// The replicas cut where this log now starts: a replica cannot find
	// the cut by itself (a forgotten decision is not logged).
	s.quorumGate().Checkpointed(s.log.StartLSN(), through)
	return nil
}

// loadPage copies pid's image into dst through the server pool and charges
// the cost model one page transfer: the read path of every page a
// transaction reads. The root directory is read past the pool and free
// (peekPage): the 1994 model prices no root lookup, and a directory frame
// would shift the replacement order of the paper's small-pool runs.
func (s *Server) loadPage(pid disk.PageID, dst []byte) error {
	if pid == dirPage {
		_, err := s.peekPage(pid, dst)
		return err
	}
	ref, loaded, err := s.pool.Load(pid, func(buf []byte) error {
		s.clock.ChargeShared(sim.CtrServerDiskRead, 1)
		s.clock.ChargeShared(sim.CtrServerBufferHit, 1) // network leg of the transfer
		return s.vol.ReadPage(pid, buf)
	})
	if err != nil {
		return err
	}
	if !loaded {
		// Buffer hit — or a ride on another session's in-flight read of
		// the same page (the dedup makes it cost the same as a hit).
		s.clock.ChargeShared(sim.CtrServerBufferHit, 1)
	}
	ref.Read(func(data []byte) { copy(dst, data) })
	ref.Release()
	return nil
}

// peekPage copies pid's image into dst without touching the pool's
// replacement state or charging the cost model: the pool's frame if the page
// is resident (Snapshot), else the volume's copy, and all zeroes for a page
// past the volume's geometry, which has no committed image yet. It reports
// whether the pool had the page.
func (s *Server) peekPage(pid disk.PageID, dst []byte) (bool, error) {
	if s.pool.Snapshot(pid, dst) {
		return true, nil
	}
	err := s.vol.ReadPage(pid, dst)
	if errors.Is(err, disk.ErrPageOutOfRange) {
		clear(dst)
		return false, nil
	}
	return false, err
}

// captureBefore runs once per (transaction, page), before that transaction
// first changes the page's bytes in the server pool — by a whole-image
// install or by applying its log records. The coherence table raises the
// page's pending count (versioned reads stop vending tokens for it). With
// the version store on, the page's current image is copied for it, so
// snapshot readers keep seeing the bytes the transaction overwrites: the
// only page copy an update makes. The copy reads through peekPage.
func (s *Server) captureBefore(tx uint64, pid disk.PageID) error {
	if tx == 0 || s.coh.owns(tx, pid) {
		return nil
	}
	if s.mv != nil {
		before := pageScratch.Get().(*[]byte)
		defer pageScratch.Put(before)
		if _, err := s.peekPage(pid, *before); err != nil {
			return err
		}
		s.mv.CaptureBefore(uint32(pid), tx, *before)
	}
	s.coh.own(tx, pid)
	return nil
}

// pageScratch recycles the page-sized buffers captureBefore reads a
// before-image into for the version store, which keeps its own copy, and
// installPage decodes a shipped image into.
var pageScratch = sync.Pool{New: func() any {
	b := make([]byte, disk.PageSize)
	return &b
}}

// installPage places a shipped page in the server pool, dirty: the path of
// every page the client could not vouch for as log-covered (bulk loads, raw
// large-object pages, B-tree pages, plain MarkDirty callers). The page's
// image, checked by ReadPayload, is decoded into a pooled page first. Under
// the content latch the ranges where the page differs from the frame's
// prior bytes enter the page-change index, and a page with a
// header is stamped with the log's last LSN (End-1, its last byte), so no
// record already redone onto it stands above its stamp for restart redo
// and undo; a raw page is not stamped.
func (s *Server) installPage(tx uint64, pid disk.PageID, raw bool, image pagedelta.Image) error {
	buf := pageScratch.Get().(*[]byte)
	defer pageScratch.Put(buf)
	data := *buf
	image.Apply(data)
	ref, err := s.pinForRedo(tx, pid)
	if err != nil {
		return err
	}
	ref.Write(func(dst []byte) {
		key := uint64(s.log.End() - 1)
		s.coh.noteInstall(pid, key, dst, data)
		copy(dst, data)
		if !raw {
			setPageLSN(dst, key)
		}
	})
	ref.MarkDirty()
	ref.Release()
	s.pagesInstalled.Add(1)
	return nil
}

// pinForRedo runs captureBefore for tx and pid and pins the page in the
// pool, reading it from the volume on a miss; a page past the volume's
// geometry starts from zeroes, as its capture did. Nothing is charged to
// the cost model: internal/sim prices the protocol in which the client
// ships this page at commit.
func (s *Server) pinForRedo(tx uint64, pid disk.PageID) (buffer.PageRef, error) {
	if err := s.captureBefore(tx, pid); err != nil {
		return buffer.PageRef{}, err
	}
	ref, _, err := s.pool.Load(pid, func(buf []byte) error {
		err := s.vol.ReadPage(pid, buf)
		if errors.Is(err, disk.ErrPageOutOfRange) {
			clear(buf)
			return nil
		}
		return err
	})
	return ref, err
}

// checkPayload and applyPayload are the one decode-and-apply step of
// OpLog, OpCommit, OpPrepare and a coordinator's OpCommitDecision.
// checkPayload checks the whole payload (ReadPayload), that tx is active
// and that it is not prepared, and appends nothing: a prepared participant
// takes only its verdict (OpCommitDecision, OpAbort), never more updates or
// a commit of its own. It returns the read payload and tx's last LSN.
func (s *Server) checkPayload(tx uint64, data []byte) (Payload, wal.LSN, error) {
	pl, err := ReadPayload(data)
	if err != nil {
		return Payload{}, 0, err
	}
	s.mu.Lock()
	e, active := s.txs[tx]
	s.mu.Unlock()
	if !active {
		return Payload{}, 0, fmt.Errorf("esm: payload for unknown tx %d", tx)
	}
	if e.prep != nil {
		return Payload{}, 0, fmt.Errorf("esm: payload for prepared tx %d: it awaits its coordinator's verdict", tx)
	}
	return pl, e.last, nil
}

// applyPayload appends and redoes each record of a checked payload onto
// the server's own page, as restart recovery would (one content latch and
// one page LSN per record, the frame left dirty), chaining them behind
// last, and then installs the whole pages, whose stamps cover those
// records. A record arrives without its before-images: under the content
// latch, before the redo, the page holds them, and the append writes them
// from there into the log (wal.Log.AppendFilled). It returns tx's last LSN.
func (s *Server) applyPayload(tx uint64, pl Payload, last wal.LSN) (wal.LSN, error) {
	var err error
	for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
		var ref buffer.PageRef
		if ref, err = s.pinForRedo(tx, disk.PageID(rec.Page)); err != nil {
			break
		}
		ref.Write(func(page []byte) {
			last = s.log.AppendFilled(tx, last, &rec, page)
			rec.Redo(page, last, setPageLSN)
			s.coh.noteRecord(rec.Page, last, rec.Regions())
		})
		ref.MarkDirty()
		ref.Release()
		s.pagesLogApplied.Add(1)
	}
	s.mu.Lock()
	s.setLastLocked(tx, last)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for pid, raw, image, ok := pl.Page(); ok; pid, raw, image, ok = pl.Page() {
		if err := s.installPage(tx, disk.PageID(pid), raw, image); err != nil {
			return 0, err
		}
	}
	return last, nil
}

// commit ends live transaction tx as committed: it applies the
// transaction's last commit payload, checked by the caller (applyPayload
// behind last), appends the end record of type rtype (commitLocked:
// RecCommit for an OpCommit, RecDecision for a 2PC coordinator's
// decision) and makes it durable (endCommit). The force and the quorum
// wait cover every lower LSN, so catalog changes (files, roots, counters)
// made on this server before the end record was appended are durable with
// the transaction. The commit LSN is returned so the ack
// can carry it to the session (read-your-writes floor for later snapshot
// begins). With an error, the LSN returned is the end record's once that
// was appended (the outcome is then the log's, in doubt to the client) and
// 0 while the transaction is still open.
func (s *Server) commit(tx uint64, pl Payload, last wal.LSN, rtype wal.RecType) (wal.LSN, error) {
	if _, err := s.applyPayload(tx, pl, last); err != nil {
		return 0, err
	}
	if err := s.fault.Hit(faultinject.PtCommitAfterInstall); err != nil {
		return 0, err
	}
	s.mu.Lock()
	lsn := s.commitLocked(tx, rtype)
	s.mu.Unlock()
	if err := s.fault.Hit(faultinject.PtCohAfterBump); err != nil {
		return lsn, err
	}
	if err := s.endCommit(tx, lsn, rtype == wal.RecDecision); err != nil {
		return lsn, err
	}
	return lsn, nil
}

// commitOp is an OpCommit: the commit of live transaction tx, or, with
// tx TxBegin, of a transaction the request begins itself (the check then
// runs before it exists). A payload refused by its check leaves everything
// as it was: nothing is appended, and an explicit transaction stays open.
// Once the check passed, a refused commit ends its transaction before the
// answer, since the client forgets a transaction whose commit failed:
// while it is open it is aborted, which undoes what the payload applied
// and releases its locks. Once its commit record is appended the outcome is
// the log's, as for any commit whose force or quorum wait failed: a
// transaction this request began, which no later request can name, is
// retired; an explicit one keeps its entry and locks, in doubt. A crashed
// server does neither: its restart reads the log.
func (s *Server) commitOp(tx uint64, data []byte) (wal.LSN, error) {
	begun := tx == TxBegin
	if begun {
		if _, err := ReadPayload(data); err != nil {
			return 0, err
		}
		tx = s.beginTx()
	}
	pl, last, err := s.checkPayload(tx, data)
	if err != nil && !begun {
		return 0, err // refused by its check: an explicit tx stays as it was
	}
	var lsn wal.LSN
	if err == nil {
		lsn, err = s.commit(tx, pl, last, wal.RecCommit)
	}
	switch {
	case err == nil || s.fault.Crashed():
	case lsn == 0:
		if aerr := s.abort(tx); aerr != nil {
			err = errors.Join(err, fmt.Errorf("esm: ending the refused tx %d: %w", tx, aerr))
		}
	case begun:
		s.retire(tx)
	}
	return lsn, err
}

// endCommit is the durability tail of every commit: it forces the log
// through tx's end record at lsn via the group-commit path (concurrent
// committers share one physical force), waits for the quorum, then retires
// tx. twoPC names a commit that ends a 2PC transaction (a coordinator's
// decision, a participant's verdict), which crashes at the decision points
// instead of the commit points. A failed force or quorum wait leaves tx's
// entry and locks in place: the commit is in doubt to its client.
func (s *Server) endCommit(tx uint64, lsn wal.LSN, twoPC bool) error {
	var err error
	if twoPC {
		err = s.fault.Hit(faultinject.PtDecisionBeforeFlush)
	} else {
		err = s.fault.Hit(faultinject.PtCommitBeforeFlush)
	}
	if err != nil {
		return err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return err
	}
	if twoPC {
		err = s.fault.Hit(faultinject.PtDecisionAfterFlush)
	} else {
		err = s.fault.Hit(faultinject.PtCommitAfterFlush)
	}
	if err != nil {
		return err
	}
	// Quorum-before-ack: with replication attached, local durability is not
	// commit durability — the ack waits until a quorum of replicas reports
	// the log durable through this commit's LSN. The wait piggybacks on the
	// shipper's batching the same way FlushCommit piggybacks on group
	// commit: a burst of commits costs one replication round-trip. A
	// single-node server passes straight through.
	q := s.quorumGate()
	if err := s.fault.Hit(faultinject.PtReplBeforeQuorum); err != nil {
		return err
	}
	if err := q.WaitQuorum(lsn); err != nil {
		return err
	}
	if err := s.fault.Hit(faultinject.PtReplAfterQuorum); err != nil {
		return err
	}
	s.retire(tx)
	s.commits.Add(1)
	return nil
}

// setLastLocked makes lsn the head of tx's record chain. It writes the
// entry back only while it exists: a transaction that ended meanwhile
// never comes back into the table.
func (s *Server) setLastLocked(tx uint64, lsn wal.LSN) {
	if e, ok := s.txs[tx]; ok {
		e.last = lsn
		s.txs[tx] = e
	}
}

// commitLocked is the end step commit and commitDecision share, run under
// mu: it appends tx's end record of type rtype (RecCommit, or RecDecision on
// a 2PC coordinator) on its chain and makes it the newest commit. A
// RecDecision is remembered in decisions in the same hold, so an inquiry
// never finds the record appended and the verdict unknown. The
// version store and the coherence table move to the commit LSN in the same
// hold of mu: a snapshot beginning at this LSN must find these versions
// already retired to committed, and a versioned read that sees the new
// bytes must also see the new version (the installed pages' pending counts
// drop).
func (s *Server) commitLocked(tx uint64, rtype wal.RecType) wal.LSN {
	lsn := s.log.Append(wal.Record{PrevLSN: s.txs[tx].last, Tx: tx, Type: rtype})
	s.setLastLocked(tx, lsn)
	s.lastCommitLSN = max(s.lastCommitLSN, lsn)
	if s.mv != nil {
		s.mv.Commit(tx, lsn)
	}
	s.coh.commitTx(tx, uint64(lsn))
	if rtype == wal.RecDecision {
		// Remembered for OpResolveTx inquiries until every participant
		// acknowledged the outcome (ResolveModeForget). Also pins the
		// checkpoint cut: the record must survive truncation so a
		// re-crashed coordinator still finds the verdict in its log.
		s.decisions[tx] = lsn
	}
	return lsn
}

// retire is the last step of every way a transaction ends — commit,
// coordinator decision, abort: its table entry goes, then its locks. A
// lock granted next finds the version table and the pending counts
// already settled.
func (s *Server) retire(tx uint64) {
	s.mu.Lock()
	delete(s.txs, tx)
	s.mu.Unlock()
	s.locks.ReleaseAll(tx)
}

// abort undoes every update record the transaction shipped — each was
// redone onto its page as it arrived (applyPayload), so each is undone
// from its before-image, newest first, under a CLR — then releases the
// transaction's locks. Records still buffered at the client die with it;
// whole images it installed without records (raw large-object pages) have
// no before-image here and stay, as they always have.
func (s *Server) abort(tx uint64) error {
	// Walk the transaction's own chain back from its last record: begin,
	// update, prepare and commit records link through PrevLSN (CLRs hang
	// off no chain), so the walk reads only this transaction's records
	// however much the log has retained, and it meets the updates newest
	// first — the order undo wants. The chain cannot reach below the
	// retained log: a live transaction's first record pins every cut.
	s.mu.Lock()
	lsn := s.txs[tx].last
	s.mu.Unlock()
	for lsn != wal.NilLSN {
		r, err := s.log.ReadAt(lsn)
		if err != nil {
			return fmt.Errorf("esm: abort of tx %d: %w", tx, err)
		}
		lsn = r.PrevLSN
		if r.Type != wal.RecUpdate {
			continue
		}
		clr, ok := r.Compensation()
		if !ok {
			continue // redo-only
		}
		pid := disk.PageID(r.Page)
		ref, _, err := s.pool.Load(pid, func(buf []byte) error {
			s.clock.ChargeShared(sim.CtrServerDiskRead, 1)
			return s.vol.ReadPage(pid, buf)
		})
		if err != nil {
			return err
		}
		// The undo reads the page LSN and applies every before-image of
		// the record under one exclusive content latch; the aborting
		// transaction still holds its page locks, but unlocked reads may
		// snapshot concurrently.
		applied := false
		ref.Write(func(data []byte) {
			if wal.LSN(pageLSNOf(data)) < r.LSN {
				return // never applied here
			}
			clr.LSN = s.log.Append(clr)
			clr.Redo(data, setPageLSN)
			// Still under the content latch: any token vended for the page
			// before this undo must stop matching the moment the bytes move.
			s.coh.undone(&clr)
			applied = true
		})
		if applied {
			ref.MarkDirty()
		}
		ref.Release()
	}
	if err := s.fault.Hit(faultinject.PtAbortAfterCLR); err != nil {
		return err
	}
	s.mu.Lock()
	abortLSN := s.log.Append(wal.Record{PrevLSN: s.txs[tx].last, Tx: tx, Type: wal.RecAbort})
	s.mu.Unlock()
	if err := s.fault.Hit(faultinject.PtAbortBeforeFlush); err != nil {
		return err
	}
	// The abort is acknowledged to the client, which forgets the
	// transaction; the rollback decision must be durable before that ack.
	// Without this force, a crash after the ack can leave the log ending
	// in the transaction's updates — restart recovery would count it a
	// loser and undo it a second time against pages the runtime abort
	// already rolled back (and whose CLRs were equally lost).
	if err := s.log.Flush(); err != nil {
		return err
	}
	if err := s.fault.Hit(faultinject.PtAbortAfterFlush); err != nil {
		return err
	}
	s.mu.Lock()
	if s.mv != nil {
		// Only now: until the undo above finished, the pending
		// before-images were still shielding snapshot readers from the
		// aborting transaction's half-rolled-back frames.
		s.mv.Abort(tx)
	}
	// Sweep pages the transaction installed but never logged updates for
	// (whole-page commit-time installs): their bytes never changed back
	// under a CLR, but their pending counts must drop and any page whose
	// frame got scribbled must stop matching old tokens. Undone pages were
	// already bumped to their CLR LSNs above; bumping again to the abort
	// LSN is equally correct (monotone, never equals a vended token).
	s.coh.abortTx(tx, uint64(abortLSN))
	s.mu.Unlock()
	s.retire(tx) // a prepared participant too, aborting on the coordinator's verdict
	return nil
}

// Checkpoint runs a fuzzy checkpoint (test/CLI convenience wrapper around
// OpCheckpoint). It is safe to call mid-traffic: the checkpoint never
// quiesces, and transactions that begin or commit while it runs keep their
// log records across the cut.
func (s *Server) Checkpoint() error {
	r := s.Handle(&Request{Op: OpCheckpoint})
	defer r.Release()
	if r.Err != "" {
		return fmt.Errorf("%s", r.Err)
	}
	return nil
}

// DropCaches empties the server buffer pool after flushing, making the next
// reads hit the disk (the harness's "cold" switch). Callers quiesce the
// server first.
func (s *Server) DropCaches() error {
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	s.pool.DropAll()
	return nil
}

// FlushPool writes every dirty buffered page to the volume. Replication
// snapshots need it: raw large-object pages are written whole and never
// WAL-logged, so only the volume — not the log — carries their content.
func (s *Server) FlushPool() error { return s.pool.FlushAll() }

// Volume exposes the underlying volume (read-only use: sizing, verification).
func (s *Server) Volume() disk.Volume { return s.vol }

// Log exposes the write-ahead log for tests and crash-recovery drills.
func (s *Server) Log() *wal.Log { return s.log }

// LockHeld reports the mode in which tx holds res in the server's lock
// manager (0 if it does not), for tests of what a transaction had locked
// when its log records arrived.
func (s *Server) LockHeld(tx uint64, res lock.Resource) lock.Mode { return s.locks.Holds(tx, res) }
