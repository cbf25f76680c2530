// Package wal implements the write-ahead log used by the storage manager,
// modeled on EXODUS recovery (Franklin et al., SIGMOD 1992): physical
// byte-range update records with before and after images, per-transaction
// record chains, commit/abort records, and restart recovery (redo winners,
// undo losers).
//
// A record's LSN is its position in the log and is not stored: the record's
// checksum is seeded with it, so a record decodes only at the position it was
// written for. Everything else is variable-length (codec.go): an update of a
// few bytes costs about a dozen bytes of framing, not the 50-byte header of
// the paper's ESM, which survives only as the diffing algorithm's merge
// threshold (HeaderBytes). A file log starts with a small header carrying
// the LSN of its first record, so a log cut down to nothing by a checkpoint
// still reopens where its LSN space left off.
package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// LSN is a log sequence number: the byte offset of a record in the log.
type LSN uint64

// NilLSN marks "no record".
const NilLSN LSN = 0

// RecType enumerates log record types.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecUpdate
	RecCommit
	RecAbort
	RecCLR        // compensation record written during undo
	RecCheckpoint // reserved: nothing writes it, but the numbers after it are on disk
	// RecPrepare marks a transaction prepared as a 2PC participant: its
	// updates are durable and its locks held, but the outcome belongs to
	// the coordinator. Page carries the coordinator's shard id and New the
	// coordinator-local transaction id. Off is 0 (PrepareCoord in older
	// logs).
	RecPrepare
	// RecDecision is the coordinator's commit verdict for a cross-shard
	// transaction. It doubles as the coordinator's own commit record —
	// under presumed abort no record at all means "abort", so aborts log
	// nothing beyond the usual RecAbort.
	RecDecision
	// RecCatalog carries the page server's whole catalog (roots, files,
	// counters) as its serialized image in New, with Tx 0. Each catalog
	// change appends one, and the last in the log is the catalog.
	RecCatalog
)

// PrepareCoord, set in a RecPrepare's Off field, marks a prepare written by
// the coordinator itself. Coordinators no longer prepare (their part rides
// the RecDecision), so nothing writes it; Recover still reads it, so that a
// log written when they did recovers as it did: such a prepare without a
// matching RecDecision is presumed aborted, an ordinary loser.
const PrepareCoord uint16 = 1

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecPrepare:
		return "PREPARE"
	case RecDecision:
		return "DECISION"
	case RecCatalog:
		return "CATALOG"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// HeaderBytes is the paper's model of a log record header: "~50 bytes", the
// overhead that makes many tiny log records more expensive than one merged
// record. The diffing algorithm in internal/core merges regions closer than
// this, and the cost model prices a record by it; both reproduce the paper's
// record counts. It is not the size of a record in this log (see codec.go).
const HeaderBytes = 50

// Record is one log record. For RecUpdate and RecCLR it describes a physical
// update of one page: one or more disjoint byte ranges in ascending offset
// order, applied and undone together. Page/Off/Old/New are the first range;
// More holds the rest in the log's own encoding (codec.go), so a record of
// twenty ranges is decoded, carried and re-encoded without a slice of twenty
// anything. Build More with AppendRegion and read a record's ranges with
// Regions; a record with More == nil has the one range its fields name.
type Record struct {
	LSN     LSN     // assigned by Append
	PrevLSN LSN     // previous record of the same transaction
	Tx      uint64  // transaction id
	Type    RecType // record type
	Page    uint32  // page id for updates
	Off     uint16  // byte offset within the page
	Old     []byte  // before image (empty for a redo-only region)
	New     []byte  // after image
	More    []byte  // encoded regions after the first
}

// CheckRange reports whether every region of the record fits a page of
// pageSize bytes, each before-image present is as long as its after-image,
// and More decodes to its end. The page server checks it before appending an
// update record, so that neither its own redo of the record nor a later
// restart can index past the page; Recover checks it again because the log
// file is outside input.
func (r *Record) CheckRange(pageSize int) error {
	return checkRegions(r.Regions(), r.Type, r.Page, pageSize)
}

func checkRegions(it RegionIter, t RecType, page uint32, pageSize int) error {
	for it.Next() {
		if it.Off+len(it.New) > pageSize {
			return fmt.Errorf("wal: %v record for page %d covers [%d,%d), past the %d-byte page", t, page, it.Off, it.Off+len(it.New), pageSize)
		}
		if len(it.Old) != 0 && len(it.Old) != len(it.New) {
			return fmt.Errorf("wal: %v record for page %d has a %d-byte before-image for a %d-byte after-image", t, page, len(it.Old), len(it.New))
		}
	}
	return it.Err()
}

// Redo applies every region's after-image to the page and stamps the page
// with the record's LSN: the one redo step, run by restart recovery for
// records whose effect is missing, by the page server for every update record
// as it is appended (WireUpdate.Redo), and — on a compensation record — by
// every undo. The caller has checked the range (CheckRange) and holds the
// page exclusively, so no reader sees some regions applied and others not.
func (r *Record) Redo(pageBuf []byte, setPageLSN func(pageBuf []byte, lsn uint64)) {
	redoRegions(r.Regions(), pageBuf)
	setPageLSN(pageBuf, uint64(r.LSN))
}

func redoRegions(it RegionIter, pageBuf []byte) {
	for it.Next() {
		copy(pageBuf[it.Off:], it.New)
	}
}

// Undo applies every before-image the record carries to the page. Redo-only
// regions have none and stay as they are.
func (r *Record) Undo(pageBuf []byte) {
	for it := r.Regions(); it.Next(); {
		copy(pageBuf[it.Off:], it.Old)
	}
}

// Compensation returns the record that undoes r: a RecCLR for the same
// transaction and page whose after-images are r's before-images, region for
// region. Appending it and redoing it onto the page is the undo. ok is false
// when r carries no before-image — a redo-only record has nothing to undo.
// The result owns its More and aliases r's before-images.
func (r *Record) Compensation() (clr Record, ok bool) {
	clr = Record{Tx: r.Tx, Type: RecCLR, Page: r.Page}
	end := 0
	for it := r.Regions(); it.Next(); {
		switch {
		case len(it.Old) == 0:
			continue
		case !ok:
			clr.Off, clr.New, ok = uint16(it.Off), it.Old, true
		default:
			clr.More = AppendRegion(clr.More, it.Off-end, nil, it.Old)
		}
		end = it.Off + len(it.Old)
	}
	return clr, ok
}

// Log is an append-only write-ahead log. Records live in memory until Flush
// forces them to the optional backing file (the "log disk" of the paper's
// server configuration).
type Log struct {
	// FlushHook, when non-nil, intercepts every flush: it receives the
	// number of pending (not yet durable) bytes and returns how many of
	// them may persist plus an injected error. It is the fault-injection
	// seam the crash drill uses for torn log tails and flush crashes; nil
	// in production. Set it before the log is shared across goroutines.
	FlushHook func(pending int) (allow int, err error)

	mu      sync.Mutex
	buf     []byte // serialized records; LSN = 1 + base + offset into buf
	base    int    // LSN space consumed by truncated log generations
	flushed int    // bytes already forced to backing storage
	file    *os.File
	path    string // backing file path; "" for memory logs
	records int64
	bytes   int64

	// Group commit (FlushCommit): committers arriving while a leader is
	// inside its batching window join gcActive instead of forcing the log
	// themselves; the leader's one force covers every record appended
	// before it runs. forces counts physical log forces (flushLocked
	// executions — each is an fsync on a real log device); piggybacks
	// counts FlushCommit calls satisfied without a force of their own.
	commitWindow time.Duration
	gcActive     *gcBatch
	forces       int64
	piggybacks   int64

	// Replication plumbing (replication.go): channels signalled when the
	// durable prefix moves (NotifyDurable), and a closed flag that refuses
	// further splices once the log is shut.
	notify map[chan struct{}]struct{}
	closed bool
}

// gcBatch is one group-commit batch: the leader marks done after its
// force; err is written before that. The completion signal is a WaitGroup
// inside the struct rather than a channel beside it: every commit that
// forces makes one of these.
type gcBatch struct {
	done sync.WaitGroup
	err  error
}

// NewMemLog creates a log with no backing file.
func NewMemLog() *Log { return &Log{} }

// CreateFileLog creates a log backed by a file at path (truncated). The file
// header is durable before the log is handed out, so a reopen never meets a
// torn one.
func CreateFileLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeFileHeader(f, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{file: f, path: path}, nil
}

// writeFileHeader makes f an empty log whose first record will stand at
// base+1.
func writeFileHeader(f *os.File, base int) error {
	if _, err := f.WriteAt(appendFileHeader(nil, base), 0); err != nil {
		return err
	}
	return f.Sync()
}

// OpenFileLog opens an existing file log and loads its contents for
// recovery iteration. A missing or zero-length file is a fresh log; any
// other file must begin with a valid header or the open fails with ErrNotLog.
func OpenFileLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{file: f, path: path}
	if st.Size() == 0 {
		if err := writeFileHeader(f, 0); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	raw := make([]byte, st.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		f.Close()
		return nil, err
	}
	if l.base, err = parseFileHeader(raw); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Keep the longest run of records that decode at their positions and
	// stop at the first that does not: a torn write at the crash, or bytes
	// an earlier, longer generation left at the same offsets (their
	// checksums were seeded with other LSNs).
	buf := raw[fileHeaderBytes:]
	valid, recs := validPrefix(buf, LSN(1+l.base), len(buf))
	// Cut the rejected tail off the file, durably, before anything is
	// appended. Left in place, a new record of the same length could land
	// on a torn one and make the stale record after it decode again: its
	// LSN is its file position and its checksum seed still matches.
	if valid < len(buf) {
		if err := f.Truncate(int64(fileHeaderBytes + valid)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.buf = buf[:valid]
	l.flushed = valid
	l.records = recs
	l.bytes = int64(valid)
	return l, nil
}

// Append adds a record and returns its LSN. The record is not durable until
// Flush. LSNs start at 1 so that NilLSN (0) is never a real record. A record
// the format cannot express (see appendRecord) panics.
func (l *Log) Append(r Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.endLocked()
	start := len(l.buf)
	l.buf = appendRecord(l.buf, &r)
	l.records++
	l.bytes += int64(len(l.buf) - start)
	return r.LSN
}

// AppendFilled adds u as tx's RecUpdate behind prev, in the log form, and
// returns its LSN: each region u marks Undo takes its before-image from page,
// the bytes the region covers now, encoded straight into the log (nothing is
// allocated). The caller has checked u against len(page) (CheckRange), holds
// the page's content latch, and redoes u onto it only after the append, so
// the log holds the record a client shipping both images would have sent.
func (l *Log) AppendFilled(tx uint64, prev LSN, u *WireUpdate, page []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.endLocked()
	start := len(l.buf)
	l.buf = appendFilled(l.buf, lsn, prev, tx, u, page)
	l.records++
	l.bytes += int64(len(l.buf) - start)
	return lsn
}

// ReadAt returns the record standing at lsn, checksum-verified, with its own
// copies of the images. Following PrevLSN with it walks one transaction's
// chain, newest record first, without touching anyone else's records; each
// step lands strictly lower, so the walk ends.
func (l *Log) ReadAt(lsn LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := LSN(1 + l.base)
	if lsn < start {
		return Record{}, ErrCompacted
	}
	if lsn >= l.endLocked() {
		return Record{}, fmt.Errorf("wal: read at %d, past the end of the log (%d)", uint64(lsn), uint64(l.endLocked()))
	}
	rec, _, err := decode(l.buf[lsn-start:], lsn)
	if err != nil {
		return Record{}, fmt.Errorf("wal: read at %d: %w", uint64(lsn), err)
	}
	rec.own()
	return rec, nil
}

// own gives r its own copies of the images a decode left aliasing the log.
func (r *Record) own() {
	r.Old, r.New, r.More = bytes.Clone(r.Old), bytes.Clone(r.New), bytes.Clone(r.More)
}

// Flush forces all appended records to the backing file, if any.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked(len(l.buf))
}

// flushLocked makes buf[:upto] durable. When a FlushHook injects a fault
// it may shorten the durable range to a prefix of the pending bytes — a
// torn log tail, possibly ending mid-record, exactly what a crash during
// a physical log write leaves behind for OpenFileLog to prune.
func (l *Log) flushLocked(upto int) error {
	l.forces++
	if upto > len(l.buf) {
		upto = len(l.buf)
	}
	if upto < l.flushed {
		upto = l.flushed
	}
	var hookErr error
	if l.FlushHook != nil {
		allow, err := l.FlushHook(upto - l.flushed)
		if err != nil {
			hookErr = err
			if allow < 0 {
				allow = 0
			}
			if max := upto - l.flushed; allow > max {
				allow = max
			}
			upto = l.flushed + allow
		}
	}
	if l.file == nil {
		if upto > l.flushed {
			l.flushed = upto
			l.signalDurableLocked()
		}
		return hookErr
	}
	advanced := false
	if l.flushed < upto {
		if _, err := l.file.WriteAt(l.buf[l.flushed:upto], int64(fileHeaderBytes+l.flushed)); err != nil {
			return err
		}
		l.flushed = upto
		advanced = true
	}
	if err := l.file.Sync(); err != nil {
		return err
	}
	if advanced {
		// Signal only once the bytes really are durable (post-sync):
		// replication acks derive from what subscribers see here.
		l.signalDurableLocked()
	}
	return hookErr
}

// FlushTo forces the log through the record containing lsn, inclusive.
// This is the flush the WAL rule requires on the buffer pool's steal
// path: a dirty page may reach the volume only once the log covers its
// pageLSN, and flushing just that prefix avoids forcing unrelated tail
// records. An lsn already durable (or from a truncated generation) is a
// no-op; an lsn beyond the log, or one no record stands at (raw large-object
// pages stamp arbitrary bytes where the LSN would sit, and bytes decoded at
// a position they were not written for fail their checksum), falls back to
// a full flush.
func (l *Log) FlushTo(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == NilLSN {
		return nil
	}
	off := int(lsn) - 1 - l.base
	if off < l.flushed {
		return nil
	}
	if off >= len(l.buf) {
		return l.flushLocked(len(l.buf))
	}
	_, n, err := decode(l.buf[off:], lsn)
	if err != nil {
		return l.flushLocked(len(l.buf))
	}
	return l.flushLocked(off + n)
}

// SetCommitWindow sets the group-commit batching window. A committer that
// becomes batch leader sleeps for the window before forcing, letting
// concurrent committers append their records and join the batch; one force
// then covers them all. Zero (the default) forces immediately — correct
// and deterministic for single-session use, while concurrent committers
// still piggyback on a force already in progress.
func (l *Log) SetCommitWindow(d time.Duration) {
	l.mu.Lock()
	l.commitWindow = d
	l.mu.Unlock()
}

// Forces returns the number of physical log forces performed.
func (l *Log) Forces() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forces
}

// Piggybacks returns the number of FlushCommit calls that found their
// record already durable or joined another committer's batch — the forces
// group commit saved.
func (l *Log) Piggybacks() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.piggybacks
}

// FlushCommit makes the log durable through lsn (a commit record already
// appended by the caller), batching concurrent committers into one force.
// If lsn is already durable the call returns at once; if another committer
// is leading a batch, the call waits for that batch's force (which covers
// every record appended before it runs, this one included) and inherits
// its error; otherwise the caller becomes leader: it sleeps for the commit
// window, forces the whole log once, and releases its followers.
func (l *Log) FlushCommit(lsn LSN) error {
	if lsn == NilLSN {
		return nil
	}
	for {
		l.mu.Lock()
		if int(lsn)-1-l.base < l.flushed {
			l.piggybacks++
			l.mu.Unlock()
			return nil
		}
		if b := l.gcActive; b != nil {
			l.piggybacks++
			l.mu.Unlock()
			b.done.Wait()
			if b.err != nil {
				return b.err
			}
			// The leader's force covered our record (it was appended
			// before FlushCommit was called); loop to verify durability.
			continue
		}
		b := new(gcBatch)
		b.done.Add(1)
		l.gcActive = b
		window := l.commitWindow
		l.mu.Unlock()
		if window > 0 {
			time.Sleep(window)
		}
		l.mu.Lock()
		err := l.flushLocked(len(l.buf))
		l.gcActive = nil
		l.mu.Unlock()
		b.err = err
		b.done.Done()
		return err
	}
}

// FlushedLSN returns the LSN up to which the log is durable (exclusive).
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(1 + l.base + l.flushed)
}

// Records returns the number of records appended.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Bytes returns the total serialized log size in bytes.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Iterate calls fn for each record in LSN order. fn returning false stops
// the scan.
func (l *Log) Iterate(fn func(Record) bool) error {
	l.mu.Lock()
	snapshot, start := l.buf[:len(l.buf)], LSN(1+l.base)
	l.mu.Unlock()
	for off := 0; off < len(snapshot); {
		rec, n, err := decode(snapshot[off:], start+LSN(off))
		if err != nil {
			return err
		}
		rec.own()
		if !fn(rec) {
			return nil
		}
		off += n
	}
	return nil
}

// replaceFileLocked atomically replaces the backing file, if any, with a
// header for base followed by tail: written to a temp file, forced, and
// renamed over the log. Rewriting in place could lose durable tail records
// if a crash lands mid-rewrite, and the tail is exactly the part that is
// still needed. A crash before the rename keeps the old file whole (the cut
// simply didn't happen); a crash after it leaves precisely the new one.
func (l *Log) replaceFileLocked(base int, tail []byte) error {
	if l.file == nil {
		return nil
	}
	tmp := l.path + ".truncating"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(tail, int64(fileHeaderBytes)); err == nil {
		if err = writeFileHeader(f, base); err == nil {
			err = os.Rename(tmp, l.path)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	l.file.Close()
	l.file = f
	return nil
}

// TruncateBefore discards every whole record that lies strictly below lsn,
// keeping the tail. This is the fuzzy checkpoint's truncation: it does not
// require a quiescent store — the caller chooses a cut below which no
// record can be needed for redo (the covered pages are on the volume) or
// undo (no active transaction began below it) and the live tail keeps its
// LSNs; the LSN space below the cut is never reused. A cut inside the
// unflushed tail is clamped to the durable prefix; a cut that lands
// mid-record backs up to the preceding record boundary. A shipper reading
// below the new start (DurableFrom) gets ErrCompacted and falls back to a
// snapshot.
func (l *Log) TruncateBefore(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := int(lsn) - 1 - l.base
	if off > l.flushed {
		off = l.flushed
	}
	if off <= 0 {
		return nil
	}
	// Walk to the last record boundary at or below the cut. The buffer is
	// record-aligned from 0, so this also refuses to split a record whose
	// middle the (page-LSN-derived) cut points into.
	boundary, _ := validPrefix(l.buf, LSN(1+l.base), off)
	if boundary == 0 {
		return nil
	}
	// The in-memory state changes only once the new file is in place.
	if err := l.replaceFileLocked(l.base+boundary, l.buf[boundary:l.flushed]); err != nil {
		return err
	}
	l.base += boundary
	l.buf = append([]byte(nil), l.buf[boundary:]...)
	l.flushed -= boundary
	// Wake shippers: one whose position lies below the new start must
	// learn it is compacted and fall back to a snapshot.
	l.signalDurableLocked()
	return nil
}

// DiscardUnflushed drops records that were never forced, simulating the loss
// of log-buffer contents at a crash. Test hook for recovery experiments.
func (l *Log) DiscardUnflushed() {
	l.mu.Lock()
	l.buf = l.buf[:l.flushed]
	l.mu.Unlock()
}

// Close releases the backing file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.signalDurableLocked() // wake shippers so they see the log is shut
	if l.file != nil {
		err := l.file.Close()
		l.file = nil
		return err
	}
	return nil
}

// PageStore is the page access recovery needs; satisfied by the server's
// volume wrapper.
type PageStore interface {
	ReadPage(id uint32, buf []byte) error
	WritePage(id uint32, buf []byte) error
}

// InDoubt describes one prepared-but-undecided transaction found at
// restart: a 2PC participant whose coordinator's verdict is not on this
// log. Its updates are redone (prepared means durably installed) and NOT
// undone; the caller must hold its locks and resolve it against the
// coordinator before the pages become visible to conflicting writers.
type InDoubt struct {
	Tx         uint64 // participant-local transaction id
	PrepareLSN LSN    // the RecPrepare's LSN
	FirstLSN   LSN    // the tx's earliest surviving record; checkpoint-cut floor
	CoordShard uint32 // coordinator shard id (RecPrepare.Page)
	CoordTx    uint64 // coordinator-local transaction id (RecPrepare.New)
	Pages      []uint32
}

// Recovery is what restart recovery found in its one analysis pass over
// the log, besides the pages it redid and undid.
type Recovery struct {
	Winners map[uint64]bool     // committed transactions (RecCommit or RecDecision)
	Losers  map[uint64]bool     // transactions rolled back at restart
	InDoubt map[uint64]*InDoubt // prepared participants with no verdict on this log

	Catalog   []byte         // New of the last RecCatalog, nil if the log holds none
	NextTx    uint64         // one past the highest transaction id in the log
	Decisions map[uint64]LSN // each RecDecision's LSN, by transaction id
}

// Recover runs restart recovery against store: analysis (find winners),
// redo of winner updates whose effects are missing (page LSN < record LSN),
// then undo of loser updates in reverse LSN order, writing CLRs.
// It returns the sets of committed and rolled-back transaction ids, plus
// the in-doubt set: transactions prepared as 2PC participants whose
// coordinator decision is unknown. Those are redone like winners but left
// unresolved — no RecAbort is appended for them. A coordinator's own
// transaction with no RecDecision is an ordinary loser: the decision record
// lives on the coordinator's own log, so its absence there IS the verdict.
// The same pass finds the page server's restart
// state (Recovery.Catalog, NextTx, Decisions), so no caller reads the log
// again. pageSize is the store's page size in bytes (callers pass
// disk.PageSize; wal cannot import disk without a cycle).
func Recover(l *Log, store PageStore, pageSize int, pageLSNOf func(pageBuf []byte) uint64, setPageLSN func(pageBuf []byte, lsn uint64)) (*Recovery, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("wal: invalid page size %d", pageSize)
	}
	rec := &Recovery{
		Winners:   map[uint64]bool{},
		Losers:    map[uint64]bool{},
		InDoubt:   map[uint64]*InDoubt{},
		Decisions: map[uint64]LSN{},
	}
	winners, losers, indoubt := rec.Winners, rec.Losers, rec.InDoubt
	prepares := map[uint64]Record{}
	firstLSN := map[uint64]LSN{}
	var updates []Record
	var rangeErr error
	err := l.Iterate(func(r Record) bool {
		if r.Tx != 0 {
			if _, ok := firstLSN[r.Tx]; !ok {
				firstLSN[r.Tx] = r.LSN
			}
		}
		rec.NextTx = max(rec.NextTx, r.Tx+1)
		switch r.Type {
		case RecBegin:
			losers[r.Tx] = true
		case RecCommit, RecDecision:
			delete(losers, r.Tx)
			delete(prepares, r.Tx)
			winners[r.Tx] = true
			if r.Type == RecDecision {
				rec.Decisions[r.Tx] = r.LSN
			}
		case RecAbort:
			delete(losers, r.Tx)
			delete(prepares, r.Tx)
		case RecPrepare:
			prepares[r.Tx] = r
		case RecCatalog:
			rec.Catalog = r.New
		case RecUpdate, RecCLR:
			if rangeErr = r.CheckRange(pageSize); rangeErr != nil {
				return false
			}
			updates = append(updates, r)
		}
		return true
	})
	if err == nil {
		err = rangeErr
	}
	if err != nil {
		return nil, err
	}
	// In-doubt analysis: a prepared loser stays in doubt. A coordinator
	// never prepares; the PrepareCoord rule reads logs from when it did, in
	// which its own prepared loser is presumed aborted — the missing
	// decision record is the answer.
	for tx, p := range prepares {
		if !losers[tx] || p.Off&PrepareCoord != 0 {
			continue
		}
		var coordTx uint64
		if len(p.New) >= 8 {
			coordTx = binary.LittleEndian.Uint64(p.New)
		}
		indoubt[tx] = &InDoubt{
			Tx:         tx,
			PrepareLSN: p.LSN,
			FirstLSN:   firstLSN[tx],
			CoordShard: p.Page,
			CoordTx:    coordTx,
		}
		delete(losers, tx)
	}
	// Redo phase: repeat history for winners, CLRs, and in-doubt prepares.
	var replay []Record
	for _, r := range updates {
		if r.Type == RecUpdate && !winners[r.Tx] && !losers[r.Tx] && indoubt[r.Tx] == nil {
			continue // aborted at runtime; undo already applied
		}
		if d := indoubt[r.Tx]; d != nil && r.Type == RecUpdate {
			if len(d.Pages) == 0 || d.Pages[len(d.Pages)-1] != r.Page {
				d.Pages = append(d.Pages, r.Page)
			}
		}
		replay = append(replay, r)
	}
	if err := redo(store, replay, pageSize, pageLSNOf, setPageLSN); err != nil {
		return nil, err
	}
	buf := make([]byte, pageSize)
	// Undo phase: roll back losers newest-first. In-doubt transactions are
	// deliberately not here: their before-images stay in the log, protected
	// from truncation by FirstLSN, until the coordinator's verdict arrives.
	for i := len(updates) - 1; i >= 0; i-- {
		r := updates[i]
		if r.Type != RecUpdate || !losers[r.Tx] {
			continue
		}
		clr, ok := r.Compensation()
		if !ok {
			continue // redo-only
		}
		if err := store.ReadPage(r.Page, buf); err != nil {
			return nil, err
		}
		if LSN(pageLSNOf(buf)) < r.LSN {
			continue // update never reached the page
		}
		clr.LSN = l.Append(clr)
		clr.Redo(buf, setPageLSN)
		if err := store.WritePage(r.Page, buf); err != nil {
			return nil, err
		}
	}
	for tx := range losers {
		l.Append(Record{Tx: tx, Type: RecAbort})
	}
	return rec, l.Flush()
}

// redo is the one redo pass, run by restart recovery and by a replica's
// log cut (RedoBefore): each record of recs — range-checked update records
// and CLRs, in LSN order — is applied to its page unless the page already
// holds it (its page LSN is at or past the record's). Each page is read
// once and, if a record was applied, written once.
func redo(store PageStore, recs []Record, pageSize int, pageLSNOf func(pageBuf []byte) uint64, setPageLSN func(pageBuf []byte, lsn uint64)) error {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(recs[a].Page, recs[b].Page) })
	buf := make([]byte, pageSize)
	for i := 0; i < len(order); {
		pid := recs[order[i]].Page
		if err := store.ReadPage(pid, buf); err != nil {
			return err
		}
		applied := false
		for ; i < len(order) && recs[order[i]].Page == pid; i++ {
			if r := &recs[order[i]]; LSN(pageLSNOf(buf)) < r.LSN {
				r.Redo(buf, setPageLSN)
				applied = true
			}
		}
		if applied {
			if err := store.WritePage(pid, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// RedoBefore brings store up to every record of l below cut, so that the
// log can be cut there: it is a replica's half of its leader's checkpoint,
// run once its log is durable through the leader's durable end at that
// checkpoint (through). The leader pinned its cut at every open
// transaction's first record, so every transaction with a record below cut
// ended below through; a log in which one did not is refused, and nothing
// is written. Recover's rule decides what is redone — a committed
// transaction's updates and every CLR, not an aborted one's updates, whose
// CLRs restored what they changed. The caller syncs store before it cuts
// the log (TruncateBefore), so a crash between the two leaves a log that
// recovers the same pages.
func RedoBefore(l *Log, store PageStore, cut, through LSN, pageSize int, pageLSNOf func(pageBuf []byte) uint64, setPageLSN func(pageBuf []byte, lsn uint64)) error {
	ended := map[uint64]bool{} // transaction → committed, for those that ended below through
	below := map[uint64]bool{} // transactions with a record below cut
	var recs []Record
	var rangeErr error
	err := l.Iterate(func(r Record) bool {
		if r.LSN >= through {
			return false
		}
		if r.LSN < cut && r.Tx != 0 {
			below[r.Tx] = true
		}
		switch r.Type {
		case RecCommit, RecDecision:
			ended[r.Tx] = true
		case RecAbort:
			ended[r.Tx] = false
		case RecUpdate, RecCLR:
			if r.LSN >= cut {
				break
			}
			if rangeErr = r.CheckRange(pageSize); rangeErr != nil {
				return false
			}
			recs = append(recs, r)
		}
		return true
	})
	if err == nil {
		err = rangeErr
	}
	if err != nil {
		return err
	}
	for tx := range below {
		if _, ok := ended[tx]; !ok {
			return fmt.Errorf("wal: transaction %d has records below the cut at %d and no end below %d", tx, uint64(cut), uint64(through))
		}
	}
	kept := recs[:0]
	for _, r := range recs {
		if r.Type == RecCLR || ended[r.Tx] {
			kept = append(kept, r)
		}
	}
	return redo(store, kept, pageSize, pageLSNOf, setPageLSN)
}
