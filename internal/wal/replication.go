package wal

import (
	"bytes"
	"errors"
	"fmt"
)

// This file is the replication face of the log: reads of the durable byte
// stream and a signal when it grows (what a leader ships), raw record
// splicing (what a follower applies), and wholesale snapshot installation
// (how a follower is seeded when its position has fallen off the retained
// generation).
//
// The shipping contract is byte identity: a follower's log holds exactly
// the leader's serialized bytes at exactly the same LSNs, so "durable
// through LSN x" means the same thing on every replica and a promoted
// follower can run ordinary restart recovery over its local copy.

// ErrCompacted reports a replication cursor that points below the log's
// retained generation: a checkpoint truncated those records away, so the
// consumer must be re-seeded from a snapshot rather than a byte-range ship.
var ErrCompacted = errors.New("wal: cursor predates retained log (snapshot required)")

// ErrDiverged reports shipped bytes that disagree with the local log at the
// same LSNs — two logs that stopped being byte-identical (a fenced leader's
// stale tail, typically). The shipper's recovery is a snapshot reset.
var ErrDiverged = errors.New("wal: shipped bytes diverge from local log")

// StartLSN returns the first LSN of the retained generation. Cursors below
// it are compacted.
func (l *Log) StartLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(1 + l.base)
}

// End returns the LSN the next appended record will receive (exclusive end
// of the log's LSN space, durable or not).
func (l *Log) End() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.endLocked()
}

func (l *Log) endLocked() LSN { return LSN(1 + l.base + len(l.buf)) }

// signalDurableLocked signals the notify channels after the durable prefix
// (or the retained generation) changed, or the log closed.
func (l *Log) signalDurableLocked() {
	for ch := range l.notify {
		select {
		case ch <- struct{}{}:
		default: // already signaled; the receiver will see the latest state
		}
	}
}

// NotifyDurable registers ch for a non-blocking signal whenever the durable
// prefix advances, the log truncates, or the log closes. A buffered channel
// of capacity one never misses an edge; the receiver re-reads log state
// rather than counting signals. Composes with select, unlike Wait.
func (l *Log) NotifyDurable(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(map[chan struct{}]struct{})
	}
	l.notify[ch] = struct{}{}
}

// StopNotify removes a channel registered with NotifyDurable.
func (l *Log) StopNotify(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.notify, ch)
}

// DurableFrom copies durable log content beginning at the record boundary
// from, limited to max bytes (0 = unlimited) and always ending on a record
// boundary, so the chunk can be CRC-verified and spliced by AppendRaw. A
// nil chunk means nothing durable lies past from.
func (l *Log) DurableFrom(from LSN, max int) ([]byte, error) {
	return l.AppendDurable(nil, from, max)
}

// AppendDurable is DurableFrom appending the chunk to dst, so a shipper can
// reuse one buffer for every frame; dst comes back unchanged when nothing
// durable lies past from.
func (l *Log) AppendDurable(dst []byte, from LSN, max int) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := LSN(1 + l.base)
	if from < start {
		return dst, ErrCompacted
	}
	off := int(from - start)
	if off >= l.flushed {
		return dst, nil
	}
	// The durable prefix can end mid-record after an injected torn flush
	// (ship only what decodes), and a capped chunk must not split a
	// record.
	limit := l.flushed
	if max > 0 && max < limit-off {
		limit = off + max
	}
	n, _ := validPrefix(l.buf[off:limit], from, limit-off)
	return append(dst, l.buf[off:off+n]...), nil
}

// AppendRaw splices pre-serialized records — shipped from a peer log whose
// bytes this log mirrors — whose first record sits at start. Retransmits
// are idempotent: bytes already present are verified, not re-appended. Every
// record's checksum is verified seeded with the LSN it would occupy here, so
// a chunk spliced at any position but its own is rejected as corrupt; a
// start beyond End is a gap (the shipper must back up); content
// that disagrees with bytes already present is ErrDiverged (the shipper
// must snapshot-reset). The splice is buffered, not durable — the caller
// flushes before acknowledging.
func (l *Log) AppendRaw(start LSN, chunk []byte) error {
	if len(chunk) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if start < LSN(1+l.base) {
		return ErrCompacted
	}
	end := l.endLocked()
	if start > end {
		return fmt.Errorf("wal: ship gap: chunk starts at %d, log ends at %d", uint64(start), uint64(end))
	}
	overlap := int(end - start)
	// Validate every record before mutating.
	valid, recs := validPrefix(chunk, start, len(chunk))
	if valid != len(chunk) {
		return fmt.Errorf("wal: shipped chunk at %d: %w", uint64(start)+uint64(valid), ErrCorrupt)
	}
	if overlap >= len(chunk) {
		// Full retransmit: nothing new, but the bytes must agree.
		off := int(start - LSN(1+l.base))
		if !bytes.Equal(l.buf[off:off+len(chunk)], chunk) {
			return ErrDiverged
		}
		return nil
	}
	if overlap > 0 {
		// Our tail must end on one of the chunk's record edges, not inside
		// a shipped record, and agree with the chunk up to there.
		edge, known := validPrefix(chunk, start, overlap)
		off := int(start - LSN(1+l.base))
		if edge != overlap || !bytes.Equal(l.buf[off:off+overlap], chunk[:overlap]) {
			return ErrDiverged
		}
		recs -= known
	}
	l.buf = append(l.buf, chunk[overlap:]...)
	l.records += recs
	l.bytes += int64(len(chunk) - overlap)
	return nil
}

// LoadSnapshot replaces the log's retained content wholesale: generations
// before start are considered truncated (never to be reused, exactly as
// TruncateBefore guarantees), and content becomes the retained bytes,
// flushed to the backing file. This is how a follower is seeded when
// incremental shipping cannot reach it (fresh replica, or its position was
// compacted).
func (l *Log) LoadSnapshot(start LSN, content []byte) error {
	if start == NilLSN {
		return fmt.Errorf("wal: snapshot start at nil LSN")
	}
	valid, recs := validPrefix(content, start, len(content))
	if valid != len(content) {
		return fmt.Errorf("wal: snapshot content at %d: %w", uint64(start)+uint64(valid), ErrCorrupt)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := l.replaceFileLocked(int(start)-1, nil); err != nil {
		return err
	}
	l.base = int(start) - 1
	// A buffer of the snapshot's size: the log it replaces may have been
	// far longer, and none of it is kept.
	l.buf = append([]byte(nil), content...)
	l.flushed = 0
	l.records = recs
	l.bytes = int64(len(content))
	if err := l.flushLocked(len(l.buf)); err != nil {
		return err
	}
	l.signalDurableLocked()
	return nil
}
