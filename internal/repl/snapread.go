package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/wal"
)

// Follower-side snapshot reads.
//
// A follower has no esm.Server (and so no version store), but it holds two
// things that together determine every committed state up to its durable
// LSN: its volume and its shipped WAL suffix. A snapshot read at S is
// answered by per-page point-in-time recovery: start from the volume's page
// image, redo committed-at-S updates the image predates, and undo updates
// of transactions unresolved at S. This is O(log length) per page — the
// follower path trades throughput for availability (it only carries reads
// while the leader is unreachable), so correctness-first is the right cost
// model.
//
// The volume changes under the log in two ways, each under cutMu's write
// half: a snapshot install replaces both (leader page images, the leader's
// log from its StartLSN), and a cut redoes the records below the leader's
// checkpoint cut onto the volume and then drops them (Node.cutAt). Either
// leaves image bytes whose records are gone, of transactions that may have
// been unresolved at an S above the log's start: T updates a page at 10, U
// begins at 80, T commits at 90, the cut is 80 — at S = 85 the image holds
// T's bytes and no record is left to undo them. So a follower serves only
// S >= floor, where every transaction with a record below the log's start
// is resolved: through-1 after a cut at a checkpoint whose log was durable
// through through, the durable end the leader built an install at, less
// one. Above floor, the log holds the before-image of every update that
// could be unresolved at S (the leader's cut never passes an open
// transaction's first record), and the WAL rule on the leader keeps every
// image's pageLSN at or below the durable end it shipped with.

// handleSnapBegin answers OpBeginSnapshot on a non-leader. The snapshot
// point is the follower's durable LSN; everything at or below it is
// reconstructible. Read-your-writes: if the client has seen a commit this
// replica hasn't received yet, refuse with a behind error so the Director
// tries the next replica.
func (n *Node) handleSnapBegin(req *esm.Request) *esm.Response {
	// Snapshot visibility is inclusive (a commit with LSN <= S is seen),
	// and FlushedLSN is an exclusive end — the NEXT record may be assigned
	// exactly that value. Serve one below it: every durable record is
	// visible, nothing appended later ever is.
	s := n.log.FlushedLSN() - 1
	if s == 0 {
		s = 1 // snapshot 0 is the client's no-session sentinel
	}
	if req.N > uint64(s) {
		return &esm.Response{Err: esm.SnapshotBehindError(uint64(s), req.N)}
	}
	// No pin: a cut or an install that raises the floor past s is
	// reported by snapReadPage as too old.
	return &esm.Response{N: uint64(s)}
}

// handleSnapRead answers a snapshot OpReadPages (N = the snapshot LSN) on a
// non-leader, in the leader's format: every entry stale, answered with its
// full image (sparse, esm.AppendFullAnswer) and no token.
func (n *Node) handleSnapRead(req *esm.Request) *esm.Response {
	count, err := esm.PageEntryCount(req.Data)
	if err != nil {
		return &esm.Response{Err: err.Error()}
	}
	out, bitmap := esm.AppendAnswerHead(nil, count)
	for i := 0; i < count; i++ {
		pid, _ := esm.PageEntry(req.Data, i)
		img, err := n.snapReadPage(disk.PageID(pid), wal.LSN(req.N))
		if err != nil {
			return &esm.Response{Err: err.Error()}
		}
		esm.MarkStale(out, bitmap, i)
		out, _ = esm.AppendFullAnswer(out, pid, 0, img)
	}
	return &esm.Response{Data: out}
}

// snapReadPage reconstructs page pid as of snapshot LSN snap.
func (n *Node) snapReadPage(pid disk.PageID, snap wal.LSN) ([]byte, error) {
	n.cutMu.RLock()
	defer n.cutMu.RUnlock()
	if snap < n.floor {
		// A cut or an install since this snapshot began took records it
		// may need: their transactions may be unresolved at snap.
		return nil, fmt.Errorf("repl: SnapRead(%d) at %d: snapshot too old (the follower serves %d and later)", pid, snap, n.floor)
	}
	if s := n.log.FlushedLSN(); snap >= s {
		// The session began elsewhere at an LSN we haven't received (a
		// record at exactly snap would be visible but isn't durable here).
		// Another replica may have it: same advance semantics as begin.
		return nil, errors.New(esm.SnapshotBehindError(uint64(s-1), uint64(snap)))
	}
	buf := make([]byte, disk.PageSize)
	if err := n.vol.ReadPage(pid, buf); err != nil {
		if !errors.Is(err, disk.ErrPageOutOfRange) {
			return nil, err
		}
		// Allocated on the leader after our install: the page started as
		// zeroes there too, and the redo pass below replays its history.
	}

	// One scan: transaction outcomes as of snap, plus this page's records.
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	var recs []wal.Record
	err := n.log.Iterate(func(r wal.Record) bool {
		if r.LSN > snap {
			return false // records beyond the snapshot don't exist for it
		}
		switch r.Type {
		case wal.RecCommit:
			committed[r.Tx] = true
		case wal.RecAbort:
			aborted[r.Tx] = true
		case wal.RecUpdate, wal.RecCLR:
			if r.Page == uint32(pid) {
				recs = append(recs, r)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		// Raw pages (bulk object payloads) carry no page header; only
		// touch bytes when log records prove the first 8 bytes are an LSN.
		return buf, nil
	}
	pageLSN := wal.LSN(pageLSNOf(buf))

	// Redo forward: committed-at-snap updates the installed image predates,
	// and every CLR (a CLR re-applies a before-image, so replaying one for
	// a transaction we also undo below is idempotent: CLR.New == Old).
	for _, r := range recs {
		if r.LSN <= pageLSN {
			continue // already reflected in the installed image
		}
		if r.Type == wal.RecCLR || committed[r.Tx] {
			for it := r.Regions(); it.Next(); {
				copy(buf[it.Off:], it.New)
			}
		}
	}
	// Undo backward: updates that reached the installed image but whose
	// transaction is unresolved at snap (no commit or abort record yet —
	// including transactions that commit after snap).
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type != wal.RecUpdate || committed[r.Tx] || aborted[r.Tx] {
			continue
		}
		if r.LSN > pageLSN {
			continue // never reached the image
		}
		r.Undo(buf) // a redo-only region has no before-image and stays
	}
	return buf, nil
}

// pageLSNOf reads the page-header LSN (first 8 bytes, little-endian) —
// the same layout internal/esm stamps on every logged page.
func pageLSNOf(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf[:8])
}
