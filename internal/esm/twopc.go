package esm

import (
	"encoding/binary"
	"fmt"

	"quickstore/internal/faultinject"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

// Two-phase commit state (internal/shard's presumed-abort protocol,
// DESIGN.md §16). A cross-shard transaction commits in two phases: every
// participant but the coordinator prepares (updates durable, locks held,
// outcome open), then the coordinator commits its own part under a single
// RecDecision — its commit record and the verdict at once — and the
// verdict fans out. Abort is the presumed outcome: no decision record
// anywhere means abort, so the abort path logs nothing beyond the usual
// RecAbort and a restarted coordinator answers inquiries for unknown
// transactions with "aborted".

// preparedTx is the participant side of a prepared transaction, held by its
// transaction-table entry (txState.prep, under Server.mu).
type preparedTx struct {
	coordShard uint32 // shard id of the transaction's coordinator
	coordTx    uint64 // coordinator-local transaction id
	recovered  bool   // survived a restart; eligible for external resolution
}

// prepare votes participant transaction tx into the prepared state: its
// last commit payload (Data, as for commit; a cross-shard router sends each
// shard its part) is checked and applied (checkPayload, applyPayload), a
// RecPrepare is appended and forced, and the transaction's locks stay
// held. coordShard and coordTx name the coordinator, which never prepares:
// its part rides its decision (commitDecision). After a successful prepare the transaction can no
// longer be aborted unilaterally by a crash of this server alone — restart
// holds it in doubt until the coordinator's verdict arrives.
func (s *Server) prepare(tx uint64, coordShard uint32, coordTx uint64, data []byte) (wal.LSN, error) {
	pl, last, err := s.checkPayload(tx, data)
	if err != nil {
		return 0, err
	}
	if _, err := s.applyPayload(tx, pl, last); err != nil {
		return 0, err
	}
	if err := s.fault.Hit(faultinject.PtPrepareAfterInstall); err != nil {
		return 0, err
	}
	coordTxB := make([]byte, 8)
	binary.LittleEndian.PutUint64(coordTxB, coordTx)
	s.mu.Lock()
	lsn := s.log.Append(wal.Record{
		PrevLSN: s.txs[tx].last,
		Tx:      tx,
		Type:    wal.RecPrepare,
		Page:    coordShard,
		New:     coordTxB,
	})
	if e, ok := s.txs[tx]; ok {
		e.last, e.prep = lsn, &preparedTx{coordShard: coordShard, coordTx: coordTx}
		s.txs[tx] = e
	}
	s.mu.Unlock()
	if err := s.fault.Hit(faultinject.PtPrepareBeforeFlush); err != nil {
		return 0, err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	if err := s.fault.Hit(faultinject.PtPrepareAfterFlush); err != nil {
		return 0, err
	}
	// The prepared state must be as durable as a commit: with replication
	// attached, the vote is not cast until a quorum holds the prepare
	// record — otherwise a leader failover could forget a vote the
	// coordinator already counted.
	if err := s.quorumGate().WaitQuorum(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitDecision delivers a commit verdict; an abort verdict is an OpAbort.
// On the coordinator (DecisionCoord) the transaction is live and never
// prepared, and the decision is its commit: commit applies its part of the
// payload (data) and logs the RecDecision — the transaction's commit
// record AND the durable verdict participants will ask for. A duplicate
// delivery is answered with the remembered decision. On a participant the
// verdict ends a prepared transaction under an ordinary RecCommit, through
// the same end step (commitLocked) and durability tail (endCommit) as
// commit.
func (s *Server) commitDecision(tx uint64, mode uint8, data []byte) (wal.LSN, error) {
	if mode&DecisionCommit == 0 {
		return 0, fmt.Errorf("esm: decision for tx %d carries no commit verdict (an abort verdict is an OpAbort)", tx)
	}
	s.mu.Lock()
	e, live := s.txs[tx]
	decided, dup := s.decisions[tx]
	s.mu.Unlock()
	if mode&DecisionCoord != 0 {
		switch {
		case e.prep != nil:
			return 0, fmt.Errorf("esm: coordinator decision for prepared tx %d: a coordinator does not prepare, its part rides the decision", tx)
		case !live && dup:
			// Duplicate decision delivery (a resolver raced the router):
			// the verdict is already durable.
			//qsvet:ignore ackorder the RecDecision this lsn names was already forced by the delivery that logged it; a duplicate ack re-promises durable state
			return decided, nil
		}
		pl, last, err := s.checkPayload(tx, data)
		if err != nil {
			return 0, err
		}
		return s.commit(tx, pl, last, wal.RecDecision)
	}
	if e.prep == nil {
		return 0, fmt.Errorf("esm: commit decision for unprepared tx %d", tx)
	}
	s.mu.Lock()
	lsn := s.commitLocked(tx, wal.RecCommit)
	s.mu.Unlock()
	if err := s.endCommit(tx, lsn, true); err != nil {
		return 0, err
	}
	return lsn, nil
}

// resolveTx answers presumed-abort inquiries. Inquire: a participant (or a
// sweep resolver on its behalf) asks this server — as coordinator — for
// the outcome of coordinator-local transaction req.Tx. Forget: every
// participant has acknowledged the verdict; the remembered decision (and
// its checkpoint-cut pin) is dropped. List: report this server's own
// recovered in-doubt participant transactions, plus its remembered
// decisions (localTx 0), so a sweep resolver can drive resolution without
// prior knowledge.
func (s *Server) resolveTx(req *Request) (*Response, error) {
	switch req.Mode {
	case ResolveModeInquire:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.decisions[req.Tx]; ok {
			return answerN(ResolveCommitted), nil
		}
		if _, ok := s.txs[req.Tx]; ok {
			// Still live here: the router is mid-protocol. The resolver
			// must not presume abort while the verdict is being formed.
			return answerN(ResolvePending), nil
		}
		// No decision, no live transaction: presumed abort. This is the
		// case a restarted coordinator answers for every transaction it
		// crashed out of before logging a decision.
		return answerN(ResolveAborted), nil

	case ResolveModeForget:
		s.mu.Lock()
		delete(s.decisions, req.Tx)
		s.mu.Unlock()
		return nil, nil

	case ResolveModeList:
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []byte
		for tx, e := range s.txs {
			if e.prep == nil || !e.prep.recovered {
				// Live prepared transactions belong to their router;
				// externally resolving one would race the decision fan-out.
				continue
			}
			out = AppendResolveEntry(out, e.prep.coordShard, e.prep.coordTx, tx)
		}
		for tx := range s.decisions {
			out = AppendResolveEntry(out, 0, tx, 0)
		}
		resp := answerN(uint64(len(out) / ResolveEntryBytes))
		resp.Data = out
		return resp, nil
	}
	return nil, fmt.Errorf("esm: unknown resolve mode %d", req.Mode)
}

// registerInDoubt installs restart recovery's in-doubt transactions into
// the transaction table: their records pin the checkpoint cut through the
// entry's first LSN, the entry's prep marks them recovered (eligible for
// external resolution), and their updated pages are re-locked exclusively
// so no new transaction reads or overwrites uncommitted data while the
// verdict is outstanding. Runs before the server is shared.
func (s *Server) registerInDoubt(indoubt map[uint64]*wal.InDoubt) error {
	for tx, d := range indoubt {
		s.txs[tx] = txState{
			first: d.FirstLSN,
			last:  d.PrepareLSN,
			prep:  &preparedTx{coordShard: d.CoordShard, coordTx: d.CoordTx, recovered: true},
		}
		seen := map[uint32]bool{}
		for _, pid := range d.Pages {
			if seen[pid] {
				continue
			}
			seen[pid] = true
			if err := s.locks.Acquire(tx, lock.Resource{Kind: lock.KindPage, ID: uint64(pid)}, lock.Exclusive); err != nil {
				return fmt.Errorf("esm: re-locking in-doubt page %d: %w", pid, err)
			}
		}
	}
	return nil
}

// InDoubtCount reports the number of transactions currently held in doubt
// (live or recovered). Test and drill observability.
func (s *Server) InDoubtCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.txs {
		if e.prep != nil {
			n++
		}
	}
	return n
}

// DecisionCount reports the number of remembered (unforgotten) commit
// decisions this server holds as a coordinator.
func (s *Server) DecisionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.decisions)
}
