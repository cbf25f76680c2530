// Package esm is the ackorder fixture: a 2PC dispatch whose acks must wait
// behind two gates, the WAL force (every ack op) and the quorum wait
// (commit, vote and decision). It seeds an inline ack with neither gate, a
// decision acked before its force and its quorum wait, a vote with no
// quorum wait, a quorum wait behind a nil-waiter guard, and a suppressed
// maintenance commit, beside clean force- and quorum-dominated paths.
package esm

import "quickstore/internal/wal"

type Op int

const (
	OpBegin Op = iota
	OpPrepare
	OpCommit
	OpCommitDecision
	OpResolveTx
)

const (
	DecisionCommit uint8 = 1 << iota
	DecisionCoord
)

const ResolveModeForget uint8 = 7

type Request struct {
	Op   Op
	Tx   uint64
	Mode uint8
}

type Response struct {
	N   uint64
	Err string
}

type Transport interface {
	Call(req *Request) (*Response, error)
}

// QuorumWaiter mirrors the real gate: WaitQuorum returns once a quorum of
// replicas holds the log durable through lsn.
type QuorumWaiter interface {
	WaitQuorum(lsn wal.LSN) error
}

type Server struct {
	log  *wal.Log
	repl QuorumWaiter
}

func (s *Server) handle(req *Request) (*Response, error) {
	switch req.Op {
	case OpBegin:
		return &Response{N: req.Tx}, nil // not an ack path: clean
	case OpPrepare:
		lsn, err := s.prepare(req)
		if err != nil {
			return nil, err
		}
		return &Response{N: uint64(lsn)}, nil // dominated by s.prepare: clean here
	case OpCommit:
		if req.Tx == 0 {
			return &Response{}, nil // acked with no force and no quorum wait: violation of both
		}
		var lsn wal.LSN
		var err error
		switch req.Mode {
		case 1:
			lsn, err = s.commitGuarded(req)
		case 2:
			lsn, err = s.commitMaint(req)
		default:
			lsn, err = s.commit(req)
		}
		if err != nil {
			return nil, err
		}
		return &Response{N: uint64(lsn)}, nil
	case OpCommitDecision:
		lsn, err := s.decide(req)
		if err != nil {
			return nil, err
		}
		return &Response{N: uint64(lsn)}, nil
	}
	return nil, nil
}

// prepare forces its vote but never waits for the quorum: a leader
// failover can forget a vote the coordinator already counted. Violation
// (quorum gate).
func (s *Server) prepare(req *Request) (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// decide acks one path before its force and its quorum wait: a crash or a
// failover after that ack revokes a decision the participants were told.
// Violation (both gates).
func (s *Server) decide(req *Request) (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	if req.Mode == 9 {
		return lsn, nil // acked before the force and the wait below: violation
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	if err := s.repl.WaitQuorum(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commit forces and waits for the quorum before every ack: clean.
func (s *Server) commit(req *Request) (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	if err := s.repl.WaitQuorum(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitGuarded waits for the quorum only when a waiter is attached: the
// path around the guard acks without it. Violation (quorum gate).
func (s *Server) commitGuarded(req *Request) (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	if q := s.repl; q != nil {
		if err := q.WaitQuorum(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// commitMaint is a deliberate pre-replication maintenance path; the
// directive keeps its quorum finding out of the report.
func (s *Server) commitMaint(req *Request) (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	if err := s.log.FlushCommit(lsn); err != nil {
		return 0, err
	}
	//qsvet:ignore ackorder maintenance path runs before replication attaches
	return lsn, nil
}
