// Package esm is the quorumack fixture: the quorum gate of the ackorder
// check on its own. Every commit path forces its WAL record, so only the
// quorum wait decides a finding: gated, ungated, early-ack, nil-guarded
// and deliberately suppressed ack paths.
package esm

import "quickstore/internal/wal"

type Op int

const (
	OpBegin Op = iota
	OpCommit
)

type Request struct {
	Op Op
	Tx uint64
}

type Response struct{ N uint64 }

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
		return &Response{N: req.Tx}, nil // not a commit ack: clean
	case OpCommit:
		if req.Tx == 0 {
			if err := s.log.FlushCommit(0); err != nil {
				return nil, err
			}
			return &Response{}, nil // forced but no quorum wait: violation
		}
		var lsn wal.LSN
		var err error
		switch req.Tx {
		case 1:
			lsn, err = s.commitUngated(req)
		case 2:
			lsn, err = s.commitEarly(req)
		case 3:
			lsn, err = s.commitGuarded(req)
		case 4:
			lsn, err = s.commitMaint(req)
		default:
			lsn, err = s.commitGated(req)
		}
		if err != nil {
			return nil, err
		}
		return &Response{N: uint64(lsn)}, nil
	}
	return nil, nil
}

// force appends and forces one commit record.
func (s *Server) force() (wal.LSN, error) {
	lsn, err := s.log.Append(nil)
	if err != nil {
		return 0, err
	}
	return lsn, s.log.FlushCommit(lsn)
}

// commitGated acks only behind the quorum gate: clean.
func (s *Server) commitGated(req *Request) (wal.LSN, error) {
	lsn, err := s.force()
	if err != nil {
		return 0, err
	}
	if err := s.repl.WaitQuorum(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitUngated forces but never waits for the quorum: violation.
func (s *Server) commitUngated(req *Request) (wal.LSN, error) {
	lsn, err := s.force()
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitEarly has the gate but leaks a success return before it.
func (s *Server) commitEarly(req *Request) (wal.LSN, error) {
	lsn, err := s.force()
	if err != nil {
		return 0, err
	}
	if req.Tx%2 == 0 {
		return lsn, nil // acked before the gate below: violation
	}
	if err := s.repl.WaitQuorum(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitGuarded waits only when a waiter is attached: the path around the
// nil guard acks without the quorum. Violation.
func (s *Server) commitGuarded(req *Request) (wal.LSN, error) {
	lsn, err := s.force()
	if err != nil {
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
// directive keeps it out of the findings.
func (s *Server) commitMaint(req *Request) (wal.LSN, error) {
	lsn, err := s.force()
	if err != nil {
		return 0, err
	}
	//qsvet:ignore ackorder maintenance path runs before replication attaches
	return lsn, nil
}
