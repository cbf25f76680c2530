// Package wal is the quorumack fixture's miniature log: append assigns
// LSNs, FlushCommit makes them durable.
package wal

type LSN uint64

type Log struct {
	lsn LSN
}

func (l *Log) Append(rec []byte) (LSN, error) {
	l.lsn++
	return l.lsn, nil
}

func (l *Log) FlushCommit(lsn LSN) error {
	return nil
}
