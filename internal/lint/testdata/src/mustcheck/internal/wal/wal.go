// Package wal is a mustcheck-fixture mirror of the real log: the
// analyzer's must-check table keys on this package path, the Log receiver,
// and these method names.
package wal

// Log is the write-ahead log.
type Log struct{}

// Flush forces the log to stable storage.
func (l *Log) Flush() error { return nil }

// TruncateBefore discards the log prefix below n.
func (l *Log) TruncateBefore(n int) error { return nil }
