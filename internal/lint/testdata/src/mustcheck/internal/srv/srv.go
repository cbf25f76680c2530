// Package srv exercises the mustcheck analyzer against the fixture log.
package srv

import "quickstore/internal/wal"

// badBare drops the flush error on the floor.
func badBare(l *wal.Log) {
	l.Flush()
}

// badBlank discards it explicitly.
func badBlank(l *wal.Log) {
	_ = l.Flush()
}

// badDefer defers the flush, losing the error.
func badDefer(l *wal.Log) {
	defer l.Flush()
}

// good checks every error: no finding.
func good(l *wal.Log) error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.TruncateBefore(0)
}

// suppressed documents a best-effort flush on an already-failing path.
func suppressed(l *wal.Log) {
	//qsvet:ignore mustcheck fixture: demonstrating the suppression directive
	_ = l.Flush()
}
