// Package stats is an atomicfield fixture: counters kept in plain words
// through the sync/atomic functions, and in typed atomics.
package stats

import "sync/atomic"

// Counters keeps one counter in a plain word and one in a typed atomic.
type Counters struct {
	hits   int64
	misses atomic.Int64
}

// RecordHit updates a plain word through the function family: a finding,
// since nothing stops a plain read of hits elsewhere.
func (c *Counters) RecordHit() {
	atomic.AddInt64(&c.hits, 1)
}

// Hits reads it the same way: a finding.
func (c *Counters) Hits() int64 {
	return atomic.LoadInt64(&c.hits)
}

// RecordMiss uses the typed atomic's methods: no finding.
func (c *Counters) RecordMiss() int64 {
	c.misses.Add(1)
	return c.misses.Load()
}

var total uint32

// Snapshot documents a deliberate function call via the directive.
func Snapshot() uint32 {
	//qsvet:ignore atomicfield fixture: demonstrating the suppression directive
	return atomic.LoadUint32(&total)
}
