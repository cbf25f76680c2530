//go:build race

package bench

// Allocation budgets of a race-detector build, whose sync.Pool drops a
// random quarter of what is put back: a pooled round trip then allocates by
// chance (about 1.5 per fault in process, 3.7 over the mux). These are the
// budgets that held before round trips were pooled; the mux path gets the
// in-process per-fault one, under the ~10 per fault it cost unpooled.
const (
	maxHotT1Allocs        = 64
	maxAllocsPerFault     = 8
	maxAllocsPerMuxFault  = 8
	maxColdSessionAllocs  = 1000
	maxAllocsPerColdFault = 4
)
