//go:build race

package esm

// Allocation budgets of a race-detector build, whose sync.Pool drops a
// random quarter of what is put back, so pooled paths allocate by chance:
// about 4 per fault, 7–8 per Begin+Commit and 1 per three flushes there.
// Each budget still fails the unpooled costs (about 10 per round trip, and
// one vector per flush).
const (
	maxFetchAllocs        = 8
	maxBeginCommitAllocs  = 12
	maxFlushesAllocs      = 2
	maxLoggedCommitAllocs = 12
)
