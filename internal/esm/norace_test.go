//go:build !race

package esm

// Allocation budgets of a plain build: a page fault's round trip over the
// mux, a Begin+Commit pair (its group-commit batch: both answers are
// pooled) and three serve-writer flushes.
const (
	maxFetchAllocs        = 0
	maxBeginCommitAllocs  = 1
	maxFlushesAllocs      = 0
	maxLoggedCommitAllocs = 4
	// beyond the chunks a cut/regrow cycle of the page-change index fills
	indexCycleExtraAllocs = 0
)
