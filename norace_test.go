//go:build !race

package bench

// Allocation budgets of a plain build (bench_test.go says what they bound).
const (
	maxHotT1Allocs        = 8
	maxAllocsPerFault     = 1
	maxAllocsPerMuxFault  = 1
	maxColdSessionAllocs  = 130
	maxAllocsPerColdFault = 0.2
)
