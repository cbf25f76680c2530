package oo7

import "testing"

// TestPartSet checks the visited set against a map across resets, for the
// generator's dense ids, for ids only a damaged database could hold, and
// across the epoch counter's wrap.
func TestPartSet(t *testing.T) {
	var s partSet
	ids := []int32{1, 2, 20, 1023, 1024, 99_999, 0, -1, -1 << 31, maxDensePartID, 1<<31 - 1}
	for round := 0; round < 4; round++ {
		if round == 2 {
			s.epoch = ^uint32(0) // the next reset wraps
		}
		s.reset()
		model := map[int32]bool{}
		for step, id := range append(ids, ids...) {
			if round%2 == 1 && step%3 == 0 {
				continue // leave some ids unvisited this round
			}
			if got := s.visited(id); got != model[id] {
				t.Fatalf("round %d: visited(%d) = %v, want %v", round, id, got, model[id])
			}
			model[id] = true
		}
	}
	if len(s.stamp) > 1<<18 {
		t.Fatalf("stamp slice grew to %d entries for ids up to 99,999", len(s.stamp))
	}
}
