package esm

import (
	"testing"

	"quickstore/internal/disk"
)

// TestIndexFreesWhatCutDrops fills the page-change index over several
// chunks of entries and of ranges and cuts it: it keeps at most one chunk
// of each beyond what its live entries fill, and answers deltas for a live
// mark but not for one the cut dropped. A steady cycle of filling and a
// cut that drops everything allocates only the chunks the entries fill.
func TestIndexFreesWhatCutDrops(t *testing.T) {
	const (
		changesPer = 1 << changeChunkShift
		spansPer   = 1 << spanChunkShift
		ranges     = 8 // per entry, 64 bytes apart: never merged
		pages      = 64
	)
	c := newCohState(1)
	key := uint64(1)
	note := func(entries int) {
		c.mu.Lock()
		for i := 0; i < entries; i++ {
			c.noteLocked(disk.PageID(key%pages), key)
			for r := 0; r < ranges; r++ {
				c.noteSpanLocked(r*64, 8)
			}
			key++
		}
		c.mu.Unlock()
	}
	chunksFor := func(n, per int) int { return (n + per - 1) / per }

	note(3*changesPer + changesPer/2)
	if got, want := len(c.changes.chunks), 4; got != want {
		t.Fatalf("setup: %d chunks of entries, want %d", got, want)
	}
	const live = changesPer + 100
	cut := key - live
	c.dropBefore(cut)
	if n := c.indexEntries(); n != live {
		t.Fatalf("the cut kept %d entries, want the %d keyed at or past it", n, live)
	}
	if got, max := len(c.changes.chunks), chunksFor(live, changesPer)+1; got > max {
		t.Errorf("after the cut the index holds %d chunks of entries for %d live ones, want at most %d", got, live, max)
	}
	if got, max := len(c.spans.chunks), chunksFor(live*ranges, spansPer)+1; got > max {
		t.Errorf("after the cut the index holds %d chunks of ranges for %d live ones, want at most %d", got, live*ranges, max)
	}

	// The newest page's chain: a live key one lap of pages back is
	// vouched for, with every range the entries after it wrote; a key the
	// cut dropped is not, nor one above the cut that the chain, walked
	// down to its link into the dropped entries, never held.
	cur := make([]byte, disk.PageSize)
	for i := range cur {
		cur[i] = byte(i) | 1
	}
	pid := disk.PageID((key - 1) % pages)
	if out, ok := c.appendDelta(nil, cur, pid, key-1-pages); !ok || len(out) == 0 {
		t.Errorf("no delta from a live mark (ok %v, %d bytes)", ok, len(out))
	}
	if _, ok := c.appendDelta(nil, cur, pid, cut-pages); ok {
		t.Error("a delta from a mark the cut dropped")
	}
	if _, ok := c.appendDelta(nil, cur, pid, key); ok {
		t.Error("a delta from a mark the page never had")
	}

	// Steady cycles: each fills one chunk of entries and two of ranges
	// and a cut drops them all; the cycle allocates exactly those chunks.
	c.dropBefore(key)
	cycle := func() {
		note(changesPer)
		c.dropBefore(key)
	}
	cycle()
	if len(c.changes.chunks) != 0 || len(c.spans.chunks) != 0 || c.indexEntries() != 0 {
		t.Fatalf("a cut past every entry kept %d+%d chunks, %d entries", len(c.changes.chunks), len(c.spans.chunks), c.indexEntries())
	}
	want := float64(chunksFor(changesPer, changesPer) + chunksFor(changesPer*ranges, spansPer) + indexCycleExtraAllocs)
	if n := testing.AllocsPerRun(4, cycle); n > want {
		t.Errorf("a cut/regrow cycle allocates %v times, want at most %v (its chunks)", n, want)
	}
}
