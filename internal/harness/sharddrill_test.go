package harness

import (
	"testing"
)

// TestShardCrashDrillMatrix runs the full kill matrix: coordinator and
// participant each killed at every 2PC crash point on its side, with both
// shards power-failed, restarted, and swept. Zero violations means every
// cross-shard transaction resolved atomically — committed on both shards
// or neither — across every cut of the protocol.
func TestShardCrashDrillMatrix(t *testing.T) {
	tally, err := Sweep(t.TempDir(), ShardCells(20260808), func(c Cell, rep *DrillReport) {
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", c.Label, v)
		}
		if len(rep.Violations) > 0 && len(rep.Trace) > 0 {
			t.Logf("%s trace: %v", c.Label, rep.Trace)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, pts := range ShardCrashPoints {
		want += len(pts)
	}
	if tally.Runs != want {
		t.Fatalf("matrix ran %d cells, want %d", tally.Runs, want)
	}
	if tally.Crashed != tally.Runs {
		t.Errorf("only %d/%d armed points fired", tally.Crashed, tally.Runs)
	}
}

// TestShardDrillQuiescentKill power-fails both shards with no armed fault:
// everything acknowledged must survive, nothing should be in doubt. A
// victim outside the cluster is a harness error, not a drill.
func TestShardDrillQuiescentKill(t *testing.T) {
	rep, err := RunShardDrill(ShardDrillOpts{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Committed == 0 {
		t.Error("no transaction committed in the quiescent drill")
	}
	if rep.Resolved == nil || rep.Resolved.InDoubt != 0 {
		t.Errorf("quiescent kill left in-doubt transactions: %+v", rep.Resolved)
	}
	for _, victim := range []int{-1, len(VictimNames)} {
		if _, err := RunShardDrill(ShardDrillOpts{Victim: victim, Dir: t.TempDir()}); err == nil {
			t.Errorf("victim %d: drill ran on a shard the cluster does not have", victim)
		}
	}
}
