package harness

import (
	"testing"

	"quickstore/internal/faultinject"
)

// TestReplDrillQuiescentKill is the base case: no armed point, the leader
// killed after a clean workload, every acked commit on the new leader.
func TestReplDrillQuiescentKill(t *testing.T) {
	rep, err := RunReplDrill(ReplDrillOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v\ntrace: %v", rep.Violations, rep.Trace)
	}
	if !rep.ForcedKill || rep.NewLeader == "" {
		t.Fatalf("drill did not fail over: %+v", rep)
	}
	if rep.Committed != 12 {
		t.Fatalf("clean workload committed %d of 12", rep.Committed)
	}
}

// TestReplDrillCrashPoints kills the leader at the commit-protocol and
// replication points most likely to split an acked commit from its quorum.
// The full registry matrix runs from the CLI (qsstore crashdrill -repl).
func TestReplDrillCrashPoints(t *testing.T) {
	points := []faultinject.Point{
		faultinject.PtCommitBeforeFlush,
		faultinject.PtCommitAfterFlush,
		faultinject.PtReplBeforeQuorum,
		faultinject.PtReplAfterQuorum,
		faultinject.PtReplShip,
	}
	for _, pt := range points {
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := RunReplDrill(ReplDrillOpts{Seed: seed, Point: pt, HitN: 2})
			if err != nil {
				t.Fatalf("%s seed %d: %v", pt, seed, err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("%s seed %d: violations %v\ntrace: %v", pt, seed, rep.Violations, rep.Trace)
			}
			if rep.NewLeader == "" {
				t.Fatalf("%s seed %d: no failover: %+v", pt, seed, rep)
			}
		}
	}
}
