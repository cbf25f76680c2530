package harness

import (
	"testing"

	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/oo7"
	"quickstore/internal/sim"
)

// TestCrashDrill runs the full drill matrix: every named crash point (plus
// a fault-free control), at two injection depths, with and without torn
// log tails, across seeds that also mix in transient read faults and
// aborting transactions. Every combination must recover with zero
// invariant violations.
func TestCrashDrill(t *testing.T) {
	points := append([]faultinject.Point{0}, faultinject.AllPoints()...)
	runs, crashes, committed := 0, 0, 0
	for _, pt := range points {
		for _, hitN := range []int{1, 3} {
			for _, short := range []bool{false, true} {
				for seed := int64(1); seed <= 4; seed++ {
					opts := DrillOpts{
						Seed:       seed*997 + int64(hitN)*31 + int64(len(pt.String())),
						Point:      pt,
						HitN:       hitN,
						ShortFlush: short,
						Transient:  int(seed%2) * 2,
						AbortEvery: 3,
						Dir:        t.TempDir(),
					}
					rep, err := RunCrashDrill(opts)
					if err != nil {
						t.Fatalf("point=%q hitN=%d short=%v seed=%d: %v", pt, hitN, short, opts.Seed, err)
					}
					for _, v := range rep.Violations {
						t.Errorf("point=%q hitN=%d short=%v seed=%d: %s (trace %v)",
							pt, hitN, short, opts.Seed, v, rep.Trace)
					}
					runs++
					if rep.Crashed {
						crashes++
					}
					committed += rep.Committed
				}
			}
		}
	}
	if runs < 200 {
		t.Fatalf("matrix ran %d combinations, want >= 200", runs)
	}
	// The matrix must actually exercise crashes and real commits, or the
	// invariant sweep is vacuous.
	if crashes < runs/4 {
		t.Fatalf("only %d of %d drills crashed; the points are not firing", crashes, runs)
	}
	if committed == 0 {
		t.Fatal("no drill committed a transaction")
	}
	t.Logf("crash drill: %d combinations, %d crashed, %d transactions committed", runs, crashes, committed)
}

// TestCrashDrillConcurrent runs the drill matrix with four concurrent
// workload sessions: every named crash point (plus a fault-free control)
// fires while four clients race reads, steals, group-committed log forces,
// and cross-worker page locks. Recovery must resolve each worker's in-doubt
// transaction atomically and independently.
func TestCrashDrillConcurrent(t *testing.T) {
	points := append([]faultinject.Point{0}, faultinject.AllPoints()...)
	runs, crashes, committed, inDoubt := 0, 0, 0, 0
	for _, pt := range points {
		for _, hitN := range []int{1, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				opts := DrillOpts{
					Seed:       seed*499 + int64(hitN)*17 + int64(len(pt.String())),
					Point:      pt,
					HitN:       hitN,
					Workers:    4,
					Txns:       8,
					AbortEvery: 3,
					Transient:  int(seed % 2),
					Dir:        t.TempDir(),
				}
				rep, err := RunCrashDrill(opts)
				if err != nil {
					t.Fatalf("point=%q hitN=%d seed=%d: %v", pt, hitN, opts.Seed, err)
				}
				for _, v := range rep.Violations {
					t.Errorf("point=%q hitN=%d seed=%d workers=4: %s (trace %v)",
						pt, hitN, opts.Seed, v, rep.Trace)
				}
				runs++
				if rep.Crashed {
					crashes++
				}
				if rep.InDoubt {
					inDoubt++
				}
				committed += rep.Committed
			}
		}
	}
	// The concurrent matrix must actually exercise crashes, commits, and
	// cut-off transactions, or the sweep is vacuous.
	if crashes < runs/4 {
		t.Fatalf("only %d of %d concurrent drills crashed; the points are not firing", crashes, runs)
	}
	if committed == 0 {
		t.Fatal("no concurrent drill committed a transaction")
	}
	if inDoubt == 0 {
		t.Fatal("no concurrent drill left a transaction in doubt")
	}
	t.Logf("concurrent crash drill: %d combinations, %d crashed, %d committed, %d in doubt",
		runs, crashes, committed, inDoubt)
}

// TestCrashDrillDetectsTornPageWrites proves the drill's sensitivity: with
// sub-page torn writes enabled (breaking the atomic-page-write assumption
// the recovery protocol depends on), some seed must produce a detected
// invariant violation — a broken checksum, a lost committed value, or an
// unrecoverable catalog. If the drill cannot see planted corruption, its
// clean matrix runs prove nothing.
func TestCrashDrillDetectsTornPageWrites(t *testing.T) {
	detected := 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, hitN := range []int{1, 2, 4} {
			rep, err := RunCrashDrill(DrillOpts{
				Seed:      seed,
				Point:     faultinject.PtDiskWrite,
				HitN:      hitN,
				TornWrite: true,
				Dir:       t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashed && len(rep.Violations) > 0 {
				detected++
			}
		}
		if detected > 0 {
			break
		}
	}
	if detected == 0 {
		t.Fatal("torn page writes never produced a detectable violation; the drill is blind")
	}
}

// TestCrashDrillOO7 runs the drill on the paper's own workload: an OO7
// database on a file-backed store, a T2 update transaction killed at a
// commit point, restart recovery, and the structural invariant that the
// T1 traversal sees exactly the same graph as before the crash.
func TestCrashDrillOO7(t *testing.T) {
	plane := faultinject.New(23)
	clock := sim.NewClock(sim.DefaultCostModel())
	node, err := newDrillNode(t.TempDir(), plane, esm.ServerConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	p := oo7.SmallTest()
	e := &Env{Sys: SysQS, Params: p, Clock: clock, Srv: node.srv}
	gen, err := e.open(SessionOpts{BufferPages: 64}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := oo7.Generate(gen, p); err != nil {
		t.Fatal(err)
	}
	if err := node.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db, err := e.Session(SessionOpts{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := oo7.T1(db)
	if err != nil {
		t.Fatal(err)
	}
	if baseline == 0 {
		t.Fatal("empty OO7 database")
	}

	// Kill the server inside a T2 update's commit, before the log force:
	// the whole update transaction must vanish at restart.
	plane.ArmCrash(faultinject.PtCommitBeforeFlush, 1)
	if _, err := oo7.T2(db, oo7.VariantA); !faultinject.IsCrash(err) {
		t.Fatalf("T2 through an armed commit point returned %v", err)
	}
	if err := node.kill(); err != nil {
		t.Fatal(err)
	}
	srv2, err := node.restart(esm.ServerConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer node.close()
	e2 := &Env{Sys: SysQS, Params: p, Clock: clock, Srv: srv2}
	db2, err := e2.Session(SessionOpts{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	after, err := oo7.T1(db2)
	if err != nil {
		t.Fatalf("T1 after recovery: %v", err)
	}
	if after != baseline {
		t.Fatalf("T1 sees %d parts after recovery, want %d", after, baseline)
	}
	// The recovered store still completes the same update workload.
	if _, err := oo7.T2(db2, oo7.VariantA); err != nil {
		t.Fatalf("T2 after recovery: %v", err)
	}
	if again, err := oo7.T1(db2); err != nil || again != baseline {
		t.Fatalf("T1 after recovered T2: %d, %v (want %d)", again, err, baseline)
	}
}

// TestCheckpointUnderLoadDrill races fuzzy checkpoints against four
// concurrent workload sessions and crashes inside the checkpoint itself —
// before the volume sync, before the log truncation, and just after it.
// This drills the truncation boundary: a transaction that begins and
// commits anywhere in the checkpoint window must survive the crash (the
// old quiescent checkpoint truncated such a transaction's records while
// its pages sat dirty only in the pool).
func TestCheckpointUnderLoadDrill(t *testing.T) {
	points := []faultinject.Point{
		0,
		faultinject.PtCheckpointBeforeSync,
		faultinject.PtCheckpointBeforeTruncate,
		faultinject.PtCheckpointAfterTruncate,
	}
	runs, crashes, committed := 0, 0, 0
	for _, pt := range points {
		for _, hitN := range []int{1, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				opts := DrillOpts{
					Seed:         seed*733 + int64(hitN)*13 + int64(len(pt.String())),
					Point:        pt,
					HitN:         hitN,
					Workers:      4,
					Txns:         8,
					AbortEvery:   3,
					Checkpointer: true,
					Dir:          t.TempDir(),
				}
				rep, err := RunCrashDrill(opts)
				if err != nil {
					t.Fatalf("point=%q hitN=%d seed=%d: %v", pt, hitN, opts.Seed, err)
				}
				for _, v := range rep.Violations {
					t.Errorf("point=%q hitN=%d seed=%d: %s (trace %v)",
						pt, hitN, opts.Seed, v, rep.Trace)
				}
				runs++
				if rep.Crashed {
					crashes++
				}
				committed += rep.Committed
			}
		}
	}
	// The checkpoint points must actually fire mid-traffic, and commits
	// must land around them, or the truncation-boundary sweep is vacuous.
	if crashes == 0 {
		t.Fatal("no drill crashed inside a checkpoint; the points are not firing under load")
	}
	if committed == 0 {
		t.Fatal("no drill committed a transaction while checkpoints ran")
	}
	t.Logf("checkpoint drill: %d combinations, %d crashed, %d transactions committed",
		runs, crashes, committed)
}

// TestCrashDrillCoherenceSweepNonVacuous pins down that the pre-kill
// coherence capture actually collects clean tokened frames — otherwise the
// post-restart staleness sweep (never serve a too-old "not modified")
// passes vacuously.
func TestCrashDrillCoherenceSweepNonVacuous(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := RunCrashDrill(DrillOpts{Seed: seed, Point: faultinject.PtCohAfterBump, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Crashed {
			t.Errorf("seed %d: coherence.after-bump never fired", seed)
		}
		total += rep.WarmFrames
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
	if total == 0 {
		t.Error("no coherence frames captured; the sweep is vacuous")
	}
}

// TestCrashDrillKillsSetRootBeforeCommit: every workload transaction names a
// root after its writes. Without a crash point the node is killed with the
// last transaction between its SetRoot and its commit; with one armed on the
// commit path, the third commit is cut off there, its directory records
// applied but its commit record not (yet) durable. After restart each
// acknowledged transaction's root is present, each aborted or in-flight
// one's absent, and a cut-off one's present exactly when its values are.
func TestCrashDrillKillsSetRootBeforeCommit(t *testing.T) {
	points := []faultinject.Point{0, faultinject.PtCommitAfterInstall, faultinject.PtCohAfterBump,
		faultinject.PtCommitBeforeFlush, faultinject.PtCommitAfterFlush}
	for _, pt := range points {
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := RunCrashDrill(DrillOpts{Seed: seed, Point: pt, HitN: 3, Txns: 6, AbortEvery: 4, Roots: true, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if pt != 0 && !rep.Crashed {
				t.Errorf("point=%q seed=%d: the point never fired", pt, seed)
			}
			if rep.Committed == 0 {
				t.Errorf("point=%q seed=%d: no transaction committed; the root check is vacuous", pt, seed)
			}
			for _, v := range rep.Violations {
				t.Errorf("point=%q seed=%d: %s (trace %v)", pt, seed, v, rep.Trace)
			}
		}
	}
}
