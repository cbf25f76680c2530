package harness

import (
	"bytes"
	"strings"
	"testing"

	"quickstore/internal/oo7"
	"quickstore/internal/sim"
)

// TestPrefetchColdT1 compares the two fault paths on the paper's small
// database under the 1994 cost model: read-ahead must cut cold T1's
// page-read round trips at least threefold without changing the traversal
// result, shipping a page demand paging would not have, or moving the hot
// (in-memory) time. The simulated cold time prices page transfers, not round
// trips, so it may not rise but is not expected to fall.
func TestPrefetchColdT1(t *testing.T) {
	env, err := Build(SysQS, oo7.Small())
	if err != nil {
		t.Fatal(err)
	}
	ops := Ops(oo7.Small())
	off, err := env.RunColdHot(ops["T1"], SessionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := env.RunColdHot(ops["T1"], SessionOpts{ReadAhead: true})
	if err != nil {
		t.Fatal(err)
	}

	if on.Result != off.Result {
		t.Fatalf("read-ahead changed the traversal result: demand=%d ahead=%d", off.Result, on.Result)
	}
	if on.ColdMs > off.ColdMs*1.001 {
		t.Errorf("cold T1 simulated time rose: demand=%.0fms ahead=%.0fms", off.ColdMs, on.ColdMs)
	}
	// Hot runs touch no non-resident pages, so read-ahead must be
	// completely inert there. The deltas are differences of accumulated
	// floats, so allow rounding noise.
	if diff := on.HotMs - off.HotMs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("hot T1 changed: demand=%.6fms ahead=%.6fms", off.HotMs, on.HotMs)
	}
	if n := on.HotDelta.Count(sim.CtrPrefetchIssued); n != 0 {
		t.Errorf("hot run read %d pages ahead, want 0", n)
	}

	// The counters must tell a coherent story: every page read ahead was
	// used, every hit replaced a demand read, and the round trips fell.
	cd := on.ColdDelta
	hits := cd.Count(sim.CtrPrefetchHit)
	issued := cd.Count(sim.CtrPrefetchIssued)
	if hits == 0 || hits != issued || cd.Count(sim.CtrPrefetchWasted) != 0 {
		t.Errorf("read ahead %d pages: %d hits, %d wasted; want every page used",
			issued, hits, cd.Count(sim.CtrPrefetchWasted))
	}
	if got := on.ColdIOs() + issued; got != off.ColdIOs() {
		t.Errorf("pages shipped: %d with read-ahead, %d on demand", got, off.ColdIOs())
	}
	if trips := on.ColdIOs() + cd.Count(sim.CtrPrefetchBatch); trips*3 > off.ColdIOs() {
		t.Errorf("page-read round trips: %d with read-ahead, %d on demand, want at most a third", trips, off.ColdIOs())
	}
}

// TestPrefetchOffIsInert checks the determinism contract: a harness session
// that does not ask for read-ahead pages on demand, and its counters contain
// no read-ahead activity at all, so every paper-table experiment is untouched.
func TestPrefetchOffIsInert(t *testing.T) {
	env, err := Build(SysQS, oo7.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.RunColdHot(Ops(oo7.SmallTest())["T1"], SessionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []sim.Counter{
		sim.CtrPrefetchIssued, sim.CtrPrefetchBatch, sim.CtrPrefetchHit, sim.CtrPrefetchWasted,
	} {
		if n := m.ColdDelta.Count(c) + m.HotDelta.Count(c); n != 0 {
			t.Errorf("%v = %d under demand paging, want 0", c, n)
		}
	}
}

// TestPrefetchExperimentRuns exercises the "-exp prefetch" report end to end
// on the reduced configuration.
func TestPrefetchExperimentRuns(t *testing.T) {
	var out bytes.Buffer
	s := tinySuite(&out)
	s.RunMedium = false
	if err := s.Run([]string{"prefetch"}); err != nil {
		t.Fatalf("prefetch experiment failed: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "demand paging vs read-ahead") {
		t.Errorf("missing report title in output:\n%s", text)
	}
	if !strings.Contains(text, "pf.hit") {
		t.Errorf("missing prefetch counters in output:\n%s", text)
	}
}
