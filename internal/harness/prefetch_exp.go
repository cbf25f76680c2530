package harness

import (
	"fmt"

	"quickstore/internal/sim"
)

// PrefetchExp ("-exp prefetch") compares the two fault paths: the Figure 8
// cold traversals rerun on QuickStore under demand paging (what every paper
// table uses) and under mapping-object read-ahead (what every session
// outside this harness gets). It is deliberately not part of "-exp all",
// whose tables price the 1994 protocol. With -medium the Figure 14 (medium
// database) traversals are repeated the same way.
func (s *Suite) PrefetchExp() error {
	if err := s.prefetchCold(false, "Read-ahead: cold traversals, small database (QS, demand paging vs read-ahead)"); err != nil {
		return err
	}
	return s.mediumGate(func() error {
		return s.prefetchCold(true, "Read-ahead: cold traversals, medium database (QS, demand paging vs read-ahead)")
	})
}

func (s *Suite) prefetchCold(medium bool, title string) error {
	p := s.Small
	if medium {
		p = s.Medium
	}
	env, err := Build(SysQS, p)
	if err != nil {
		return err
	}
	ops := Ops(p)
	t := Table{Title: title,
		Columns: []string{"op", "demand ms", "ahead ms", "demand trips", "ahead trips", "pages", "pf.issued", "pf.hit", "pf.wasted", "result"}}
	for _, name := range []string{"T1", "T6", "T7", "T8", "T9"} {
		off, err := env.RunColdHot(ops[name], SessionOpts{})
		if err != nil {
			return err
		}
		on, err := env.RunColdHot(ops[name], SessionOpts{ReadAhead: true})
		if err != nil {
			return err
		}
		if on.Result != off.Result {
			return fmt.Errorf("harness: read-ahead changed %s result: demand=%d ahead=%d", name, off.Result, on.Result)
		}
		issued := on.ColdDelta.Count(sim.CtrPrefetchIssued)
		t.AddRow(name,
			ms(off.ColdMs), ms(on.ColdMs),
			d(off.ColdIOs()), d(on.ColdIOs()+on.ColdDelta.Count(sim.CtrPrefetchBatch)),
			d(on.ColdIOs()+issued),
			d(issued),
			d(on.ColdDelta.Count(sim.CtrPrefetchHit)),
			d(on.ColdDelta.Count(sim.CtrPrefetchWasted)),
			d(int64(on.Result)))
	}
	t.Notes = append(t.Notes,
		"trips = page-read round trips (demand reads, read-ahead riding in some, + read-ahead batches); pages = page images shipped (demand paging ships one per trip)",
		"the 1994 cost model prices a page transfer, not a round trip, so simulated ms moves only with the pages shipped; real-clock numbers are in CHANGES.md")
	s.emit(t)
	return nil
}
