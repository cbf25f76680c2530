package core

import (
	"quickstore/internal/buffer"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
)

// SimplifiedClock is QuickStore's buffer replacement policy (Section 3.5).
// A traditional clock cannot see accesses made through raw pointer
// dereferences, so for memory-mapped data pages the sweep inspects virtual
// frame protections: the first page whose access is not enabled is the
// victim. If a full sweep finds no candidate, the entire persistent address
// space is reprotected with a single mmap call and the sweep restarts.
//
// Pages that are not mapped data pages — B-tree nodes, mapping objects,
// bitmaps, and large-object data accessed through the storage manager — are
// touched via ordinary buffer-pool calls that do maintain reference bits,
// so they follow classic clock semantics (clear a set bit and move on, take
// the page when the bit is already clear).
//
// Balancing the two classes matters (both imbalances showed up as measured
// pathologies during reproduction; see DESIGN.md §7):
//   - if enabled data pages are immune until reprotection while metadata is
//     always fair game, update workloads evict hot B-tree leaves on every
//     miss (T3 became 3x slower than it should be);
//   - if data pages are always preferred as victims, workloads whose pool
//     is dominated by storage-manager pages (bulk loads writing large
//     objects) hunt down the few hot mapped pages and reprotect the whole
//     space on every miss.
//
// The rule used here: take a disabled data page if the sweep finds one;
// otherwise reprotect-and-retry only when mapped data pages make up a
// substantial share of the pool, else fall back to the classic-clock
// metadata victim.
type SimplifiedClock struct {
	s *Store
	// Diagnostics (read by tests).
	calls, protAlls, metaVictims, dataVictims int64
}

// NewSimplifiedClock builds the policy for a store; the store installs it
// into the client pool at session start.
func NewSimplifiedClock(s *Store) *SimplifiedClock { return &SimplifiedClock{s: s} }

// Victim implements buffer.Policy.
func (p *SimplifiedClock) Victim(pool *buffer.Pool) (int, error) {
	p.calls++
	n := pool.Len()
	for pass := 0; pass < 3; pass++ {
		metaFallback := -1
		dataSeen := 0
		for scanned := 0; scanned < n; scanned++ {
			i := pool.Hand
			pool.Hand = (pool.Hand + 1) % n
			f := pool.Frame(i)
			if f.Pin != 0 {
				continue
			}
			d := p.s.byFrame[i]
			if d == nil {
				// Metadata page: ordinary reference-bit clock.
				if f.Ref {
					f.Ref = false
					continue
				}
				if metaFallback < 0 {
					metaFallback = i
				}
				continue
			}
			dataSeen++
			prot, err := p.s.space.ProtOf(d.Lo)
			if err != nil || prot == vmem.ProtNone {
				p.dataVictims++
				return i, nil
			}
		}
		// No access-disabled data page. Reprotect the space and retry when
		// mapped pages dominate the pool (stale ones then become victims);
		// otherwise take the classic-clock metadata victim.
		if dataSeen >= n/4 || metaFallback < 0 {
			if dataSeen == 0 && metaFallback < 0 {
				continue // only referenced metadata; its bits are now clear
			}
			p.protAlls++
			p.s.space.ProtectAll(vmem.ProtNone)
			p.s.clock.Charge(sim.CtrMmapCall, 1)
			continue
		}
		p.metaVictims++
		return metaFallback, nil
	}
	return 0, buffer.ErrNoVictim
}

// DebugStats reports the policy's internal counters (tests only).
func (p *SimplifiedClock) DebugStats() (calls, protAlls, metaVictims, dataVictims int64) {
	return p.calls, p.protAlls, p.metaVictims, p.dataVictims
}
