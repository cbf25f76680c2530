package lint

import "go/token"

// AnalyzerLockOrder enforces the documented lock hierarchy of the page
// server (internal/esm/server.go, DESIGN.md §10):
//
//	mu → (wal.Log.mu | volume lock) → lock manager → leaves
//
// with the buffer pool's latches (stripe latches, frame content latches)
// standing apart from the server lock: a latch may never be acquired
// while mu is held, and mu may never be acquired while a latch is held
// (the pool's FlushFn may take the WAL and volume locks under a content
// latch, which the ranks permit).
//
// The check builds a per-function lock-acquisition summary — a linear
// source-order walk that tracks the held set through Lock/Unlock pairs —
// and propagates acquisitions through the static call graph, so a
// function that calls a helper which takes mu while the caller holds a
// latch is flagged at the call site. Re-entrant acquisition of the same
// classified lock is flagged as a deadlock.
func AnalyzerLockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "enforce the documented lock order (mu → wal/volume; latches apart from the server lock) and flag re-entrant acquisitions",
		Run:  runLockOrder,
	}
}

func runLockOrder(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	s := summarize(prog)
	trans := s.transitiveAcquires()
	for _, fn := range s.funcs {
		// Direct acquisitions inside this function.
		for _, a := range fn.acquires {
			for _, h := range a.held {
				if msg := lockPairViolation(h.class, a.class, h.obj == a.obj); msg != "" {
					report(a.pos, "acquires %s while holding %s: %s", a.class.name, h.class.name, msg)
				}
			}
		}
		// Merge points where the branches disagree on what is held: one
		// path arrives still holding a lock another path has already
		// released (or arranged to release) — the signature of a branch
		// that leaked its unlock.
		for _, d := range fn.diverges {
			report(d.pos, "control-flow paths merge here with divergent held locks (%s vs %s): every path into a join must agree on what is held", d.a, d.b)
		}
		// Acquisitions reached through calls made with locks held.
		for _, cs := range fn.calls {
			if len(cs.held) == 0 {
				continue
			}
			reported := map[*lockClass]bool{}
			for class := range trans[cs.id] {
				if reported[class] {
					continue
				}
				for _, h := range cs.held {
					// Re-entrancy across calls compares classes: distinct
					// instances of one class are indistinguishable statically.
					if msg := lockPairViolation(h.class, class, h.class == class); msg != "" {
						reported[class] = true
						report(cs.pos, "call to %s acquires %s (path %s) while holding %s: %s",
							displayName(cs.id), class.name,
							chain(trans, cs.id, class, displayName), h.class.name, msg)
						break
					}
				}
			}
		}
	}
}

// lockPairViolation evaluates acquiring `next` while `held` is held.
// It returns a non-empty explanation when the pair breaks the hierarchy.
func lockPairViolation(held, next *lockClass, sameLock bool) string {
	switch {
	case sameLock:
		return "re-entrant acquisition deadlocks (sync mutexes are not recursive)"
	case next.latch && held.server:
		return "pool latches must be taken without mu held (DESIGN.md §10)"
	case next.server && held.latch:
		return "the server lock must never be taken under a pool latch (steal write-backs take wal/volume only)"
	case next.rank < held.rank:
		return "documented order is mu → wal/volume → lock manager → leaves"
	}
	return ""
}
