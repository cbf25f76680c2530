package oo7

import (
	"fmt"
	"math/rand"

	"quickstore/internal/sim"
)

// The OO7 operations (Section 4.2). Each runs inside its own transaction
// and returns an integer result (visit count, update count, character
// count, ...) that must agree across all three systems — the harness and
// tests verify this.

// UpdateKind selects the T2/T3 variant.
type UpdateKind int

// Update variants: A updates the root atomic part of each composite part,
// B all atomic parts, C all atomic parts four times.
const (
	VariantA UpdateKind = iota
	VariantB
	VariantC
)

// String names the variant ("A", "B", "C").
func (v UpdateKind) String() string { return [...]string{"A", "B", "C"}[v] }

// run wraps an operation in a transaction with error propagation.
func run(db DB, op func() (int, error)) (int, error) {
	if err := db.Begin(); err != nil {
		return 0, err
	}
	n, err := op()
	if err != nil {
		_ = db.Abort()
		return 0, err
	}
	if err := db.Err(); err != nil {
		_ = db.Abort()
		return 0, fmt.Errorf("oo7/%s: %w", db.Name(), err)
	}
	return n, db.Commit()
}

// graphWalker depth-first-searches atomic-part graphs for one operation. It
// owns the operation's visited set, so the thousands of searches in a
// traversal share one allocation.
type graphWalker struct {
	db    DB
	clock *sim.Clock
	seen  partSet
	visit func(part Ref)
}

func newGraphWalker(db DB) *graphWalker {
	return &graphWalker{db: db, clock: db.Clock()}
}

// traverse searches comp's atomic-part graph from its root part, calling
// visit for each part seen for the first time in this search. It returns
// the number of parts visited. A transient "iterator" is charged per node
// and a part-id set operation per check, mirroring the transient-structure
// costs of Table 7.
func (w *graphWalker) traverse(comp Ref, visit func(part Ref)) int {
	root := w.db.GetRef(comp, TCompositePart, CompRootPart)
	if root == NilRef {
		return 0
	}
	w.seen.reset()
	w.visit = visit
	return w.dfs(root)
}

func (w *graphWalker) dfs(part Ref) int {
	w.clock.Charge(sim.CtrPartSetOp, 1) // Table 7's part set bucket
	id := w.db.GetI32(part, TAtomicPart, APartID)
	if w.seen.visited(id) {
		return 0
	}
	if w.visit != nil {
		w.visit(part)
	}
	w.clock.Charge(sim.CtrIterAlloc, 1) // and its malloc bucket
	count := 1
	for _, f := range [3]int{APartConn0, APartConn1, APartConn2} {
		conn := w.db.GetRef(part, TAtomicPart, f)
		if conn == NilRef {
			continue
		}
		count += w.dfs(w.db.GetRef(conn, TConnection, ConnTo))
	}
	return count
}

// partSet is a set of atomic-part ids that empties in O(1): an id is a
// member while its stamp equals the current epoch. The generator numbers
// parts densely from 1, so the stamps are a slice indexed by id; anything
// else a damaged database could hold goes to a map.
type partSet struct {
	stamp []uint32
	far   map[int32]uint32
	epoch uint32
}

// maxDensePartID bounds the stamp slice (64 MB of stamps).
const maxDensePartID = 1 << 24

func (s *partSet) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps would read as current
		clear(s.stamp)
		clear(s.far)
		s.epoch = 1
	}
}

// visited reports whether id is in the set, adding it if not.
func (s *partSet) visited(id int32) bool {
	if id < 0 || id >= maxDensePartID {
		if s.far[id] == s.epoch {
			return true
		}
		if s.far == nil {
			s.far = map[int32]uint32{}
		}
		s.far[id] = s.epoch
		return false
	}
	if int(id) >= len(s.stamp) {
		grown := make([]uint32, max(2*len(s.stamp), int(id)+1, 1024))
		copy(grown, s.stamp)
		s.stamp = grown
	}
	if s.stamp[id] == s.epoch {
		return true
	}
	s.stamp[id] = s.epoch
	return false
}

// forEachBaseAssembly walks the assembly hierarchy depth-first from the
// module's design root, calling fn at each base assembly. Base assemblies
// are recognized by their negated level field, which both assembly types
// keep at the same byte offset (the C++ benchmark's static type knowledge).
func forEachBaseAssembly(db DB, fn func(base Ref)) error {
	module := db.Root("module")
	rootAsm := db.GetRef(module, TModule, ModRoot)
	var down func(asm Ref)
	down = func(asm Ref) {
		for _, f := range [3]int{CAsmSub0, CAsmSub1, CAsmSub2} {
			sub := db.GetRef(asm, TComplexAssembly, f)
			if sub == NilRef {
				continue
			}
			if db.GetI32(sub, TComplexAssembly, CAsmLevel) < 0 {
				fn(sub)
			} else {
				down(sub)
			}
		}
	}
	if rootAsm == NilRef {
		return fmt.Errorf("oo7: module has no design root")
	}
	if db.GetI32(rootAsm, TComplexAssembly, CAsmLevel) < 0 {
		fn(rootAsm) // degenerate one-level hierarchy
	} else {
		down(rootAsm)
	}
	return db.Err()
}

// T1 performs the dense read-only traversal: DFS of the assembly
// hierarchy; at each base assembly, DFS the atomic-part graph of each of
// its composite parts. Returns the number of atomic parts visited.
func T1(db DB) (int, error) {
	return run(db, func() (int, error) {
		total := 0
		w := newGraphWalker(db)
		err := forEachBaseAssembly(db, func(base Ref) {
			for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
				comp := db.GetRef(base, TBaseAssembly, f)
				if comp == NilRef {
					continue
				}
				total += w.traverse(comp, nil)
			}
		})
		return total, err
	})
}

// T6 performs the sparse traversal: like T1, but visits only the root
// atomic part of each composite part.
func T6(db DB) (int, error) {
	return run(db, func() (int, error) {
		total := 0
		err := forEachBaseAssembly(db, func(base Ref) {
			for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
				comp := db.GetRef(base, TBaseAssembly, f)
				if comp == NilRef {
					continue
				}
				root := db.GetRef(comp, TCompositePart, CompRootPart)
				if root == NilRef {
					continue
				}
				_ = db.GetI32(root, TAtomicPart, APartID)
				total++
			}
		})
		return total, err
	})
}

// T2 is T1 with updates to the (x, y) attributes. Per the paper's variant
// of the benchmark, the attributes are incremented rather than swapped so
// repeated updates change the value and the diffing scheme always produces
// log records.
func T2(db DB, kind UpdateKind) (int, error) {
	return run(db, func() (int, error) {
		updates := 0
		bump := func(part Ref) {
			db.SetI32(part, TAtomicPart, APartX, db.GetI32(part, TAtomicPart, APartX)+1)
			db.SetI32(part, TAtomicPart, APartY, db.GetI32(part, TAtomicPart, APartY)+1)
			updates++
		}
		bump4 := func(part Ref) {
			for i := 0; i < 4; i++ {
				bump(part)
			}
		}
		w := newGraphWalker(db)
		err := forEachBaseAssembly(db, func(base Ref) {
			for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
				comp := db.GetRef(base, TBaseAssembly, f)
				if comp == NilRef {
					continue
				}
				switch kind {
				case VariantA:
					w.traverse(comp, nil)
					root := db.GetRef(comp, TCompositePart, CompRootPart)
					bump(root)
				case VariantB:
					w.traverse(comp, bump)
				case VariantC:
					w.traverse(comp, bump4)
				}
			}
		})
		return updates, err
	})
}

// T3 is T2 on the indexed buildDate attribute: every update also deletes
// and reinserts the part's entry in the buildDate index.
func T3(db DB, kind UpdateKind) (int, error) {
	return run(db, func() (int, error) {
		idx := db.Index(IdxPartDate)
		updates := 0
		bump := func(part Ref) {
			old := db.GetI32(part, TAtomicPart, APartBuildDate)
			idx.DeleteInt(int64(old), part)
			db.SetI32(part, TAtomicPart, APartBuildDate, old+1)
			idx.InsertInt(int64(old+1), part)
			updates++
		}
		bump4 := func(part Ref) {
			for i := 0; i < 4; i++ {
				bump(part)
			}
		}
		w := newGraphWalker(db)
		err := forEachBaseAssembly(db, func(base Ref) {
			for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
				comp := db.GetRef(base, TBaseAssembly, f)
				if comp == NilRef {
					continue
				}
				switch kind {
				case VariantA:
					w.traverse(comp, nil)
					bump(db.GetRef(comp, TCompositePart, CompRootPart))
				case VariantB:
					w.traverse(comp, bump)
				case VariantC:
					w.traverse(comp, bump4)
				}
			}
		})
		return updates, err
	})
}

// T7 picks a random atomic part (via the id index) and traverses up to the
// root of the design hierarchy. Returns the number of objects on the path.
func T7(db DB, p Params, seed int64) (int, error) {
	return run(db, func() (int, error) {
		rng := rand.New(rand.NewSource(seed))
		id := int64(1 + rng.Intn(p.NumAtomicParts()))
		refs := db.Index(IdxPartID).LookupInt(id)
		if len(refs) == 0 {
			return 0, fmt.Errorf("oo7: atomic part %d not found", id)
		}
		part := refs[0]
		visited := 1
		comp := db.GetRef(part, TAtomicPart, APartPartOf)
		visited++
		link := db.GetRef(comp, TCompositePart, CompUsedIn)
		if link == NilRef {
			return visited, nil // composite part used by no assembly
		}
		visited++
		asm := db.GetRef(link, TUseLink, UseAssembly)
		visited++
		// Up through the base assembly's super chain to the root.
		super := db.GetRef(asm, TBaseAssembly, BAsmSuper)
		for super != NilRef {
			visited++
			super = db.GetRef(super, TComplexAssembly, CAsmSuper)
		}
		return visited, nil
	})
}

// T8 scans the module's manual counting occurrences of ManualProbe,
// character by character.
func T8(db DB) (int, error) {
	return run(db, func() (int, error) {
		module := db.Root("module")
		man := db.GetRef(module, TModule, ModManual)
		size := uint64(db.GetI32(module, TModule, ModManSize))
		count := 0
		for i := uint64(0); i < size; i++ {
			if db.ReadLargeByte(man, i) == ManualProbe {
				count++
			}
		}
		return count, db.Err()
	})
}

// T9 compares the first and last characters of the manual; returns 1 when
// they match.
func T9(db DB) (int, error) {
	return run(db, func() (int, error) {
		module := db.Root("module")
		man := db.GetRef(module, TModule, ModManual)
		size := uint64(db.GetI32(module, TModule, ModManSize))
		first := db.ReadLargeByte(man, 0)
		last := db.ReadLargeByte(man, size-1)
		if first == last {
			return 1, nil
		}
		return 0, nil
	})
}

// Q1 retrieves 10 atomic parts at random through the id index; returns the
// number found.
func Q1(db DB, p Params, seed int64) (int, error) {
	return run(db, func() (int, error) {
		rng := rand.New(rand.NewSource(seed))
		idx := db.Index(IdxPartID)
		found := 0
		for i := 0; i < 10; i++ {
			id := int64(1 + rng.Intn(p.NumAtomicParts()))
			for _, part := range idx.LookupInt(id) {
				chargeIter(db)
				_ = db.GetI32(part, TAtomicPart, APartX)
				found++
			}
		}
		return found, nil
	})
}

// qDateRange runs the Q2/Q3 index scan over the most recent fraction of
// buildDates, touching each part returned.
func qDateRange(db DB, p Params, percent int) (int, error) {
	return run(db, func() (int, error) {
		span := p.MaxAtomicDate - p.MinAtomicDate + 1
		lo := int64(p.MaxAtomicDate - span*percent/100 + 1)
		hi := int64(p.MaxAtomicDate)
		count := 0
		db.Index(IdxPartDate).ScanInt(lo, hi, func(k int64, part Ref) bool {
			chargeIter(db)
			_ = db.GetI32(part, TAtomicPart, APartX)
			count++
			return true
		})
		return count, nil
	})
}

// Q2 selects the most recent 1% of atomic parts by buildDate.
func Q2(db DB, p Params) (int, error) { return qDateRange(db, p, 1) }

// Q3 selects the most recent 10% of atomic parts by buildDate.
func Q3(db DB, p Params) (int, error) { return qDateRange(db, p, 10) }

// Q4 looks up 10 documents by title and visits every base assembly using
// the corresponding composite part; returns the number of base assemblies
// touched.
func Q4(db DB, p Params, seed int64) (int, error) {
	return run(db, func() (int, error) {
		rng := rand.New(rand.NewSource(seed))
		idx := db.Index(IdxDocTitle)
		count := 0
		for i := 0; i < 10; i++ {
			title := TitleOf(1 + rng.Intn(p.NumCompPerModule))
			for _, doc := range idx.LookupString(title) {
				comp := db.GetRef(doc, TDocument, DocPart)
				for link := db.GetRef(comp, TCompositePart, CompUsedIn); link != NilRef; link = db.GetRef(link, TUseLink, UseNext) {
					chargeIter(db)
					base := db.GetRef(link, TUseLink, UseAssembly)
					_ = db.GetI32(base, TBaseAssembly, BAsmID)
					count++
				}
			}
		}
		return count, nil
	})
}

// Q5 is the single-level make: find base assemblies using a composite part
// with a build date later than the assembly's own (a nested-loops pointer
// join over the module's base-assembly collection).
func Q5(db DB) (int, error) {
	return run(db, func() (int, error) {
		module := db.Root("module")
		count := 0
		for base := db.GetRef(module, TModule, ModBAsmHead); base != NilRef; base = db.GetRef(base, TBaseAssembly, BAsmNext) {
			bd := db.GetI32(base, TBaseAssembly, BAsmBuildDate)
			for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
				comp := db.GetRef(base, TBaseAssembly, f)
				if comp == NilRef {
					continue
				}
				if db.GetI32(comp, TCompositePart, CompBuildDate) > bd {
					count++
					break
				}
			}
		}
		return count, db.Err()
	})
}
