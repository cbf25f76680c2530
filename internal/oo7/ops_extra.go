package oo7

import (
	"fmt"
	"math/rand"
)

// This file implements the OO7 operations the paper's study omitted
// ("some of the OO7 operations were omitted because they didn't highlight
// any additional differences among the systems"): the remaining queries
// Q6–Q8 and the structural modification operations. They complete the
// benchmark implementation and exercise object deletion, which the paper
// only discusses (Section 4.5.2).

// Q6 is the all-level make: find every assembly (base or complex) that
// uses — directly for base assemblies, through any descendant for complex
// ones — a composite part with a build date later than the assembly's own.
// Returns the number of qualifying assemblies.
func Q6(db DB) (int, error) {
	return run(db, func() (int, error) {
		module := db.Root("module")
		rootAsm := db.GetRef(module, TModule, ModRoot)
		if rootAsm == NilRef {
			return 0, fmt.Errorf("oo7: module has no design root")
		}
		count := 0
		// walk returns the maximum composite-part build date in the
		// assembly's subtree and counts qualifying assemblies on the way.
		var walk func(asm Ref) int32
		walk = func(asm Ref) int32 {
			bd := db.GetI32(asm, TComplexAssembly, CAsmBuildDate)
			var maxComp int32 = -1
			if db.GetI32(asm, TComplexAssembly, CAsmLevel) < 0 {
				// Base assembly: direct composite parts.
				for _, f := range [3]int{BAsmComp0, BAsmComp1, BAsmComp2} {
					comp := db.GetRef(asm, TBaseAssembly, f)
					if comp == NilRef {
						continue
					}
					if d := db.GetI32(comp, TCompositePart, CompBuildDate); d > maxComp {
						maxComp = d
					}
				}
			} else {
				for _, f := range [3]int{CAsmSub0, CAsmSub1, CAsmSub2} {
					sub := db.GetRef(asm, TComplexAssembly, f)
					if sub == NilRef {
						continue
					}
					if d := walk(sub); d > maxComp {
						maxComp = d
					}
				}
			}
			if maxComp > bd {
				count++
			}
			return maxComp
		}
		walk(rootAsm)
		return count, db.Err()
	})
}

// Q7 scans every atomic part (via the id index, as the paper's hand-coded
// queries use the ESM B-trees) and counts them; the per-part touch forces
// the object access that makes this a real scan.
func Q7(db DB, p Params) (int, error) {
	return run(db, func() (int, error) {
		count := 0
		db.Index(IdxPartID).ScanInt(1, int64(p.NumAtomicParts()), func(k int64, part Ref) bool {
			chargeIter(db)
			_ = db.GetI32(part, TAtomicPart, APartX)
			count++
			return true
		})
		return count, nil
	})
}

// Q8 joins atomic parts with documents on the part's docId: for each part
// of a sample of composite parts, the document with id == docId is fetched
// through the title index. Returns the number of joined pairs.
func Q8(db DB, p Params, seed int64) (int, error) {
	return run(db, func() (int, error) {
		rng := rand.New(rand.NewSource(seed))
		idx := db.Index(IdxDocTitle)
		pairs := 0
		// The full O(|parts|) join is run on a composite-part sample to
		// keep the medium configuration tractable; each sampled composite
		// joins all of its parts.
		samples := 25
		if samples > p.NumCompPerModule {
			samples = p.NumCompPerModule
		}
		partIdx := db.Index(IdxPartID)
		for i := 0; i < samples; i++ {
			compID := 1 + rng.Intn(p.NumCompPerModule)
			firstPart := int64(compID-1)*int64(p.NumAtomicPerComp) + 1
			for pi := int64(0); pi < int64(p.NumAtomicPerComp); pi++ {
				for _, part := range partIdx.LookupInt(firstPart + pi) {
					docID := db.GetI32(part, TAtomicPart, APartDocID)
					for _, doc := range idx.LookupString(TitleOf(int(docID))) {
						if db.GetI32(doc, TDocument, DocID) == docID {
							pairs++
						}
					}
				}
			}
		}
		return pairs, nil
	})
}

// extrasRoot names the chain of composite parts created by StructuralInsert.
const extrasRoot = "oo7.extras"

// StructuralInsert creates n new composite parts — each with its document,
// atomic-part graph, connections, and index entries — and chains them from
// a persistent root so StructuralDelete can find them. Returns the number
// of objects created.
func StructuralInsert(db DB, p Params, n int, seed int64) (int, error) {
	return run(db, func() (int, error) {
		rng := rand.New(rand.NewSource(seed))
		idxID := db.Index(IdxPartID)
		idxDate := db.Index(IdxPartDate)
		idxTitle := db.Index(IdxDocTitle)
		cl := db.NewCluster()
		created := 0
		var chain Ref // existing chain, if any
		if prev, err := tryRoot(db, extrasRoot); err == nil {
			chain = prev
		}
		db.ClearErr() // a missing extras root is expected on first insert
		docText := make([]byte, 128)
		for i := range docText {
			docText[i] = byte('A' + i%26)
		}
		nextPartID := int32(p.NumAtomicParts() + 1000000) // out of the generator's id space
		for k := 0; k < n; k++ {
			cl.Break()
			compID := int32(p.NumCompPerModule + 1000 + k)
			comp := db.Alloc(cl, TCompositePart, 0)
			db.SetI32(comp, TCompositePart, CompID, compID)
			db.SetI32(comp, TCompositePart, CompBuildDate, int32(p.MinAtomicDate+rng.Intn(1000)))
			created++

			doc := db.Alloc(cl, TDocument, len(docText))
			db.SetI32(doc, TDocument, DocID, compID)
			db.SetRef(doc, TDocument, DocPart, comp)
			db.SetI32(doc, TDocument, DocTextLen, int32(len(docText)))
			db.SetTail(doc, TDocument, docText)
			title := TitleOf(int(compID))
			var tbuf [40]byte
			copy(tbuf[:], title)
			db.SetBytes(doc, TDocument, DocTitle, tbuf[:])
			idxTitle.InsertString(title, doc)
			db.SetRef(comp, TCompositePart, CompDoc, doc)
			created++

			const parts = 4
			refs := make([]Ref, parts)
			for pi := 0; pi < parts; pi++ {
				refs[pi] = db.Alloc(cl, TAtomicPart, 0)
				created++
			}
			connField := [3]int{APartConn0, APartConn1, APartConn2}
			for pi := 0; pi < parts; pi++ {
				part := refs[pi]
				bd := int32(p.MinAtomicDate + rng.Intn(1000))
				db.SetI32(part, TAtomicPart, APartID, nextPartID)
				db.SetI32(part, TAtomicPart, APartBuildDate, bd)
				db.SetI32(part, TAtomicPart, APartDocID, compID)
				db.SetRef(part, TAtomicPart, APartPartOf, comp)
				idxID.InsertInt(int64(nextPartID), part)
				idxDate.InsertInt(int64(bd), part)
				nextPartID++
				for c := 0; c < 3; c++ {
					conn := db.Alloc(cl, TConnection, 0)
					to := refs[(pi+1+c)%parts]
					db.SetRef(conn, TConnection, ConnFrom, part)
					db.SetRef(conn, TConnection, ConnTo, to)
					db.SetRef(conn, TConnection, ConnFromNext, db.GetRef(to, TAtomicPart, APartInConn))
					db.SetRef(to, TAtomicPart, APartInConn, conn)
					db.SetRef(part, TAtomicPart, connField[c], conn)
					created++
				}
			}
			db.SetRef(comp, TCompositePart, CompRootPart, refs[0])

			link := db.Alloc(cl, TExtraLink, 0)
			db.SetRef(link, TExtraLink, ExtraComp, comp)
			db.SetRef(link, TExtraLink, ExtraNext, chain)
			chain = link
			created++
		}
		db.SetRoot(extrasRoot, chain)
		return created, db.Err()
	})
}

// tryRoot resolves a root that may not exist yet.
func tryRoot(db DB, name string) (Ref, error) {
	r := db.Root(name)
	if err := db.Err(); err != nil {
		return NilRef, err
	}
	return r, nil
}

// StructuralDelete removes every composite part created by StructuralInsert:
// connections, atomic parts (with their index entries), the document (with
// its title index entry), the composite part itself, and the chain links.
// Returns the number of objects deleted.
func StructuralDelete(db DB) (int, error) {
	return run(db, func() (int, error) {
		link, err := tryRoot(db, extrasRoot)
		if err != nil || link == NilRef {
			db.ClearErr()
			return 0, nil // nothing inserted
		}
		idxID := db.Index(IdxPartID)
		idxDate := db.Index(IdxPartDate)
		deleted := 0
		w := newGraphWalker(db)
		for link != NilRef {
			comp := db.GetRef(link, TExtraLink, ExtraComp)
			// Collect the part graph.
			var parts, conns []Ref
			w.traverse(comp, func(part Ref) {
				parts = append(parts, part)
				for _, f := range [3]int{APartConn0, APartConn1, APartConn2} {
					if c := db.GetRef(part, TAtomicPart, f); c != NilRef {
						conns = append(conns, c)
					}
				}
			})
			for _, c := range conns {
				db.Delete(c, TConnection)
				deleted++
			}
			for _, part := range parts {
				idxID.DeleteInt(int64(db.GetI32(part, TAtomicPart, APartID)), part)
				idxDate.DeleteInt(int64(db.GetI32(part, TAtomicPart, APartBuildDate)), part)
				db.Delete(part, TAtomicPart)
				deleted++
			}
			if doc := db.GetRef(comp, TCompositePart, CompDoc); doc != NilRef {
				var tbuf [40]byte
				db.GetBytes(doc, TDocument, DocTitle, tbuf[:])
				title := string(tbuf[:len(TitleOf(0))])
				db.Index(IdxDocTitle).DeleteString(title, doc)
				db.Delete(doc, TDocument)
				deleted++
			}
			db.Delete(comp, TCompositePart)
			deleted++
			next := db.GetRef(link, TExtraLink, ExtraNext)
			db.Delete(link, TExtraLink)
			deleted++
			link = next
		}
		db.SetRoot(extrasRoot, NilRef)
		return deleted, db.Err()
	})
}
