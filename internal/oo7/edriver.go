package oo7

import (
	"fmt"

	"quickstore/internal/btree"
	"quickstore/internal/disk"
	"quickstore/internal/epvm"
	"quickstore/internal/esm"
	"quickstore/internal/schema"
	"quickstore/internal/sim"
)

// eDB runs the benchmark over the E baseline: 16-byte OID pointers,
// interpreter-mediated dereferences and updates.
type eDB struct {
	s     *epvm.Store
	clock *sim.Clock
	lays  [numTypes]schema.Layout
	idx   map[string]*btree.Tree
	err   error
}

// NewE wraps an EPVM session as a benchmark driver.
func NewE(s *epvm.Store) DB {
	return &eDB{s: s, clock: s.Clock(), lays: Layouts(esm.OIDSize), idx: map[string]*btree.Tree{}}
}

// Name implements the DB interface for E.
func (db *eDB) Name() string { return "E" }

// Err implements the DB interface for E.
func (db *eDB) Err() error { return db.err }

// ClearErr implements the DB interface for E.
func (db *eDB) ClearErr() { db.err = nil }

// Clock implements the DB interface for E.
func (db *eDB) Clock() *sim.Clock { return db.clock }

func (db *eDB) latch(err error) {
	if err != nil && db.err == nil {
		db.err = err
	}
}

// Begin implements the DB interface for E.
func (db *eDB) Begin() error { return db.s.Begin() }

// Commit implements the DB interface for E.
func (db *eDB) Commit() error {
	if db.err != nil {
		err := db.err
		_ = db.s.Abort()
		return fmt.Errorf("oo7/E: latched error at commit: %w", err)
	}
	return db.s.Commit()
}

// Abort implements the DB interface for E.
func (db *eDB) Abort() error { return db.s.Abort() }

// SetRoot implements the DB interface for E.
func (db *eDB) SetRoot(name string, r Ref) { db.latch(db.s.SetRoot(name, epvm.Ref(r))) }

// Root implements the DB interface for E.
func (db *eDB) Root(name string) Ref {
	r, err := db.s.Root(name)
	db.latch(err)
	return Ref(r)
}

type eCluster struct{ cl *epvm.Cluster }

// Break implements the DB interface for E.
func (c eCluster) Break() { c.cl.Break() }

// NewCluster implements the DB interface for E.
func (db *eDB) NewCluster() Cluster { return eCluster{cl: db.s.NewCluster()} }

// Alloc implements the DB interface for E.
func (db *eDB) Alloc(cl Cluster, t TypeID, extra int) Ref {
	r, err := db.s.Alloc(cl.(eCluster).cl, db.lays[t].Size+extra)
	db.latch(err)
	return Ref(r)
}

// AllocLarge implements the DB interface for E.
func (db *eDB) AllocLarge(cl Cluster, size uint64) Ref {
	r, err := db.s.AllocLarge(cl.(eCluster).cl, size)
	db.latch(err)
	return Ref(r)
}

func (db *eDB) off(t TypeID, field int) int { return db.lays[t].Offsets[field] }

// Delete implements the DB interface for E.
func (db *eDB) Delete(r Ref, t TypeID) {
	_ = t
	db.latch(db.s.Delete(epvm.Ref(r)))
}

// GetI32 implements the DB interface for E.
func (db *eDB) GetI32(r Ref, t TypeID, field int) int32 {
	v, err := db.s.GetI32(epvm.Ref(r), db.off(t, field))
	db.latch(err)
	return v
}

// SetI32 implements the DB interface for E.
func (db *eDB) SetI32(r Ref, t TypeID, field int, v int32) {
	db.latch(db.s.SetI32(epvm.Ref(r), db.off(t, field), v))
}

// GetRef implements the DB interface for E.
func (db *eDB) GetRef(r Ref, t TypeID, field int) Ref {
	v, err := db.s.GetRef(epvm.Ref(r), db.off(t, field))
	db.latch(err)
	return Ref(v)
}

// SetRef implements the DB interface for E.
func (db *eDB) SetRef(r Ref, t TypeID, field int, v Ref) {
	db.latch(db.s.SetRef(epvm.Ref(r), db.off(t, field), epvm.Ref(v)))
}

// GetBytes implements the DB interface for E.
func (db *eDB) GetBytes(r Ref, t TypeID, field int, buf []byte) {
	db.latch(db.s.GetBytes(epvm.Ref(r), db.off(t, field), buf))
}

// SetBytes implements the DB interface for E.
func (db *eDB) SetBytes(r Ref, t TypeID, field int, data []byte) {
	db.latch(db.s.SetBytes(epvm.Ref(r), db.off(t, field), data))
}

// SetTail implements the DB interface for E.
func (db *eDB) SetTail(r Ref, t TypeID, data []byte) {
	db.latch(db.s.SetBytes(epvm.Ref(r), db.lays[t].Size, data))
}

// GetTailByte reads one character of an inline document text; in E this is
// still an in-object access behind a residency check.
func (db *eDB) GetTailByte(r Ref, t TypeID, i int) byte {
	var b [1]byte
	db.latch(db.s.GetBytes(epvm.Ref(r), db.lays[t].Size+i, b[:]))
	return b[0]
}

// WriteLarge implements the DB interface for E.
func (db *eDB) WriteLarge(r Ref, data []byte, off uint64) {
	db.latch(db.s.WriteLarge(epvm.Ref(r), data, off))
}

// ReadLargeByte goes through the interpreter on every call (T8's cost).
func (db *eDB) ReadLargeByte(r Ref, off uint64) byte {
	b, err := db.s.ReadLargeByte(epvm.Ref(r), off)
	db.latch(err)
	return b
}

// LargeSize implements the DB interface for E.
func (db *eDB) LargeSize(r Ref) uint64 {
	n, err := db.s.LargeSize(epvm.Ref(r))
	db.latch(err)
	return n
}

// --- Index integration ------------------------------------------------------

type eIndex struct {
	db   *eDB
	tree *btree.Tree
}

// CreateIndex implements the DB interface for E.
func (db *eDB) CreateIndex(name string) Index {
	tree, err := btree.Create(db.s.Client())
	if err != nil {
		db.latch(err)
		return eIndex{db: db}
	}
	db.latch(db.s.Client().SetRoot("idx:"+name, esm.NilOID, uint64(tree.RootPage())))
	db.idx[name] = tree
	return eIndex{db: db, tree: tree}
}

// Index implements the DB interface for E.
func (db *eDB) Index(name string) Index {
	if t, ok := db.idx[name]; ok {
		return eIndex{db: db, tree: t}
	}
	_, aux, err := db.s.Client().GetRoot("idx:" + name)
	if err != nil {
		db.latch(err)
		return eIndex{db: db}
	}
	t := btree.Open(db.s.Client(), disk.PageID(aux))
	db.idx[name] = t
	return eIndex{db: db, tree: t}
}

func (ix eIndex) ins(k btree.Key, r Ref) {
	if ix.tree == nil {
		return
	}
	oid, err := ix.db.s.OIDOf(epvm.Ref(r))
	if err != nil {
		ix.db.latch(err)
		return
	}
	ix.db.latch(ix.tree.Insert(k, oid))
}

func (ix eIndex) look(k btree.Key) []Ref {
	if ix.tree == nil {
		return nil
	}
	oids, err := ix.tree.Lookup(k)
	if err != nil {
		ix.db.latch(err)
		return nil
	}
	refs := make([]Ref, 0, len(oids))
	for _, oid := range oids {
		refs = append(refs, Ref(ix.db.s.RefFor(oid)))
	}
	return refs
}

// InsertInt implements the Index interface.
func (ix eIndex) InsertInt(k int64, r Ref) { ix.ins(btree.IntKey(k), r) }

// LookupInt implements the Index interface.
func (ix eIndex) LookupInt(k int64) []Ref { return ix.look(btree.IntKey(k)) }

// InsertString implements the Index interface.
func (ix eIndex) InsertString(k string, r Ref) { ix.ins(btree.StringKey(k), r) }

// LookupString implements the Index interface.
func (ix eIndex) LookupString(k string) []Ref { return ix.look(btree.StringKey(k)) }

// ScanInt implements the Index interface.
func (ix eIndex) ScanInt(lo, hi int64, fn func(int64, Ref) bool) {
	if ix.tree == nil {
		return
	}
	err := ix.tree.ScanRange(btree.IntKey(lo), btree.IntKey(hi), func(k btree.Key, oid esm.OID) bool {
		return fn(btreeKeyInt(k), Ref(ix.db.s.RefFor(oid)))
	})
	ix.db.latch(err)
}

// DeleteInt implements the Index interface.
func (ix eIndex) DeleteInt(k int64, r Ref) { ix.del(btree.IntKey(k), r) }

// DeleteString implements the Index interface.
func (ix eIndex) DeleteString(k string, r Ref) { ix.del(btree.StringKey(k), r) }

func (ix eIndex) del(k btree.Key, r Ref) {
	if ix.tree == nil {
		return
	}
	oid, err := ix.db.s.OIDOf(epvm.Ref(r))
	if err != nil {
		ix.db.latch(err)
		return
	}
	_, err = ix.tree.Delete(k, oid)
	ix.db.latch(err)
}
