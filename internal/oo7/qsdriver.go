package oo7

import (
	"fmt"

	"quickstore/internal/btree"
	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/schema"
	"quickstore/internal/sim"
	"quickstore/internal/vmem"
)

// qsDB runs the benchmark over QuickStore. References are raw virtual
// addresses; every field access is a protected virtual-memory access. With
// padded layouts this is the paper's QS-B system.
type qsDB struct {
	name  string
	s     *core.Store
	sp    *vmem.Space
	clock *sim.Clock
	lays  [numTypes]schema.Layout
	idx   map[string]*btree.Tree
	err   error
}

// NewQS wraps a QuickStore session as a benchmark driver. padded selects
// the QS-B object layouts.
func NewQS(s *core.Store, padded bool) DB {
	db := &qsDB{s: s, sp: s.Space(), clock: s.Clock(), idx: map[string]*btree.Tree{}}
	if padded {
		db.name = "QS-B"
		db.lays = PaddedLayouts()
	} else {
		db.name = "QS"
		db.lays = Layouts(8)
	}
	return db
}

// Name implements the DB interface for QuickStore.
func (db *qsDB) Name() string { return db.name }

// Err implements the DB interface for QuickStore.
func (db *qsDB) Err() error { return db.err }

// ClearErr implements the DB interface for QuickStore.
func (db *qsDB) ClearErr() { db.err = nil }

// Clock implements the DB interface for QuickStore.
func (db *qsDB) Clock() *sim.Clock { return db.clock }

func (db *qsDB) latch(err error) {
	if err != nil && db.err == nil {
		db.err = err
	}
}

// Begin implements the DB interface for QuickStore.
func (db *qsDB) Begin() error { return db.s.Begin() }

// Commit implements the DB interface for QuickStore.
func (db *qsDB) Commit() error {
	if db.err != nil {
		err := db.err
		//qsvet:ignore mustcheck best-effort rollback; the latched error is what the caller must see
		_ = db.s.Abort()
		return fmt.Errorf("oo7/%s: latched error at commit: %w", db.name, err)
	}
	return db.s.Commit()
}

// Abort implements the DB interface for QuickStore.
func (db *qsDB) Abort() error { return db.s.Abort() }

// SetRoot implements the DB interface for QuickStore.
func (db *qsDB) SetRoot(name string, r Ref) { db.latch(db.s.SetRoot(name, core.Ref(r))) }

// Root implements the DB interface for QuickStore.
func (db *qsDB) Root(name string) Ref {
	ref, err := db.s.Root(name)
	db.latch(err)
	return Ref(ref)
}

type qsCluster struct{ cl *core.Cluster }

// Break implements the DB interface for QuickStore.
func (c qsCluster) Break() { c.cl.Break() }

// NewCluster implements the DB interface for QuickStore.
func (db *qsDB) NewCluster() Cluster { return qsCluster{cl: db.s.NewCluster()} }

// Alloc implements the DB interface for QuickStore.
func (db *qsDB) Alloc(cl Cluster, t TypeID, extra int) Ref {
	lay := &db.lays[t]
	ref, err := db.s.Alloc(cl.(qsCluster).cl, lay.Size+extra, lay.RefOffsets)
	db.latch(err)
	return Ref(ref)
}

// AllocLarge implements the DB interface for QuickStore.
func (db *qsDB) AllocLarge(cl Cluster, size uint64) Ref {
	ref, err := db.s.AllocLarge(cl.(qsCluster).cl, size)
	db.latch(err)
	return Ref(ref)
}

func (db *qsDB) addr(r Ref, t TypeID, field int) vmem.Addr {
	return vmem.Addr(r) + vmem.Addr(db.lays[t].Offsets[field])
}

// Delete implements the DB interface for QuickStore.
func (db *qsDB) Delete(r Ref, t TypeID) {
	_ = t // layouts are not needed: the slot directory knows the extent
	db.latch(db.s.Delete(core.Ref(r)))
}

// GetI32 implements the DB interface for QuickStore.
func (db *qsDB) GetI32(r Ref, t TypeID, field int) int32 {
	v, err := db.sp.ReadU32(db.addr(r, t, field))
	db.latch(err)
	db.clock.Charge(sim.CtrFieldRead, 1)
	return int32(v)
}

// SetI32 implements the DB interface for QuickStore.
func (db *qsDB) SetI32(r Ref, t TypeID, field int, v int32) {
	db.latch(db.sp.WriteU32(db.addr(r, t, field), uint32(v)))
	db.clock.Charge(sim.CtrFieldWrite, 1)
}

// GetRef is the QuickStore dereference: one ordinary 8-byte load through
// virtual memory — no residency check, no interpreter.
func (db *qsDB) GetRef(r Ref, t TypeID, field int) Ref {
	v, err := db.sp.ReadU64(db.addr(r, t, field))
	db.latch(err)
	db.clock.Charge(sim.CtrDeref, 1)
	return Ref(v)
}

// SetRef implements the DB interface for QuickStore.
func (db *qsDB) SetRef(r Ref, t TypeID, field int, v Ref) {
	db.latch(db.sp.WriteU64(db.addr(r, t, field), uint64(v)))
	db.clock.Charge(sim.CtrFieldWrite, 1)
}

// GetBytes implements the DB interface for QuickStore.
func (db *qsDB) GetBytes(r Ref, t TypeID, field int, buf []byte) {
	db.latch(db.sp.ReadInto(db.addr(r, t, field), buf))
	db.clock.Charge(sim.CtrFieldRead, 1)
}

// SetBytes implements the DB interface for QuickStore.
func (db *qsDB) SetBytes(r Ref, t TypeID, field int, data []byte) {
	db.latch(db.sp.WriteBytes(db.addr(r, t, field), data))
	db.clock.Charge(sim.CtrFieldWrite, 1)
}

// SetTail implements the DB interface for QuickStore.
func (db *qsDB) SetTail(r Ref, t TypeID, data []byte) {
	db.latch(db.sp.WriteBytes(vmem.Addr(r)+vmem.Addr(db.lays[t].Size), data))
	db.clock.Charge(sim.CtrFieldWrite, 1)
}

// GetTailByte implements the DB interface for QuickStore.
func (db *qsDB) GetTailByte(r Ref, t TypeID, i int) byte {
	b, err := db.sp.ReadU8(vmem.Addr(r) + vmem.Addr(db.lays[t].Size+i))
	db.latch(err)
	db.clock.Charge(sim.CtrByteScan, 1)
	return b
}

// WriteLarge implements the DB interface for QuickStore.
func (db *qsDB) WriteLarge(r Ref, data []byte, off uint64) {
	db.latch(db.s.LargeWrite(core.Ref(r), data, off))
}

// ReadLargeByte is a plain pointer dereference into the mapped manual.
func (db *qsDB) ReadLargeByte(r Ref, off uint64) byte {
	b, err := db.sp.ReadU8(vmem.Addr(r) + vmem.Addr(off))
	db.latch(err)
	db.clock.Charge(sim.CtrByteScan, 1)
	return b
}

// LargeSize implements the DB interface for QuickStore.
func (db *qsDB) LargeSize(r Ref) uint64 {
	n, err := db.s.LargeSize(core.Ref(r))
	db.latch(err)
	return n
}

// --- Index integration ------------------------------------------------------

// Index values are stored as <data page, byte offset> pairs packed into the
// OID value slot; RefForPage turns them back into virtual addresses,
// entering pages into the mapping on demand.
func (db *qsDB) encodeRef(r Ref) (esm.OID, error) {
	pid, off, err := db.s.PageOf(core.Ref(r))
	if err != nil {
		return esm.NilOID, err
	}
	return esm.OID{Page: pid, Slot: uint16(off), File: 0xFFFF}, nil
}

func (db *qsDB) decodeRef(oid esm.OID) (Ref, error) {
	ref, err := db.s.RefForPage(oid.Page, int(oid.Slot))
	return Ref(ref), err
}

type qsIndex struct {
	db   *qsDB
	tree *btree.Tree
}

// CreateIndex implements the DB interface for QuickStore.
func (db *qsDB) CreateIndex(name string) Index {
	tree, err := btree.Create(db.s.Client())
	if err != nil {
		db.latch(err)
		return qsIndex{db: db}
	}
	db.latch(db.s.Client().SetRoot("idx:"+name, esm.NilOID, uint64(tree.RootPage())))
	db.idx[name] = tree
	return qsIndex{db: db, tree: tree}
}

// Index implements the DB interface for QuickStore.
func (db *qsDB) Index(name string) Index {
	if t, ok := db.idx[name]; ok {
		return qsIndex{db: db, tree: t}
	}
	_, aux, err := db.s.Client().GetRoot("idx:" + name)
	if err != nil {
		db.latch(err)
		return qsIndex{db: db}
	}
	t := btree.Open(db.s.Client(), disk.PageID(aux))
	db.idx[name] = t
	return qsIndex{db: db, tree: t}
}

func (ix qsIndex) ins(k btree.Key, r Ref) {
	if ix.tree == nil {
		return
	}
	oid, err := ix.db.encodeRef(r)
	if err != nil {
		ix.db.latch(err)
		return
	}
	ix.db.latch(ix.tree.Insert(k, oid))
}

func (ix qsIndex) look(k btree.Key) []Ref {
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
		r, err := ix.db.decodeRef(oid)
		if err != nil {
			ix.db.latch(err)
			return refs
		}
		refs = append(refs, r)
	}
	return refs
}

// InsertInt implements the Index interface.
func (ix qsIndex) InsertInt(k int64, r Ref) { ix.ins(btree.IntKey(k), r) }

// LookupInt implements the Index interface.
func (ix qsIndex) LookupInt(k int64) []Ref { return ix.look(btree.IntKey(k)) }

// InsertString implements the Index interface.
func (ix qsIndex) InsertString(k string, r Ref) { ix.ins(btree.StringKey(k), r) }

// LookupString implements the Index interface.
func (ix qsIndex) LookupString(k string) []Ref { return ix.look(btree.StringKey(k)) }

// ScanInt implements the Index interface.
func (ix qsIndex) ScanInt(lo, hi int64, fn func(int64, Ref) bool) {
	if ix.tree == nil {
		return
	}
	err := ix.tree.ScanRange(btree.IntKey(lo), btree.IntKey(hi), func(k btree.Key, oid esm.OID) bool {
		r, err := ix.db.decodeRef(oid)
		if err != nil {
			ix.db.latch(err)
			return false
		}
		return fn(btreeKeyInt(k), r)
	})
	ix.db.latch(err)
}

// DeleteInt implements the Index interface.
func (ix qsIndex) DeleteInt(k int64, r Ref) { ix.del(btree.IntKey(k), r) }

// DeleteString implements the Index interface.
func (ix qsIndex) DeleteString(k string, r Ref) { ix.del(btree.StringKey(k), r) }

func (ix qsIndex) del(k btree.Key, r Ref) {
	if ix.tree == nil {
		return
	}
	oid, err := ix.db.encodeRef(r)
	if err != nil {
		ix.db.latch(err)
		return
	}
	_, err = ix.tree.Delete(k, oid)
	ix.db.latch(err)
}

// btreeKeyInt decodes an order-preserving int64 key.
func btreeKeyInt(k btree.Key) int64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(k[i])
	}
	return int64(x ^ (1 << 63))
}
