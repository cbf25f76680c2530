// Package oo7 implements the OO7 benchmark (Carey, DeWitt, Naughton,
// SIGMOD 1993) exactly as the paper uses it: the database generator for the
// small and medium configurations, the traversals T1, T2A/B/C, T3A/B/C, T6,
// T7, T8, T9, and the queries Q1–Q5.
//
// Everything is written once against a store-neutral driver interface, so
// the identical benchmark code runs over QuickStore, QuickStore-with-big-
// objects (QS-B), and the E baseline — the paper's apples-to-apples
// requirement.
package oo7

import (
	"quickstore/internal/sim"
)

// Ref is a driver-opaque persistent reference. 0 is nil.
type Ref uint64

// NilRef is the null reference.
const NilRef Ref = 0

// TypeID indexes the OO7 schema types.
type TypeID int

// Cluster is a driver placement cursor.
type Cluster interface {
	// Break forces the next allocation onto a fresh page.
	Break()
}

// Index is a persistent B-tree index handle. Keys are int64 or string,
// values are references. Duplicate keys are allowed.
type Index interface {
	InsertInt(k int64, r Ref)
	LookupInt(k int64) []Ref
	ScanInt(lo, hi int64, fn func(k int64, r Ref) bool)
	DeleteInt(k int64, r Ref)
	InsertString(k string, r Ref)
	LookupString(k string) []Ref
	DeleteString(k string, r Ref)
}

// DB is the navigational store interface the benchmark runs against. All
// accessors latch the first error (like bufio.Scanner); operations check
// Err once at their end rather than after every field access, keeping the
// traversal code shaped like the original C++.
type DB interface {
	// Name identifies the system ("QS", "QS-B", "E") in reports.
	Name() string

	Begin() error
	Commit() error
	Abort() error

	SetRoot(name string, r Ref)
	Root(name string) Ref

	NewCluster() Cluster
	// Alloc creates an object of type t with extra trailing bytes (the
	// document text tail). Pointer fields start nil.
	Alloc(cl Cluster, t TypeID, extra int) Ref
	// AllocLarge creates a multi-page bulk object (the Manual, and
	// documents too big for one page).
	AllocLarge(cl Cluster, size uint64) Ref

	// Delete removes the object at r (type t names its layout). Space is
	// not reclaimed; dangling references behave as in Section 4.5.2.
	Delete(r Ref, t TypeID)

	GetI32(r Ref, t TypeID, field int) int32
	SetI32(r Ref, t TypeID, field int, v int32)
	GetRef(r Ref, t TypeID, field int) Ref
	SetRef(r Ref, t TypeID, field int, v Ref)
	GetBytes(r Ref, t TypeID, field int, buf []byte)
	SetBytes(r Ref, t TypeID, field int, data []byte)
	// Tail accesses the variable bytes following the fixed layout.
	SetTail(r Ref, t TypeID, data []byte)
	GetTailByte(r Ref, t TypeID, i int) byte

	// WriteLarge bulk-loads a large object; ReadLargeByte reads one
	// character (per-character cost is the point of T8/T9).
	WriteLarge(r Ref, data []byte, off uint64)
	ReadLargeByte(r Ref, off uint64) byte
	LargeSize(r Ref) uint64

	CreateIndex(name string) Index
	Index(name string) Index

	// Err returns the first error latched by any accessor since the last
	// ClearErr; operations propagate it.
	Err() error
	ClearErr()

	Clock() *sim.Clock
}

// chargeIter accounts a transient iterator allocation (the paper's malloc
// bucket in Table 7); both systems pay it identically.
func chargeIter(db DB) { db.Clock().Charge(sim.CtrIterAlloc, 1) }
