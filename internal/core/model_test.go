package core

import (
	"math/rand"
	"testing"

	"quickstore/internal/esm"
	"quickstore/internal/sim"
	"quickstore/internal/wal"

	"quickstore/internal/disk"
)

// TestModelRandomWorkload drives a QuickStore session through a long random
// sequence of operations — allocation, field writes, commits, aborts, cache
// drops, and session restarts — and validates every committed value against
// a shadow model. This exercises diffing, the recovery buffer, eviction,
// remapping, and cross-session mapping reconstruction together.
func TestModelRandomWorkload(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run("", func(t *testing.T) { runModel(t, seed) })
	}
}

type mObj struct {
	ref  Ref
	pid  disk.PageID // disk page and offset, as an index would store them
	off  int
	vals [4]uint32 // committed field values at offsets 8..24 (ref slot at 0)
	next int       // committed index of the linked object (-1 nil)
}

func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		esm.ServerConfig{BufferPages: 128, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	newSession := func(create bool) *Store {
		c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 24, Clock: clock})
		var s *Store
		var err error
		cfg := Config{RecoveryBufferBytes: 6 * disk.PageSize}
		if create {
			s, err = New(c, cfg)
		} else {
			s, err = Open(c, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Object layout: [0:8) next Ref, [8:40) eight u32 slots (we use 4).
	const objSize = 48
	var objs []mObj

	s := newSession(true)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	cl := s.NewCluster()

	// Uncommitted state of the current transaction.
	type pend struct {
		idx, field int
		val        uint32
	}
	var pendVals []pend
	var pendLinks [][2]int // [objIdx, targetIdx]
	var pendNew []int      // indices created this tx
	inTx := true

	commit := func() {
		if err := s.Commit(); err != nil {
			t.Fatalf("seed %d: commit: %v", seed, err)
		}
		for _, p := range pendVals {
			objs[p.idx].vals[p.field] = p.val
		}
		for _, l := range pendLinks {
			objs[l[0]].next = l[1]
		}
		pendVals, pendLinks, pendNew = nil, nil, nil
		inTx = false
	}
	abort := func() {
		if err := s.Abort(); err != nil {
			t.Fatalf("seed %d: abort: %v", seed, err)
		}
		// Created objects vanish; model removes them (they are only ever
		// appended, so truncate).
		if len(pendNew) > 0 {
			objs = objs[:pendNew[0]]
		}
		pendVals, pendLinks, pendNew = nil, nil, nil
		inTx = false
	}
	ensureTx := func() {
		if !inTx {
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			inTx = true
		}
	}
	verifyAll := func(where string) {
		ensureTx()
		for i := range objs {
			for f := 0; f < 4; f++ {
				got, err := s.Space().ReadU32(objs[i].ref + Ref(8+4*f))
				if err != nil {
					t.Fatalf("seed %d: %s: obj %d field %d: %v", seed, where, i, f, err)
				}
				if got != objs[i].vals[f] {
					t.Fatalf("seed %d: %s: obj %d field %d = %d, want %d",
						seed, where, i, f, got, objs[i].vals[f])
				}
			}
			nxt, err := s.Space().ReadU64(objs[i].ref)
			if err != nil {
				t.Fatal(err)
			}
			want := NilRef
			if objs[i].next >= 0 {
				want = objs[objs[i].next].ref
			}
			if Ref(nxt) != want {
				t.Fatalf("seed %d: %s: obj %d link = %#x, want %#x", seed, where, i, nxt, want)
			}
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(100); {
		case op < 30: // create an object
			ensureTx()
			if rng.Intn(4) == 0 {
				cl.Break()
			}
			ref, err := s.Alloc(cl, objSize, []int{0})
			if err != nil {
				t.Fatalf("seed %d step %d: alloc: %v", seed, step, err)
			}
			pid, off, err := s.PageOf(ref)
			if err != nil {
				t.Fatal(err)
			}
			pendNew = append(pendNew, len(objs))
			objs = append(objs, mObj{ref: ref, pid: pid, off: off, next: -1})
			if len(objs) == 1 {
				if err := s.SetRoot("model", ref); err != nil {
					t.Fatal(err)
				}
			}
		case op < 65: // write a field of a random object
			if len(objs) == 0 {
				continue
			}
			ensureTx()
			i := rng.Intn(len(objs))
			f := rng.Intn(4)
			v := rng.Uint32()
			if err := s.Space().WriteU32(objs[i].ref+Ref(8+4*f), v); err != nil {
				t.Fatalf("seed %d step %d: write: %v", seed, step, err)
			}
			pendVals = append(pendVals, pend{i, f, v})
		case op < 75: // relink a random object
			if len(objs) < 2 {
				continue
			}
			ensureTx()
			i := rng.Intn(len(objs))
			j := rng.Intn(len(objs))
			if err := s.Space().WriteU64(objs[i].ref, uint64(objs[j].ref)); err != nil {
				t.Fatal(err)
			}
			pendLinks = append(pendLinks, [2]int{i, j})
		case op < 88: // commit
			if inTx {
				commit()
			}
		case op < 93: // abort
			if inTx {
				abort()
			}
		case op < 97: // cold caches (between transactions)
			if inTx {
				commit()
			}
			if err := srv.DropCaches(); err != nil {
				t.Fatal(err)
			}
			verifyAll("after cold")
		default: // session restart: fresh client + store over the same server
			if inTx {
				commit()
			}
			if err := srv.DropCaches(); err != nil {
				t.Fatal(err)
			}
			s = newSession(false)
			cl = s.NewCluster()
			// A fresh session's mapping is empty. A real application gets
			// references back from roots, indexes, or pointer navigation;
			// the model replays the index path: RefForPage resolves each
			// object's recorded <page, offset> to its (stable) address.
			if len(objs) > 0 {
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
				inTx = true
				root, err := s.Root("model")
				if err != nil {
					t.Fatal(err)
				}
				if root != objs[0].ref {
					t.Fatalf("seed %d: root moved: %#x vs %#x", seed, root, objs[0].ref)
				}
				for i := range objs {
					ref, err := s.RefForPage(objs[i].pid, objs[i].off)
					if err != nil {
						t.Fatal(err)
					}
					if ref != objs[i].ref {
						t.Fatalf("seed %d: obj %d moved: %#x vs %#x", seed, i, ref, objs[i].ref)
					}
				}
			}
			verifyAll("after restart")
		}
	}
	if inTx {
		commit()
	}
	verifyAll("final")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckDescs(); err != nil {
		t.Fatal(err)
	}
}
