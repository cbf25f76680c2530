package core

import (
	"testing"

	"quickstore/internal/lock"
)

// TestStaleLockGrantLosesNoUpdate is the lost-update regression: A and B
// both cache the page of a counter, B begins, A increments the counter and
// commits, then B increments it too. B's exclusive grant finds its cached
// copy stale; from then on B must see A's bytes — through the mapping it
// already had, and in the recovery copy its log records' before-images come
// from — or A's increment is lost.
func TestStaleLockGrantLosesNoUpdate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		explicitLock bool // B takes the page lock itself before touching the page
		abort        bool // B aborts: A's value must survive the undo
	}{
		{"lock-then-read-then-write", true, false},
		{"write-fault", false, false},
		{"write-fault-then-abort", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			buildList(t, e.session(64, Config{BulkLoad: true}, true), 3, false)

			open := func() (*Store, Ref) {
				s := e.session(64, Config{}, false)
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
				head, err := s.Root("list")
				if err != nil {
					t.Fatal(err)
				}
				return s, head + 8
			}
			read := func(s *Store, a Ref) uint32 {
				t.Helper()
				v, err := s.Space().ReadU32(a)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			a, aCtr := open()
			base := read(a, aCtr)
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
			b, bCtr := open() // B's transaction stays open; the page is cached and mapped
			if got := read(b, bCtr); got != base {
				t.Fatalf("B's first read = %d, want %d", got, base)
			}

			if err := a.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := a.Space().WriteU32(aCtr, read(a, aCtr)+1); err != nil {
				t.Fatal(err)
			}
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}

			if tc.explicitLock {
				pid := b.FindDesc(bCtr).Pid
				if err := b.Client().Lock(lock.KindPage, uint32(pid), lock.Exclusive); err != nil {
					t.Fatal(err)
				}
				if got := read(b, bCtr); got != base+1 {
					t.Fatalf("B read %d under its exclusive lock, want A's %d", got, base+1)
				}
				if err := b.Space().WriteU32(bCtr, read(b, bCtr)+1); err != nil {
					t.Fatal(err)
				}
			} else {
				// The first store takes the lock inside the write fault; the
				// value it adds to is read after that.
				if err := b.Space().WriteU32(bCtr+4, 7); err != nil {
					t.Fatal(err)
				}
				if got := read(b, bCtr); got != base+1 {
					t.Fatalf("B read %d after its write fault, want A's %d", got, base+1)
				}
				if err := b.Space().WriteU32(bCtr, read(b, bCtr)+1); err != nil {
					t.Fatal(err)
				}
			}
			want := base + 2
			if tc.abort {
				want = base + 1
				if err := b.Abort(); err != nil {
					t.Fatal(err)
				}
			} else if err := b.Commit(); err != nil {
				t.Fatal(err)
			}

			for name, s := range map[string]*Store{"A": a, "B": b, "a fresh session": nil} {
				ctr := aCtr
				if s == nil {
					s, ctr = open()
				} else if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
				if got := read(s, ctr); got != want {
					t.Errorf("%s reads %d at the end, want %d", name, got, want)
				}
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
