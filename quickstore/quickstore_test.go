package quickstore_test

import (
	"errors"
	"path/filepath"
	"testing"

	"quickstore/quickstore"
)

func TestUpdateViewRoundTrip(t *testing.T) {
	st, err := quickstore.CreateMem(quickstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var node quickstore.Ref
	err = st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		var err error
		node, err = tx.Alloc(cl, 16, []int{0})
		if err != nil {
			return err
		}
		if err := tx.WriteU32(node+8, 42); err != nil {
			return err
		}
		return tx.SetRoot("head", node)
	})
	if err != nil {
		t.Fatal(err)
	}

	err = st.View(func(tx *quickstore.Tx) error {
		head, err := tx.Root("head")
		if err != nil {
			return err
		}
		v, err := tx.ReadU32(head + 8)
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("read %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().MappedPages == 0 {
		t.Error("no pages in the mapping")
	}
}

func TestUpdateErrorAborts(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	var node quickstore.Ref
	if err := st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		node, _ = tx.Alloc(cl, 16, nil)
		tx.WriteU32(node, 1)
		return tx.SetRoot("n", node)
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := st.Update(func(tx *quickstore.Tx) error {
		tx.WriteU32(node, 999)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st.View(func(tx *quickstore.Tx) error {
		v, err := tx.ReadU32(node)
		if err != nil {
			return err
		}
		if v != 1 {
			t.Errorf("aborted write visible: %d", v)
		}
		return nil
	})
}

// TestAbortedSetRootIsUndone: a root is transactional data. SetRoot in a
// transaction that aborts leaves the root as the last commit left it — a
// renamed root keeps its old object, a new name does not exist — both in
// the session that aborted and after the store is closed and reopened.
func TestAbortedSetRootIsUndone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.qs")
	st, err := quickstore.Create(path, quickstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b quickstore.Ref
	if err := st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		if a, err = tx.Alloc(cl, 16, nil); err != nil {
			return err
		}
		if b, err = tx.Alloc(cl, 16, nil); err != nil {
			return err
		}
		return tx.SetRoot("r", a)
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := st.Update(func(tx *quickstore.Tx) error {
		if err := tx.SetRoot("r", b); err != nil {
			return err
		}
		if err := tx.SetRoot("fresh", b); err != nil {
			return err
		}
		if got, err := tx.Root("r"); err != nil || got != b {
			t.Errorf("inside its transaction root r = %#x, %v; want %#x", got, err, b)
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update = %v, want %v", err, boom)
	}
	check := func(st *quickstore.Store, when string) {
		t.Helper()
		if err := st.View(func(tx *quickstore.Tx) error {
			if got, err := tx.Root("r"); err != nil || got != a {
				t.Errorf("%s: root r = %#x, %v; want %#x", when, got, err, a)
			}
			if got, err := tx.Root("fresh"); err == nil {
				t.Errorf("%s: root fresh = %#x, want no such root", when, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check(st, "after the abort")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := quickstore.Open(path, quickstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after reopening")
}

func TestUpdatePanicAborts(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	func() {
		defer func() { recover() }()
		st.Update(func(tx *quickstore.Tx) error {
			panic("kaboom")
		})
	}()
	// Store still usable.
	if err := st.Update(func(tx *quickstore.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestNestedTransactionRejected(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	err := st.Update(func(tx *quickstore.Tx) error {
		return st.Update(func(*quickstore.Tx) error { return nil })
	})
	if err == nil {
		t.Fatal("nested Update succeeded")
	}
}

func TestFileBackedPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.qs")
	st, err := quickstore.Create(path, quickstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		a, err := tx.Alloc(cl, 24, []int{0})
		if err != nil {
			return err
		}
		b, err := tx.Alloc(cl, 24, nil)
		if err != nil {
			return err
		}
		if err := tx.WriteRef(a, b); err != nil {
			return err
		}
		if err := tx.WriteBytes(b+8, []byte("persist me")); err != nil {
			return err
		}
		return tx.SetRoot("a", a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := quickstore.Open(path, quickstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	err = st2.View(func(tx *quickstore.Tx) error {
		a, err := tx.Root("a")
		if err != nil {
			return err
		}
		b, err := tx.ReadRef(a)
		if err != nil {
			return err
		}
		buf := make([]byte, 10)
		if err := tx.ReadBytes(b+8, buf); err != nil {
			return err
		}
		if string(buf) != "persist me" {
			t.Errorf("read %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Faults == 0 {
		t.Error("reopened store faulted no pages")
	}
}

func TestLargeObjects(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	const size = 3*quickstore.PageSize + 99
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var man quickstore.Ref
	err := st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		var err error
		man, err = tx.AllocLarge(cl, size)
		if err != nil {
			return err
		}
		anchor, err := tx.Alloc(cl, 8, []int{0})
		if err != nil {
			return err
		}
		if err := tx.WriteRef(anchor, man); err != nil {
			return err
		}
		if err := tx.SetRoot("man", anchor); err != nil {
			return err
		}
		return tx.WriteLarge(man, payload, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DropCaches(); err != nil {
		t.Fatal(err)
	}
	err = st.View(func(tx *quickstore.Tx) error {
		anchor, err := tx.Root("man")
		if err != nil {
			return err
		}
		m, err := tx.ReadRef(anchor)
		if err != nil {
			return err
		}
		if n, err := tx.LargeSize(m); err != nil || n != size {
			t.Errorf("LargeSize = %d, %v", n, err)
		}
		for _, off := range []int{0, quickstore.PageSize, size - 1} {
			b, err := tx.ReadU8(m + quickstore.Ref(off))
			if err != nil {
				return err
			}
			if b != byte(off) {
				t.Errorf("byte %d = %d", off, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsProgress(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		r, _ := tx.Alloc(cl, 64, nil)
		return tx.SetRoot("r", r)
	})
	st.DropCaches()
	before := st.Stats()
	st.View(func(tx *quickstore.Tx) error {
		r, _ := tx.Root("r")
		_, err := tx.ReadU32(r)
		return err
	})
	after := st.Stats()
	if after.Faults <= before.Faults {
		t.Error("cold read faulted no pages")
	}
	if after.ClientReads <= before.ClientReads {
		t.Error("cold read issued no client reads")
	}
	if after.SimulatedMs <= before.SimulatedMs {
		t.Error("clock did not advance")
	}
}

func TestSnapshotSession(t *testing.T) {
	st, err := quickstore.CreateMem(quickstore.Options{MVCC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var node quickstore.Ref
	if err := st.Update(func(tx *quickstore.Tx) error {
		cl := tx.NewCluster()
		node, _ = tx.Alloc(cl, 16, nil)
		if err := tx.WriteU32(node, 7); err != nil {
			return err
		}
		return tx.SetRoot("n", node)
	}); err != nil {
		t.Fatal(err)
	}
	err = st.Snapshot(func(tx *quickstore.Tx) error {
		r, err := tx.Root("n")
		if err != nil {
			return err
		}
		v, err := tx.ReadU32(r)
		if err != nil {
			return err
		}
		if v != 7 {
			t.Errorf("snapshot read %d, want 7", v)
		}
		// Writes inside the snapshot session must be refused.
		if err := tx.WriteU32(r, 99); !errors.Is(err, quickstore.ErrSnapshotReadOnly) {
			t.Errorf("write inside snapshot: err = %v, want ErrSnapshotReadOnly", err)
		}
		if err := tx.SetRoot("n", quickstore.NilRef); !errors.Is(err, quickstore.ErrSnapshotReadOnly) {
			t.Errorf("SetRoot inside snapshot: err = %v, want ErrSnapshotReadOnly", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The refused write left nothing behind, and the store writes normally.
	if err := st.Update(func(tx *quickstore.Tx) error {
		v, err := tx.ReadU32(node)
		if err != nil {
			return err
		}
		if v != 7 {
			t.Errorf("after snapshot: %d, want 7", v)
		}
		return tx.WriteU32(node, 8)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRequiresMVCC(t *testing.T) {
	st, _ := quickstore.CreateMem(quickstore.Options{})
	defer st.Close()
	if err := st.Snapshot(func(*quickstore.Tx) error { return nil }); err == nil {
		t.Fatal("Snapshot succeeded without Options.MVCC")
	}
	if err := st.Update(func(tx *quickstore.Tx) error {
		if err := st.Snapshot(func(*quickstore.Tx) error { return nil }); err == nil {
			t.Error("Snapshot allowed inside a transaction")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
