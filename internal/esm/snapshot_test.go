package esm

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

// newSnapServer builds an MVCC-enabled server plus a client factory.
func newSnapServer(t *testing.T, maxBytes int) (*Server, func() *Client) {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		ServerConfig{BufferPages: 64, MVCC: true, MVCCMaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() *Client {
		return NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	}
}

// commitBytes commits value at off on pid in its own transaction.
func commitBytes(t *testing.T, c *Client, pid disk.PageID, off int, value string) {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	i, err := c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	data := c.PageData(i)
	old := append([]byte(nil), data[off:off+len(value)]...)
	copy(data[off:], value)
	c.LogUpdate(pid, off, old, []byte(value))
	if err := c.MarkDirty(pid); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A snapshot session sees the state as of its begin LSN no matter what
// commits after it, and acquires no locks doing so.
func TestSnapshotReadsAreStableAndLockFree(t *testing.T) {
	srv, mk := newSnapServer(t, -1)
	w, r := mk(), mk()
	const off = 256
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	pidA, err := w.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	pidB := pidA + 1
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	commitBytes(t, w, pidA, off, "A-v1")
	commitBytes(t, w, pidB, off, "B-v1")

	grants0, waits0 := srv.locks.Stats()
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	i, err := r.FetchPage(pidA)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "A-v1" {
		t.Fatalf("snap read A = %q", got)
	}

	// Overwrite both pages after the snapshot began.
	commitBytes(t, w, pidA, off, "A-v2")
	commitBytes(t, w, pidB, off, "B-v2")

	// B was never fetched in this session: it must come from the version
	// store, not the (now newer) live page.
	i, err = r.FetchPage(pidB)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "B-v1" {
		t.Fatalf("snapshot at %d saw a later commit: B = %q, want B-v1", snap, got)
	}
	grants1, waits1 := srv.locks.Stats()
	if grants1 != grants0 || waits1 != waits0 {
		t.Fatalf("snapshot path touched the lock manager: grants %d->%d, waits %d->%d",
			grants0, grants1, waits0, waits1)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot moves forward.
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() <= snap {
		t.Fatalf("fresh snapshot %d did not advance past %d", r.Snapshot(), snap)
	}
	i, err = r.FetchPage(pidB)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "B-v2" {
		t.Fatalf("fresh snapshot missed commit: B = %q", got)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	st := srv.mv.Stats()
	if st.Pins != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// The same two properties with readers and writers running at once (the
// -race variant): 4 snapshot readers race 2 writers that commit one value
// across all pages per transaction, locking them in page order. Every
// snapshot must see one writer transaction whole — the same value on every
// page — and the same bytes again when its pages are refetched from the
// server after more commits; and the lock manager must grant exactly the
// writers' own locks, none to the readers.
func TestSnapshotReadsStableUnderConcurrentWriters(t *testing.T) {
	const (
		readers, sessions = 4, 15
		writers, txns     = 2, 20
		npages, off       = 4, 512
	)
	srv, mk := newSnapServer(t, -1)
	setup := mk()
	if err := setup.Begin(); err != nil {
		t.Fatal(err)
	}
	first, err := setup.AllocPages(npages)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	pids := make([]disk.PageID, npages)
	for i := range pids {
		pids[i] = first + disk.PageID(i)
		commitBytes(t, setup, pids[i], off, "\x00\x00\x00\x00\x00\x00\x00\x00")
	}

	grants0, _ := srv.locks.Stats()
	var writerLocks atomic.Int64
	writer := func(w int) error {
		c := mk()
		for n := 1; n <= txns; n++ {
			if err := c.Begin(); err != nil {
				return err
			}
			var val [8]byte
			binary.LittleEndian.PutUint64(val[:], uint64(w)<<32|uint64(n))
			for _, pid := range pids {
				if err := c.Lock(lock.KindPage, uint32(pid), lock.Exclusive); err != nil {
					return err
				}
				writerLocks.Add(1)
				i, err := c.FetchPage(pid)
				if err != nil {
					return err
				}
				data := c.PageData(i)
				old := append([]byte(nil), data[off:off+8]...)
				copy(data[off:], val[:])
				c.LogUpdate(pid, off, old, val[:])
				if err := c.MarkDirty(pid); err != nil {
					return err
				}
			}
			if err := c.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	// readAll reads every page's value in the open snapshot session,
	// refetching from the server when evict is set.
	readAll := func(c *Client, evict bool) ([]uint64, error) {
		vals := make([]uint64, npages)
		for k, pid := range pids {
			if i, ok := c.Pool().Lookup(pid); ok && evict {
				if err := c.Pool().Evict(i); err != nil {
					return nil, err
				}
			}
			i, err := c.FetchPage(pid)
			if err != nil {
				return nil, err
			}
			vals[k] = binary.LittleEndian.Uint64(c.PageData(i)[off:])
		}
		return vals, nil
	}
	reader := func() error {
		c := mk()
		for n := 0; n < sessions; n++ {
			if err := c.BeginSnapshot(); err != nil {
				return err
			}
			vals, err := readAll(c, false)
			if err != nil {
				return err
			}
			for _, v := range vals[1:] {
				if v != vals[0] {
					return fmt.Errorf("snapshot %d saw a torn write: %x", c.Snapshot(), vals)
				}
			}
			runtime.Gosched() // let writers commit past the snapshot
			again, err := readAll(c, true)
			if err != nil {
				return err
			}
			if !slices.Equal(again, vals) {
				return fmt.Errorf("snapshot %d moved: %x then %x", c.Snapshot(), vals, again)
			}
			if err := c.EndSnapshot(); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make(chan error, readers+writers)
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); errs <- writer(w) }(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() { defer wg.Done(); errs <- reader() }()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	grants1, _ := srv.locks.Stats()
	if got, want := grants1-grants0, writerLocks.Load(); got != want {
		t.Fatalf("lock manager granted %d locks, the writers took %d: snapshot readers took %d",
			got, want, got-want)
	}
	if want := int64(writers * txns * npages); writerLocks.Load() != want {
		t.Fatalf("writers took %d locks, want %d", writerLocks.Load(), want)
	}
	if st := srv.mv.Stats(); st.Pins != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// Session-state guards: no writes inside a snapshot session, no nesting,
// and servers without MVCC refuse the ops outright.
func TestSnapshotSessionGuards(t *testing.T) {
	_, mk := newSnapServer(t, -1)
	c := mk()
	if err := c.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginSnapshot(); err == nil {
		t.Fatal("nested snapshot allowed")
	}
	if err := c.Begin(); err == nil {
		t.Fatal("write transaction allowed inside a snapshot session")
	}
	if err := c.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginSnapshot(); err == nil {
		t.Fatal("snapshot allowed inside a write transaction")
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
	if err := c2.BeginSnapshot(); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("MVCC-less server accepted a snapshot begin: %v", err)
	}
}

// Under a byte cap, eviction poisons only snapshots that need the evicted
// version; the session recovers by beginning a fresh snapshot.
func TestSnapshotTooOldAfterEviction(t *testing.T) {
	_, mk := newSnapServer(t, disk.PageSize) // room for one retained version
	w, r := mk(), mk()
	const off = 128
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	pid, err := w.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	commitBytes(t, w, pid, off, "v1")

	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Two more versions of the same page: the cap holds one, so the older
	// boundary the reader depends on is evicted.
	commitBytes(t, w, pid, off, "v2")
	commitBytes(t, w, pid, off, "v3")

	_, err = r.FetchPage(pid)
	if err == nil || !strings.Contains(err.Error(), "snapshot too old") {
		t.Fatalf("read below evicted boundary: %v, want snapshot-too-old", err)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	i, err := r.FetchPage(pid)
	if err != nil {
		t.Fatalf("fresh snapshot after eviction: %v", err)
	}
	if got := r.PageData(i)[off : off+2]; string(got) != "v3" {
		t.Fatalf("fresh snapshot = %q, want v3", got)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
}
