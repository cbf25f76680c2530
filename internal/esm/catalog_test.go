package esm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/wal"
)

// powerVolume models a power loss on a volume: it keeps the pre-image of
// every page written since its last Sync, and powerLoss puts those
// pre-images back. What was not synced is gone.
type powerVolume struct {
	disk.Volume
	mu  sync.Mutex
	pre map[disk.PageID][]byte
}

func newPowerVolume() *powerVolume {
	return &powerVolume{Volume: disk.NewMemVolume(), pre: map[disk.PageID][]byte{}}
}

func (v *powerVolume) WritePage(id disk.PageID, buf []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.pre[id]; !ok {
		old := make([]byte, disk.PageSize)
		if err := v.Volume.ReadPage(id, old); err != nil && !errors.Is(err, disk.ErrPageOutOfRange) {
			return err
		}
		v.pre[id] = old
	}
	return v.Volume.WritePage(id, buf)
}

func (v *powerVolume) Sync() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.pre)
	return v.Volume.Sync()
}

func (v *powerVolume) powerLoss(t *testing.T) {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()
	for id, old := range v.pre {
		if err := v.Volume.WritePage(id, old); err != nil {
			t.Fatal(err)
		}
	}
	clear(v.pre)
}

// TestAckedRootSurvivesPowerLoss: a catalog change (file, counter) or a
// root, followed by an acked commit, survives a power loss that reverts
// every volume write made since the last sync; only the forced log is left.
// The root directory page (page 1) is redone from the log when its volume
// copy reads as zeroes.
func TestAckedRootSurvivesPowerLoss(t *testing.T) {
	cases := []struct {
		name   string
		change func(c *Client, oid OID) error
		check  func(c *Client, oid OID) error
	}{
		{"SetRoot", func(c *Client, oid OID) error {
			return c.SetRoot("acked", oid, 7)
		}, func(c *Client, oid OID) error {
			got, aux, err := c.GetRoot("acked")
			if err == nil && (got != oid || aux != 7) {
				err = fmt.Errorf("root acked = %v/%d, want %v/7", got, aux, oid)
			}
			return err
		}},
		{"CreateFile", func(c *Client, _ OID) error {
			_, err := c.CreateFile("acked")
			return err
		}, func(c *Client, _ OID) error {
			_, err := c.OpenFile("acked")
			return err
		}},
		{"Counter", func(c *Client, _ OID) error {
			if _, err := c.Counter("acked", 5); err != nil {
				return err
			}
			_, err := c.Counter("acked", 3)
			return err
		}, func(c *Client, _ OID) error {
			n, err := c.Counter("acked", 0)
			if err == nil && n < 8 {
				err = fmt.Errorf("counter acked = %d, want >= 8", n)
			}
			return err
		}},
	}
	for _, tc := range cases {
		for _, loss := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/loss=%v", tc.name, loss), func(t *testing.T) {
				vol, logf := newPowerVolume(), wal.NewMemLog()
				srv, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64})
				c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
				if err := c.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := tc.change(c, oid); err != nil {
					t.Fatal(err)
				}
				if err := c.Commit(); err != nil {
					t.Fatal(err)
				}
				if loss {
					vol.powerLoss(t)
				}
				logf.DiscardUnflushed()
				srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
				if err != nil {
					t.Fatal(err)
				}
				c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
				if err := c2.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := tc.check(c2, oid); err != nil {
					t.Fatalf("after restart: %v", err)
				}
				if err := c2.Commit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	t.Run("ZeroedPage1", func(t *testing.T) {
		vol, logf := disk.NewMemVolume(), wal.NewMemLog()
		srv, err := NewServer(vol, logf, ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
		oid := OID{Page: 9, Slot: 2}
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.SetRoot("obj", oid, 4); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		// The directory page reached the volume and was then lost to it
		// (zeroed); no checkpoint cut the log that holds its records.
		if err := srv.FlushPool(); err != nil {
			t.Fatal(err)
		}
		if err := vol.WritePage(dirPage, make([]byte, disk.PageSize)); err != nil {
			t.Fatal(err)
		}
		srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		c = NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if got, aux, err := c.GetRoot("obj"); err != nil || got != oid || aux != 4 {
			t.Fatalf("root obj = %v/%d, %v; want %v/4", got, aux, err, oid)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOversizedCatalogRefusedAtTheOp: a root the directory page has no
// room for is refused when it is set, and the directory stays as it was;
// the transaction around it, which set every root that fit, still commits
// and releases its locks, and a checkpoint after it succeeds.
func TestOversizedCatalogRefusedAtTheOp(t *testing.T) {
	vol, logf := disk.NewMemVolume(), wal.NewMemLog()
	srv, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64, LockTimeout: 200 * time.Millisecond})
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, off, idx, err := c.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj, "updated!")
	c.Pool().MarkDirty(idx)
	c.LogUpdate(oid.Page, off, []byte("original"), []byte("updated!"))
	refused := ""
	for i := 0; i < 200 && refused == ""; i++ {
		name := fmt.Sprintf("root-%03d-%s", i, strings.Repeat("x", 33)) // 42 bytes
		if err := c.SetRoot(name, oid, uint64(i)); err != nil {
			if !strings.Contains(err.Error(), "root directory full") {
				t.Fatalf("SetRoot %d: %v", i, err)
			}
			refused = name
		}
	}
	if refused == "" {
		t.Fatal("200 roots of 42-byte names were all accepted; the directory bound is not enforced at SetRoot")
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("commit after a refused root: %v", err)
	}
	srv.mu.Lock()
	active := len(srv.txs)
	srv.mu.Unlock()
	if active != 0 {
		t.Fatalf("%d transactions still active after the commit", active)
	}
	// The commit's page lock is gone: another session updates the page.
	updateCohObject(t, NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8}), oid, "updated!", "again!!!")
	if err := srv.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after a refused root: %v", err)
	}
	v := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.GetRoot(refused); err == nil {
		t.Fatalf("refused root %q is in the directory", refused)
	}
	for _, name := range []string{"obj", "root-000-" + strings.Repeat("x", 33)} {
		if _, _, err := v.GetRoot(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUncommittedRootNeverRead: a root set in an open transaction is not
// seen by another session — not while the transaction runs, not after one of
// its dirty pages was stolen to the server mid-transaction (a steal ships no
// directory record: page 1 on the server is untouched), and not after it
// aborts. From the commit on the other session sees it.
func TestUncommittedRootNeverRead(t *testing.T) {
	srv, oid := seedObject(t, disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	moved := OID{Page: oid.Page, Slot: 9, File: oid.File}
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	sees := func(when string, want OID, wantNew bool) {
		t.Helper()
		if err := b.Begin(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := b.GetRoot("obj"); err != nil || got != want {
			t.Errorf("%s: root obj = %v, %v; want %v", when, got, err, want)
		}
		if _, _, err := b.GetRoot("new"); (err == nil) != wantNew {
			t.Errorf("%s: root new found = %v, want %v", when, err == nil, wantNew)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sees("before", oid, false)

	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 2})
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"obj", "new"} {
		if err := a.SetRoot(name, moved, 1); err != nil {
			t.Fatal(err)
		}
	}
	dir := poolImage(t, srv, dirPage)
	applied := srv.pagesLogApplied.Load()
	obj, idx, err := a.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), obj[:8]...)
	copy(obj, "clobber!")
	a.Pool().MarkDirty(idx)
	a.LogUpdate(oid.Page, pageOffOf(t, a, oid), old, []byte("clobber!"))
	cl := a.NewCluster(1)
	for i := 0; i < 4; i++ {
		if _, _, err := a.CreateObject(cl, 7000); err != nil {
			t.Fatal(err)
		}
	}
	if srv.pagesLogApplied.Load() == applied {
		t.Fatal("no page was stolen mid-transaction")
	}
	if !bytes.Equal(poolImage(t, srv, dirPage), dir) {
		t.Error("a steal shipped the open transaction's root directory records")
	}
	sees("in flight, after a steal", oid, false)
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	sees("after the abort", oid, false)

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := a.GetRoot("obj"); err != nil || got != oid {
		t.Fatalf("the aborting session's root obj = %v, %v; want %v", got, err, oid)
	}
	for _, name := range []string{"obj", "new"} {
		if err := a.SetRoot(name, moved, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	sees("after the commit", moved, true)
}

// TestStaleGrantRevalidatesDirectory: a session whose copy of the root
// directory went stale after its Begin — another session committed a root
// since — revalidates the copy when page 1's X lock is granted, before its
// SetRoot edits it. Editing the stale copy would append its entry where the
// other session's is, and that root would be lost at its commit.
func TestStaleGrantRevalidatesDirectory(t *testing.T) {
	srv, oid := seedObject(t, disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	a := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	for _, c := range []*Client{a, b} { // both copies warm and vouched for
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetRoot("obj"); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetRoot("from-a", oid, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.SetRoot("from-b", oid, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	v := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	for name, aux := range map[string]uint64{"obj": 0, "from-a": 1, "from-b": 2} {
		if got, gotAux, err := v.GetRoot(name); err != nil || got != oid || gotAux != aux {
			t.Errorf("root %s = %v/%d, %v; want %v/%d", name, got, gotAux, err, oid, aux)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}
