package esm

import (
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

// TestAckedRootSurvivesPowerLoss: a catalog change (root, file, counter)
// followed by an acked commit survives a power loss that reverts every
// volume write made since the last sync; only the forced log is left. The
// store also opens, roots intact, when the old catalog page reads as zeroes.
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
		_, oid := seedObject(t, vol, logf, ServerConfig{BufferPages: 64})
		if err := vol.WritePage(1, make([]byte, disk.PageSize)); err != nil {
			t.Fatal(err)
		}
		srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := c.GetRoot("obj"); err != nil || got != oid {
			t.Fatalf("root obj = %v, %v; want %v", got, err, oid)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOversizedCatalogRefusedAtTheOp: a root that would push the catalog
// past its bound is refused when it is set, and the catalog stays as it
// was; the transaction around it still commits and releases its locks,
// and a checkpoint after it succeeds.
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
			if !strings.Contains(err.Error(), "catalog too large") {
				t.Fatalf("SetRoot %d: %v", i, err)
			}
			refused = name
		}
	}
	if refused == "" {
		t.Fatal("200 roots of 42-byte names were all accepted; the catalog bound is not enforced at the op")
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
		t.Fatalf("refused root %q is in the catalog", refused)
	}
	if _, _, err := v.GetRoot("obj"); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}
