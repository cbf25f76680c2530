package esm_test

import (
	"bytes"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/lock"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
)

// TestRefusedCommitEndsItsTransaction: a session locks a page X, logs an
// update and commits; the server refuses the commit after applying its
// payload, before the commit record (a transient fault at
// PtCommitAfterInstall). The client forgets a transaction whose commit
// failed, so the server ends it before the answer: no transaction-table
// entry is left, a second session is granted X at once (a held lock would
// time out) and reads the old bytes, and the next checkpoint cuts the log
// past the refused transaction's records. The same holds through a 2-shard
// router on the shard the transaction began on explicitly.
func TestRefusedCommitEndsItsTransaction(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		srv, plane := refusalServer(t)
		pid, err := srv.Volume().Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		tr := esm.NewInProcTransport(srv)
		refusedCommitEndsItsTransaction(t, srv, plane, pid, func() esm.Transport { return tr })
	})
	t.Run("router", func(t *testing.T) {
		srvs := make([]*esm.Server, 2)
		trs := make([]esm.Transport, 2)
		var plane *faultinject.Plane
		for i := range srvs {
			srvs[i], plane = refusalServer(t)
			trs[i] = esm.NewInProcTransport(srvs[i])
		}
		local, err := srvs[1].Volume().Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		router := func() esm.Transport {
			r, err := shard.NewRouter(trs, shard.Config{Affinity: 0})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		refusedCommitEndsItsTransaction(t, srvs[1], plane, disk.PageID(shard.GlobalPage(1, uint32(local))), router)
	})
}

// refusalServer is a server whose lock waits end quickly, and its fault
// plane.
func refusalServer(t *testing.T) (*esm.Server, *faultinject.Plane) {
	t.Helper()
	plane := faultinject.New(1)
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 16, LockTimeout: 100 * time.Millisecond, Fault: plane})
	if err != nil {
		t.Fatal(err)
	}
	return srv, plane
}

// refusedCommitEndsItsTransaction runs the refused commit on page pid
// through a transport from dial, and checks srv, the server pid lives on,
// whose fault plane is plane.
func refusedCommitEndsItsTransaction(t *testing.T, srv *esm.Server, plane *faultinject.Plane, pid disk.PageID, dial func() esm.Transport) {
	t.Helper()
	const off = 64
	old, val := make([]byte, 4), []byte{1, 2, 3, 4}
	from := srv.Log().End()

	c := esm.NewClient(dial(), esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(lock.KindPage, uint32(pid), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	c.LogUpdate(pid, off, old, val)
	plane.ArmTransient(faultinject.PtCommitAfterInstall, 1)
	if err := c.Commit(); err == nil {
		t.Fatal("a commit through a transient fault was accepted")
	}
	if plane.Hits(faultinject.PtCommitAfterInstall) != 1 {
		t.Fatal("setup: the refused commit never reached PtCommitAfterInstall")
	}
	// The refused transaction is every one with a record past from.
	refused := map[uint64]bool{}
	if err := srv.Log().Iterate(func(r wal.Record) bool {
		if r.LSN >= from && r.Tx != 0 {
			refused[r.Tx] = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(refused) != 1 {
		t.Fatalf("setup: %d transactions logged by the refused session, want 1", len(refused))
	}
	if n := srv.LiveTxs(); n != 0 {
		t.Fatalf("a refused commit left %d transactions in the table", n)
	}

	r := esm.NewClient(dial(), esm.ClientConfig{BufferPages: 8})
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := r.Lock(lock.KindPage, uint32(pid), lock.Exclusive); err != nil {
		t.Fatalf("the next session's X lock: %v", err)
	}
	i, err := r.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+len(old)]; !bytes.Equal(got, old) {
		t.Fatalf("the next session read %v, want the old bytes %v", got, old)
	}
	if err := r.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Log().Iterate(func(r wal.Record) bool {
		if refused[r.Tx] {
			t.Errorf("a checkpoint kept the refused tx %d's %v record at %d: something pins the cut", r.Tx, r.Type, r.LSN)
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}
