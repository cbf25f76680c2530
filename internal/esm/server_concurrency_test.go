package esm

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/wal"
)

// countingHook counts page reads through the volume and optionally delays
// them, widening the window in which concurrent faults of the same page
// must be deduplicated.
type countingHook struct {
	reads atomic.Int64
	delay time.Duration
}

func (h *countingHook) BeforeRead(id uint32) error {
	h.reads.Add(1)
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	return nil
}

func (h *countingHook) BeforeWrite(id uint32, pageSize int) (int, error) { return pageSize, nil }

// TestServerConcurrentReadDedup: many sessions faulting the same cold page
// at once must trigger exactly one disk read — the per-page in-flight
// dedup — and all of them must receive the page image.
func TestServerConcurrentReadDedup(t *testing.T) {
	hook := &countingHook{delay: 5 * time.Millisecond}
	vol := disk.WithHook(disk.NewMemVolume(), hook)
	srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := vol.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, disk.PageSize)
	img[100] = 0xAB
	if err := vol.WritePage(pid, img); err != nil {
		t.Fatal(err)
	}
	hook.reads.Store(0)

	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries := AppendPageEntry(nil, uint32(pid), 0)
			resp := srv.Handle(&Request{Op: OpReadPages, Page: uint32(pid), Data: entries})
			if resp.Err != "" {
				t.Errorf("read: %s", resp.Err)
				return
			}
			got := make([]byte, disk.PageSize)
			if a := ReadAnswers(entries, resp.Data); !a.Next() || a.Apply(got) != nil || !bytes.Equal(got, img) {
				t.Error("reader got a wrong page image")
			}
		}()
	}
	wg.Wait()
	if n := hook.reads.Load(); n != 1 {
		t.Fatalf("%d disk reads for %d concurrent faults of one page, want 1", n, readers)
	}
	hits, misses, _ := srv.pool.Stats()
	if misses != 1 {
		t.Fatalf("pool misses = %d, want 1", misses)
	}
	_ = hits
}

// TestServerConcurrentCommitsShareForces: concurrent committers inside a
// group-commit window share physical log forces, and the commit counters
// surfaced in ServerStats account for every transaction.
func TestServerConcurrentCommitsShareForces(t *testing.T) {
	vol := disk.NewMemVolume()
	srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{
		BufferPages:  16,
		CommitWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 8
		txns    = 10
	)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
			for i := 0; i < txns; i++ {
				if err := c.Begin(); err != nil {
					t.Errorf("client %d: begin: %v", cl, err)
					return
				}
				if _, err := c.Counter("conc.count", 1); err != nil {
					t.Errorf("client %d: counter: %v", cl, err)
					return
				}
				if err := c.Commit(); err != nil {
					t.Errorf("client %d: commit: %v", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	st, err := serverStats(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(clients * txns)
	if st.Commits != total {
		t.Fatalf("Commits = %d, want %d", st.Commits, total)
	}
	if st.LogForces >= total {
		t.Fatalf("LogForces = %d for %d commits: group commit batched nothing", st.LogForces, total)
	}
	if st.LogPiggybacks == 0 {
		t.Fatal("no piggybacked commits recorded")
	}
	t.Logf("%d commits -> %d forces, %d piggybacks", total, st.LogForces, st.LogPiggybacks)

	// The counter must have absorbed every increment.
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Counter("conc.count", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != uint64(total) {
		t.Fatalf("counter = %d, want %d", v, total)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestServerStatsUnderConcurrency hammers OpStats while other sessions
// read pages and commit; the atomics satellite means the race detector
// must stay quiet and the snapshot must always unmarshal.
func TestServerStatsUnderConcurrency(t *testing.T) {
	vol := disk.NewMemVolume()
	srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	base, err := vol.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pid := uint32(base) + uint32((g*7+i)%32)
				if resp := srv.Handle(&Request{Op: OpReadPages, Page: pid, Data: AppendPageEntry(nil, pid, 0)}); resp.Err != "" {
					t.Errorf("read: %s", resp.Err)
					return
				}
				// Batch reads exercise the prefetch counter too.
				batch := AppendPageEntry(AppendPageEntry(nil, pid, 0), uint32(base), 0)
				if resp := srv.Handle(&Request{Op: OpReadPages, Page: pid, Data: batch}); resp.Err != "" {
					t.Errorf("batch read: %s", resp.Err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if _, err := serverStats(t, srv); err != nil {
			t.Fatalf("stats snapshot %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// serverStats fetches and decodes an OpStats snapshot.
func serverStats(t *testing.T, srv *Server) (*ServerStats, error) {
	t.Helper()
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 4})
	return c.ServerStats()
}

// TestStatsPoolAllocatedPages pins the server pool's footprint in the stats:
// a slab of frames at a time as pages are first read, and unchanged by
// DropCaches, whose frames keep their images.
func TestStatsPoolAllocatedPages(t *testing.T) {
	vol := disk.NewMemVolume()
	srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := vol.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		pid := uint32(base) + i
		if resp := srv.Handle(&Request{Op: OpReadPages, Page: pid, Data: AppendPageEntry(nil, pid, 0)}); resp.Err != "" {
			t.Fatalf("read %d: %s", pid, resp.Err)
		}
	}
	st, err := serverStats(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	if st.BufferPages != DefaultServerBufferPages || st.Resident < 100 {
		t.Fatalf("stats: %d/%d pages resident, want at least the 100 read of %d", st.Resident, st.BufferPages, DefaultServerBufferPages)
	}
	if want := (st.Resident + 63) / 64 * 64; st.PoolAllocatedPages != want {
		t.Fatalf("pool_allocated_pages = %d with %d resident, want %d", st.PoolAllocatedPages, st.Resident, want)
	}
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	after, err := serverStats(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	if after.Resident != 0 || after.PoolAllocatedPages != st.PoolAllocatedPages {
		t.Fatalf("after DropCaches: %d resident, %d allocated, want 0 and %d", after.Resident, after.PoolAllocatedPages, st.PoolAllocatedPages)
	}
}
