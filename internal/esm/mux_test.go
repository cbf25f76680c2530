package esm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// startServer spins a real TCP server over a fresh in-memory store and
// returns its address. The listener and server die with the test.
func startServer(t testing.TB, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, startListener(t, srv)
}

func startListener(t testing.TB, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, srv)
	return l.Addr().String()
}

// TestMuxSharedByConcurrentSessions runs eight whole client sessions over
// ONE multiplexed connection: begins, faulted page reads, updates, and
// commits all interleave on the socket. Under -race this is the
// demux/coalescing correctness test; the values check catches any
// response delivered to the wrong call.
func TestMuxSharedByConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, ServerConfig{BufferPages: 128})
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Seed: one file with 64 objects, each holding its index.
	seed := NewClient(tr, ClientConfig{BufferPages: 32})
	if err := seed.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := seed.CreateFile("mux")
	if err != nil {
		t.Fatal(err)
	}
	cl := seed.NewCluster(fid)
	var oids []OID
	for i := 0; i < 64; i++ {
		oid, data, err := seed.CreateObject(cl, 64)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(data, uint64(i))
		oids = append(oids, oid)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := NewClient(tr, ClientConfig{BufferPages: 4})
			for txn := 0; txn < 6; txn++ {
				if err := c.Begin(); err != nil {
					errs[s] = err
					return
				}
				for i := 0; i < len(oids); i++ {
					idx := (i*7 + s*13) % len(oids)
					data, _, err := c.ReadObject(oids[idx])
					if err != nil {
						errs[s] = fmt.Errorf("read %d: %w", idx, err)
						return
					}
					if got := binary.LittleEndian.Uint64(data); got != uint64(idx) {
						errs[s] = fmt.Errorf("object %d holds %d: response delivered to wrong call?", idx, got)
						return
					}
				}
				if err := c.Commit(); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	st := tr.Stats()
	if st.Calls == 0 || st.Flushes == 0 || st.Frames < st.Flushes {
		t.Fatalf("implausible transport stats: %+v", st)
	}
	if st.InFlightHW < 2 {
		t.Errorf("in-flight high water = %d; concurrent sessions never overlapped on the socket", st.InFlightHW)
	}
}

// fakeServer pairs a MuxTransport with a scripted peer on net.Pipe.
func fakeServer(t *testing.T, timeout time.Duration, script func(conn net.Conn)) *MuxTransport {
	t.Helper()
	cli, srv := net.Pipe()
	go script(srv)
	tr := NewMuxTransport(cli, timeout)
	t.Cleanup(func() { tr.Close() })
	return tr
}

// readOneFrame pulls one framed request off the scripted server's end.
func readOneFrame(conn net.Conn) (seq uint64, req *Request, err error) {
	seq, body, err := readMuxFrame(conn, new([]byte))
	if err != nil {
		return 0, nil, err
	}
	req, err = unmarshalRequest(body)
	return seq, req, err
}

func wantBroken(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("call on poisoned transport succeeded")
	}
	if !errors.Is(err, ErrTransportBroken) {
		t.Fatalf("err = %v, want ErrTransportBroken", err)
	}
	if faultinject.IsTransient(err) {
		t.Fatalf("broken-transport error classified transient (would be retried into a desynced stream): %v", err)
	}
}

// TestMuxUnknownSeqPoisons: a response bearing a sequence number that was
// never issued must poison the connection, failing the outstanding call.
func TestMuxUnknownSeqPoisons(t *testing.T) {
	tr := fakeServer(t, time.Second, func(conn net.Conn) {
		if _, _, err := readOneFrame(conn); err != nil {
			return
		}
		conn.Write(appendResponseFrame(nil, 999, &Response{}))
	})
	_, err := tr.Call(&Request{Op: OpBegin})
	wantBroken(t, err)
	_, err = tr.Call(&Request{Op: OpBegin})
	wantBroken(t, err)
}

// TestMuxDuplicateSeqPoisons: answering one request twice is a framing
// violation — the second response must poison, not panic or mis-deliver.
func TestMuxDuplicateSeqPoisons(t *testing.T) {
	tr := fakeServer(t, time.Second, func(conn net.Conn) {
		seq, _, err := readOneFrame(conn)
		if err != nil {
			return
		}
		frame := appendResponseFrame(nil, seq, &Response{N: 7})
		conn.Write(append(frame, frame...)) // the same response, twice
	})
	resp, err := tr.Call(&Request{Op: OpBegin})
	if err != nil || resp.N != 7 {
		t.Fatalf("first call: resp=%+v err=%v", resp, err)
	}
	// The duplicate poisons the demux loop asynchronously; every call
	// observes it once it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.Call(&Request{Op: OpBegin}); err != nil {
			wantBroken(t, err)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate seq never poisoned the transport")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxGarbageFramesPoison: runt, oversized, and truncated frames make
// the stream unsynchronizable; the transport must fail cleanly.
func TestMuxGarbageFramesPoison(t *testing.T) {
	cases := map[string][]byte{
		"runt":      {3, 0, 0, 0, 1, 2, 3},
		"oversized": {0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8},
		"truncated": appendResponseFrame(nil, 1, &Response{Data: []byte{1, 2, 3}})[:10],
		"shortbody": {10, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}, // body fails response decode
	}
	for name, wire := range cases {
		t.Run(name, func(t *testing.T) {
			tr := fakeServer(t, time.Second, func(conn net.Conn) {
				if _, _, err := readOneFrame(conn); err != nil {
					return
				}
				conn.Write(wire)
				// Leave the conn open: the client must not need EOF to
				// notice the damage.
				time.Sleep(50 * time.Millisecond)
				conn.Close()
			})
			_, err := tr.Call(&Request{Op: OpBegin})
			wantBroken(t, err)
		})
	}
}

// TestMuxReadDeadline: a server that accepts the request and then stalls
// must not hang the call forever — the armed read deadline poisons the
// connection.
func TestMuxReadDeadline(t *testing.T) {
	tr := fakeServer(t, 100*time.Millisecond, func(conn net.Conn) {
		readOneFrame(conn)
		// never respond
		time.Sleep(5 * time.Second)
		conn.Close()
	})
	start := time.Now()
	_, err := tr.Call(&Request{Op: OpBegin})
	wantBroken(t, err)
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
}

// TestMuxIdleConnectionDoesNotTimeOut: the read deadline is armed only
// while calls are outstanding, so an idle connection stays usable past the
// timeout.
func TestMuxIdleConnectionDoesNotTimeOut(t *testing.T) {
	_, addr := startServer(t, ServerConfig{BufferPages: 32})
	tr, err := DialTCPTimeout(addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Call(&Request{Op: OpBegin}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // several timeouts of idleness
	if _, err := tr.Call(&Request{Op: OpStats}); err != nil {
		t.Fatalf("idle connection went bad: %v", err)
	}
}

// TestLockstepMidCallIOErrorPoisons is the regression test for the
// desynchronized-stream bug: a mid-call I/O failure must leave the
// transport refusing further calls, and — per the PR 2 retry policy — the
// client must NOT re-send even retryable requests over it (a transport
// error means the session is gone, not a transient server fault). The name
// and the "mux" subtest are historical: the lock-step transport and its
// subtest are gone, and mux is the only transport left.
func TestLockstepMidCallIOErrorPoisons(t *testing.T) {
	t.Run("mux", func(t *testing.T) {
		cli, srvConn := net.Pipe()
		go func() {
			readOneFrame(srvConn)
			srvConn.Close() // die mid-call, after consuming the request
		}()
		tr := NewMuxTransport(cli, time.Second)
		defer tr.Close()
		c := NewClient(tr, ClientConfig{
			BufferPages: 4,
			Retry:       RetryPolicy{MaxAttempts: 5},
		})
		err := c.Begin()
		wantBroken(t, err)
		if got := c.Retries(); got != 0 {
			t.Fatalf("client retried %d times over a broken transport", got)
		}
	})
}

// transientReadHook fails the first `fails` page reads of pid with the
// injected transient error, then heals.
type transientReadHook struct {
	mu    sync.Mutex
	pid   uint32
	fails int
}

func (h *transientReadHook) BeforeRead(id uint32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id == h.pid && h.fails > 0 {
		h.fails--
		return faultinject.ErrTransient
	}
	return nil
}

func (h *transientReadHook) BeforeWrite(id uint32, pageSize int) (int, error) {
	return pageSize, nil
}

// TestTransientRetryOverTCP: the PR 2 retry policy keeps working across the
// multiplexed transport — a transient server-side fault travels back in
// Response.Err, is classified transient, and the re-sent request succeeds.
func TestTransientRetryOverTCP(t *testing.T) {
	hook := &transientReadHook{fails: 2}
	vol := disk.WithHook(disk.NewMemVolume(), hook)
	srv, err := NewServer(vol, wal.NewMemLog(), ServerConfig{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	addr := startListener(t, srv)

	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	seed := NewClient(tr, ClientConfig{BufferPages: 8})
	if err := seed.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := seed.CreateFile("retry")
	if err != nil {
		t.Fatal(err)
	}
	oid, data, err := seed.CreateObject(seed.NewCluster(fid), 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "durable")
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	hook.mu.Lock()
	hook.pid = uint32(oid.Page)
	hook.fails = 2
	hook.mu.Unlock()

	c := NewClient(tr, ClientConfig{BufferPages: 8, Retry: RetryPolicy{MaxAttempts: 4}})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ReadObject(oid)
	if err != nil {
		t.Fatalf("read through transient faults: %v", err)
	}
	if !bytes.HasPrefix(got, []byte("durable")) {
		t.Fatalf("read %q", got[:7])
	}
	if c.Retries() == 0 {
		t.Fatal("transient fault healed without any retry — hook never fired?")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFramingAllocs pins the zero-allocation guarantee of the pooled
// framing path: encoding a framed request, reading it back, decoding it
// in place, and doing the same for the response must not allocate in
// steady state.
func TestFramingAllocs(t *testing.T) {
	assertFramingAllocFree(t)
}

func assertFramingAllocFree(t testing.TB) {
	t.Helper()
	req := &Request{Op: OpWritePage, Tx: 3, Page: 9, Data: make([]byte, disk.PageSize)}
	resp := &Response{Page: 9, N: 1, Data: make([]byte, disk.PageSize)}
	buf := make([]byte, 0, 64<<10)
	scratch := new([]byte)
	*scratch = make([]byte, 0, 64<<10)
	rd := bytes.NewReader(nil)
	var reqOut Request
	var respOut Response
	allocs := testing.AllocsPerRun(200, func() {
		buf = appendRequestFrame(buf[:0], 7, req)
		rd.Reset(buf)
		seq, body, err := readMuxFrame(rd, scratch)
		if err != nil || seq != 7 {
			t.Fatalf("request frame: seq=%d err=%v", seq, err)
		}
		if err := reqOut.unmarshal(body, false); err != nil {
			t.Fatal(err)
		}
		buf = appendResponseFrame(buf[:0], 7, resp)
		rd.Reset(buf)
		if _, body, err = readMuxFrame(rd, scratch); err != nil {
			t.Fatal(err)
		}
		if err := respOut.unmarshal(body, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("framing path allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkTransportCall measures one single-page OpReadPages round trip over a real
// loopback socket on the multiplexed transport, and (as a guard, not a
// measurement) asserts the pooled framing path stays allocation-free.
func BenchmarkTransportCall(b *testing.B) {
	assertFramingAllocFree(b)
	srv, addr := startServer(b, ServerConfig{BufferPages: 64})
	pid, err := srv.Volume().Allocate(1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := DialTCP(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	req := &Request{Op: OpReadPages, Page: uint32(pid), Data: AppendPageEntry(nil, uint32(pid), 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := tr.Call(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkTransportCallPipelined is the same round trip with 16 callers
// sharing the socket: the gap to BenchmarkTransportCall is what request
// coalescing and response pipelining buy.
func BenchmarkTransportCallPipelined(b *testing.B) {
	srv, addr := startServer(b, ServerConfig{BufferPages: 64})
	pid, err := srv.Volume().Allocate(1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := DialTCP(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := &Request{Op: OpReadPages, Page: uint32(pid), Data: AppendPageEntry(nil, uint32(pid), 0)}
		for pb.Next() {
			if _, err := tr.Call(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
