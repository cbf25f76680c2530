package esm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/page"
)

// TestRoundTripAllocs guards the real transport end to end: a Server behind
// Serve on a loopback socket and a Client over DialTCP, so the count covers
// both ends of every call — the client's request and answer, the mux's
// framing and demux, the serve worker, the server's read and its answer. A
// page fault that the warm server pool answers allocates nothing, the
// page's sparse image encoded and decoded included (a half-full slotted
// page, so the answer has runs to write); a Begin+Commit pair allocates the
// commit's literal ack and its group-commit batch, nothing more.
func TestRoundTripAllocs(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{BufferPages: 64})
	pid, err := srv.Volume().Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, disk.PageSize)
	for p := page.Init(img, page.TypeSlotted); disk.PageSize-p.FreeSpace() < disk.PageSize/2; {
		_, off, err := p.Insert(56)
		if err != nil {
			t.Fatal(err)
		}
		copy(img[off:], "a slotted object, its zero fields between its non-zero ones")
	}
	if err := srv.Volume().WritePage(pid, img); err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fetch := func() {
		i, err := c.FetchPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.pool.Evict(i); err != nil {
			t.Fatal(err)
		}
	}
	fetch() // the server pool now holds the page
	if n := testing.AllocsPerRun(200, fetch); n > maxFetchAllocs {
		t.Errorf("FetchPage of a page the client does not hold: %v allocs, budget %v", n, maxFetchAllocs)
	}
	if n, sent := srv.cohFulls.Load(), srv.cohFullBytes.Load(); n == 0 || sent == 0 || sent/n >= disk.PageSize*6/10 {
		t.Errorf("%d fetches of the half-full page shipped %d bytes, want a sparse image each", n, sent)
	}
	i, err := c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.PageData(i), img) {
		t.Errorf("the fetched frame differs from the page at byte %d", mismatch(c.PageData(i), img))
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	pair := func() {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if n := testing.AllocsPerRun(200, pair); n > maxBeginCommitAllocs {
		t.Errorf("Begin+Commit: %v allocs, budget %v", n, maxBeginCommitAllocs)
	}
}

// flushConn is a net.Conn that takes every write and reports it on wrote.
// Only Write and Close are called on it.
type flushConn struct {
	net.Conn
	wrote chan int
}

func (c *flushConn) Write(b []byte) (int, error) {
	c.wrote <- len(b)
	return len(b), nil
}

func (c *flushConn) Close() error { return nil }

// TestServeWriterReusesVector: WriteTo consumes the vector it writes, so a
// writer that appended to the consumed vector paid a new backing array on
// every flush of every connection. Three flushes allocate nothing.
func TestServeWriterReusesVector(t *testing.T) {
	conn := &flushConn{wrote: make(chan int)}
	respCh := make(chan *[]byte, serveWorkers)
	done := make(chan struct{})
	go serveWriter(conn, nil, respCh, done)
	defer func() {
		close(respCh)
		<-done
	}()
	flush := func() {
		b := getBuf()
		*b = append((*b)[:0], "one response frame"...)
		respCh <- b
		if n := <-conn.wrote; n != len("one response frame") {
			t.Fatalf("flushed %d bytes", n)
		}
	}
	flush()
	if n := testing.AllocsPerRun(100, func() { flush(); flush(); flush() }); n > maxFlushesAllocs {
		t.Fatalf("three writer flushes: %v allocs, budget %v", n, maxFlushesAllocs)
	}
}

// TestResponseRelease: Release leaves Data nil and may be called again; a
// pooled Response is handed back once, however often it is released.
func TestResponseRelease(t *testing.T) {
	var none *Response
	none.Release()

	plain := &Response{N: 7, Data: []byte("answer")}
	plain.Release()
	plain.Release()
	if plain.Data != nil || plain.N != 7 {
		t.Fatalf("released plain response: N %d, Data %q; want N 7, Data nil", plain.N, plain.Data)
	}

	r := pooledResponse()
	r.buf = getBuf()
	*r.buf = append((*r.buf)[:0], "answer"...)
	r.N, r.Data = 9, *r.buf
	r.Release()
	if r.Data != nil || r.buf != nil {
		t.Fatalf("released pooled response still holds Data %q", r.Data)
	}
	r.Release()
	if x, y := pooledResponse(), pooledResponse(); x == y {
		t.Fatal("a response released twice was handed out twice")
	}
}

// TestMuxPooledAnswersUnaliased runs eight sessions on one connection, each
// faulting pages through a 4-frame pool so every fetch is a round trip, and
// compares every fetched frame with a direct server read — after the session
// released the answer the frame came from, while the other sessions' answers
// reuse pooled buffers. A buffer handed back while something still aliased
// it, at either end, shows up as a frame holding another page's image.
func TestMuxPooledAnswersUnaliased(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{BufferPages: 16})
	const pages = 32
	first, err := srv.Volume().Allocate(pages)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, disk.PageSize)
	for k := 0; k < pages; k++ {
		pid := first + disk.PageID(k)
		for j := range img {
			img[j] = byte(int(pid)*31 + j)
		}
		if err := srv.Volume().WritePage(pid, img); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// direct reads the server's image of pid with a request of its own.
	direct := func(pid disk.PageID) ([]byte, error) {
		entry := AppendPageEntry(nil, uint32(pid), 0)
		resp := srv.Handle(&Request{Op: OpReadPages, Page: uint32(pid), Data: entry})
		defer resp.Release()
		a := ReadAnswers(entry, resp.Data)
		if resp.Err != "" || !a.Next() || !a.Answered {
			return nil, fmt.Errorf("direct read of page %d: %s %v", pid, resp.Err, a.Err())
		}
		img := make([]byte, disk.PageSize)
		return img, a.Apply(img)
	}

	const sessions = 8
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := NewClient(tr, ClientConfig{BufferPages: 4})
			for round := 0; round < 4 && errs[s] == nil; round++ {
				if err := c.Begin(); err != nil {
					errs[s] = err
					return
				}
				for k := 0; k < pages; k++ {
					pid := first + disk.PageID((k*7+s*5)%pages)
					i, err := c.FetchPage(pid)
					if err != nil {
						errs[s] = err
						return
					}
					want, err := direct(pid)
					if err != nil {
						errs[s] = err
						return
					}
					if got := c.PageData(i); !bytes.Equal(got, want) {
						errs[s] = fmt.Errorf("round %d: frame of page %d differs from the server's image at byte %d",
							round, pid, mismatch(got, want))
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
}

func mismatch(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestBeginAfterPoisonedCall: a call that fails because the connection was
// poisoned while the mux writer was blocked mid-write returns only once
// nothing in the transport reads its Request any more, so the session's next
// call rebuilds the same scratch Request. Under -race this is the check that
// the rebuild never overlaps a read by the dead writer.
func TestBeginAfterPoisonedCall(t *testing.T) {
	cli, srvConn := net.Pipe()
	go func() {
		// Take the first bytes of the Begin frame, so its Write is blocked
		// mid-frame, then answer with a runt frame: the reader poisons the
		// connection under the writer's feet.
		io.ReadFull(srvConn, make([]byte, frameLenSize))
		var runt [frameLenSize]byte
		binary.LittleEndian.PutUint32(runt[:], 1)
		srvConn.Write(runt[:])
	}()
	tr := NewMuxTransport(cli, 0)
	defer tr.Close()
	c := NewClient(tr, ClientConfig{BufferPages: 4})
	wantBroken(t, c.Begin())
	wantBroken(t, c.Begin())
}
