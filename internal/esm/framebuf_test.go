package esm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/wal"
)

// echoHandler answers every request with a copy of its Data and its N.
type echoHandler struct{}

func (echoHandler) Handle(req *Request) *Response {
	resp := PooledResponse()
	resp.N = req.N
	resp.Data = append([]byte(nil), req.Data...)
	return resp
}

// dialEcho serves echoHandler on a loopback listener and returns its
// address; the listener dies with the test.
func dialEcho(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, echoHandler{})
	return l.Addr().String()
}

// echo sends data through tr and fails the test unless it comes back
// byte-identical.
func echo(t *testing.T, tr *MuxTransport, n uint64, data []byte) {
	t.Helper()
	resp, err := tr.Call(&Request{Op: OpReadPages, N: n, Data: data})
	if err != nil {
		t.Error(err)
		return
	}
	defer resp.Release()
	if resp.Err != "" || resp.N != n || !bytes.Equal(resp.Data, data) {
		t.Errorf("call %d: %d bytes sent, %d came back (err %q, N %d), or not the same bytes",
			n, len(data), len(resp.Data), resp.Err, resp.N)
	}
}

// heapInuse is HeapInuse once garbage, and the sync.Pools' victim caches,
// are gone.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestMuxKeepsNoFrameBuffer sends one 6 MB request and gets one 6 MB answer
// over a real socket. Neither end keeps a buffer that size once the call is
// done: every buffer that held the frames goes back to bufPool, which drops
// any past maxPooledBuf. A writer that keeps its largest flush buffer fails.
func TestMuxKeepsNoFrameBuffer(t *testing.T) {
	tr, err := DialTCP(dialEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	echo(t, tr, 1, []byte{1}) // both ends' goroutines and windows exist
	before := heapInuse()
	big := make([]byte, 6<<20)
	rand.New(rand.NewSource(1)).Read(big)
	echo(t, tr, 2, big)
	big = nil
	after := heapInuse()
	if after-before > 1<<20 {
		t.Fatalf("HeapInuse %.2f MB -> %.2f MB after a 6 MB round trip: a connection kept a frame buffer",
			float64(before)/(1<<20), float64(after)/(1<<20))
	}
	t.Logf("HeapInuse %+d KB across a 6 MB round trip", (after-before)>>10)
}

// TestIdleConnectionHeap holds 16 idle connections, each after one round
// trip. Each costs both ends' read windows and a few small structures, not
// a frame buffer at either end.
func TestIdleConnectionHeap(t *testing.T) {
	addr := dialEcho(t)
	const conns = 16
	before := heapInuse()
	trs := make([]*MuxTransport, conns)
	for i := range trs {
		tr, err := DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		echo(t, tr, uint64(i), []byte{byte(i)})
		trs[i] = tr
	}
	per := (heapInuse() - before) / conns
	runtime.KeepAlive(trs)
	if per >= 64<<10 {
		t.Fatalf("an idle connection adds %d KB of HeapInuse, want < 64 KB", per>>10)
	}
	t.Logf("an idle connection adds %d KB of HeapInuse", per>>10)
}

// TestFramesAcrossReadWindow pipelines frames on both sides of the
// readers' window — one byte short of it, exactly it, one byte past it, and
// a megabyte past it — from several callers at once, so requests and
// answers of every size are in flight both ways together. Each size is hit
// exactly by the request's frame body and by the answer's. Every answer
// must come back byte-identical.
func TestFramesAcrossReadWindow(t *testing.T) {
	tr, err := DialTCP(dialEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reqOver := len((&Request{}).appendTo(nil))
	respOver := len((&Response{}).appendTo(nil))
	var lens []int
	for _, body := range []int{readWindow - 1, readWindow, readWindow + 1, 1<<20 + 1} {
		lens = append(lens, body-reqOver, body-respOver)
	}
	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 3; round++ {
				for _, i := range rng.Perm(len(lens)) {
					data := make([]byte, lens[i])
					rng.Read(data)
					echo(t, tr, uint64(g<<16|round<<8|i), data)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := tr.Stats(); st.Calls != callers*3*int64(len(lens)) {
		t.Fatalf("%d calls completed, want %d", st.Calls, callers*3*len(lens))
	}
}

// TestSessionKeepsNoLargeLogBatch commits a 6 MB large object whose pages
// ship whole in the commit's batch. The session keeps no batch buffer past
// maxPooledBuf once the commit is done, and the next, small transaction
// still commits.
func TestSessionKeepsNoLargeLogBatch(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 1024})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, _ := c.CreateFile("f")
	oid, _, err := c.CreateLarge(c.NewCluster(fid), 6<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LargeWriteAt(oid, bytes.Repeat([]byte{7}, 6<<20), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if cap(c.pending) > maxPooledBuf {
		t.Fatalf("the session keeps a %d KB log batch after a 6 MB commit", cap(c.pending)>>10)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := c.LargeReadAt(oid, got, 6<<20-3); err != nil || !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Fatalf("read back %v, %v", got, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// allocatedBy is the number of heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameReaderGrowsOnce reads a frame body larger than the reader's
// buffer: a 6 MB body costs under twice its size in allocations (25 MB in
// sixteen when it grew a megabyte at a time), and a 12-byte header that
// claims a 1 GB body with nothing after it costs the first 1 MB step only.
func TestFrameReaderGrowsOnce(t *testing.T) {
	frame := func(bodyLen int, body []byte) []byte {
		hdr := make([]byte, frameHdrSize)
		binary.LittleEndian.PutUint32(hdr, uint32(bodyLen+frameSeqSize))
		binary.LittleEndian.PutUint64(hdr[frameLenSize:], 7)
		return append(hdr, body...)
	}
	// The reader and the header buffer are made outside the measured call.
	r, hdr, scratch := new(bytes.Reader), make([]byte, frameHdrSize), new([]byte)
	read := func(src []byte) ([]byte, error) {
		r.Reset(src)
		_, n, err := readFrameHead(r, hdr)
		if err != nil {
			return nil, err
		}
		*scratch = nil
		return readFrameBody(r, scratch, n)
	}

	body := make([]byte, 6<<20)
	rand.New(rand.NewSource(1)).Read(body)
	src := frame(len(body), body)
	var got []byte
	var err error
	if n := allocatedBy(func() { got, err = read(src) }); n > 2*uint64(len(body)) {
		t.Errorf("reading a 6 MB body allocated %.1f MB, want at most 12", float64(n)/(1<<20))
	} else {
		t.Logf("reading a 6 MB body allocated %.1f MB", float64(n)/(1<<20))
	}
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read back %d bytes (%v), not the body", len(got), err)
	}

	// TotalAlloc is the process's: 64 KB of slack for what other
	// goroutines allocate meanwhile, far below a second step.
	lie := frame(maxFrame-frameSeqSize, nil)
	if n := allocatedBy(func() { _, err = read(lie) }); n > 1<<20+64<<10 {
		t.Errorf("a header claiming 1 GB allocated %d KB before any body byte came, want 1,024", n>>10)
	}
	if err == nil {
		t.Fatal("a body that never came was read")
	}
}
