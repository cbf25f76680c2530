package esm_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/page"
	"quickstore/internal/repl"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
)

// halfFullPage is a formatted slotted page whose objects fill half of it:
// object data from the front, the slot directory from the back, and the
// free gap between them zero.
func halfFullPage() []byte {
	img := make([]byte, disk.PageSize)
	p := page.Init(img, page.TypeSlotted)
	for k := 0; disk.PageSize-p.FreeSpace() < disk.PageSize/2; k++ {
		_, off, err := p.Insert(56)
		if err != nil {
			panic(err)
		}
		binary.LittleEndian.PutUint64(img[off:], uint64(k+1)*0x0101)
		copy(img[off+8:off+18], "atomicpart")
		binary.LittleEndian.PutUint64(img[off+24:], uint64(0x4000+k*8))
	}
	return img
}

// densePage is an image with no zero word: it has nothing to lose.
func densePage() []byte { return bytes.Repeat([]byte{0x5A}, disk.PageSize) }

// writePages commits imgs (past their 8-byte LSN headers, which the server
// stamps) onto fresh pages through tr, one logged update per page, and
// returns their ids and the commit's LSN.
func writePages(t *testing.T, tr esm.Transport, imgs ...[]byte) ([]disk.PageID, uint64) {
	t.Helper()
	c := esm.NewClient(tr, esm.ClientConfig{BufferPages: 8})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	first, err := c.AllocPages(len(imgs))
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]disk.PageID, len(imgs))
	for k, img := range imgs {
		pids[k] = first + disk.PageID(k)
		i, err := c.FetchPage(pids[k])
		if err != nil {
			t.Fatal(err)
		}
		data := c.PageData(i)
		old := bytes.Clone(data[8:])
		copy(data[8:], img[8:])
		c.LogUpdate(pids[k], 8, old, img[8:])
		if err := c.MarkDirty(pids[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return pids, c.LastSeenLSN()
}

// serverImages returns srv's images of pids as its volume holds them after
// a checkpoint.
func serverImages(t *testing.T, srv *esm.Server, pids []disk.PageID) [][]byte {
	t.Helper()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(pids))
	for k, pid := range pids {
		out[k] = make([]byte, disk.PageSize)
		if err := srv.Volume().ReadPage(pid, out[k]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkImages walks the answer to the entries pids and checks that every
// entry is answered with a full image that decodes to want's from byte from
// on: a sparse one (shorter than a page) for a page with zeros to lose, the
// raw image for the dense page (dense[k]). A follower rebuilds a page from
// the log records past its LSN header and leaves the header zero, so it is
// checked from byte 8, where the dense page has a zero word and ships sparse
// too.
func checkImages(t *testing.T, path string, from int, pids []disk.PageID, resp *esm.Response, entries []byte, want [][]byte, dense []bool) {
	t.Helper()
	if resp.Err != "" {
		t.Fatalf("%s: %s", path, resp.Err)
	}
	a := esm.ReadAnswers(entries, resp.Data)
	for k := range pids {
		if !a.Next() || !a.Answered || a.Kind != esm.PageFull {
			t.Fatalf("%s: page %d answered %v with kind %d (%v), want its full image", path, pids[k], a.Answered, a.Kind, a.Err())
		}
		switch {
		case dense[k] && from == 0 && len(a.Data) != disk.PageSize:
			t.Errorf("%s: the dense page %d shipped %d bytes, want it raw", path, pids[k], len(a.Data))
		case !dense[k] && len(a.Data) >= disk.PageSize:
			t.Errorf("%s: page %d shipped %d bytes, want fewer than a page", path, pids[k], len(a.Data))
		}
		got := bytes.Repeat([]byte{0xEE}, disk.PageSize)
		if err := a.Apply(got); err != nil {
			t.Fatalf("%s: page %d: %v", path, pids[k], err)
		}
		if !bytes.Equal(got[from:], want[k][from:]) {
			t.Errorf("%s: page %d decodes to an image that is not the server's", path, pids[k])
		}
	}
	if a.Next() || a.Err() != nil {
		t.Fatalf("%s: answer past its entries: %v", path, a.Err())
	}
}

// entriesOf is one OpReadPages entry per pid, each presenting token.
func entriesOf(pids []disk.PageID, token uint64) []byte {
	var e []byte
	for _, pid := range pids {
		e = esm.AppendPageEntry(e, uint32(pid), token)
	}
	return e
}

// answerTap hands every OpReadPages answer a session gets to check.
type answerTap struct {
	esm.Transport
	check func(req *esm.Request, resp *esm.Response)
	seen  int
}

func (a *answerTap) Call(req *esm.Request) (*esm.Response, error) {
	resp, err := a.Transport.Call(req)
	if err == nil && req.Op == esm.OpReadPages {
		a.seen++
		a.check(req, resp)
	}
	return resp, err
}

// TestFullAnswersShipSparseImages: a half-full slotted page ships as a
// sparse image — fewer bytes than a page — on every read path that answers
// with a whole image, and each decodes to the server's image: a demand fetch
// and a read-ahead batch (both into a session's frames), a ReadCheck repair,
// a snapshot read on the server, one on a follower, and a read through a
// two-shard router, which forwards the payload as it came. A page with no
// zeros ships raw on each of them but the follower (see checkImages).
func TestFullAnswersShipSparseImages(t *testing.T) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 64, MVCC: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(id string) repl.Config {
		return repl.Config{ID: id, Quorum: 2, HeartbeatInterval: 10 * time.Millisecond, QuorumTimeout: 5 * time.Second,
			Server: esm.ServerConfig{BufferPages: 64, MVCC: true}}
	}
	leader := repl.NewLeader(srv, cfg("n1"))
	followerLog := wal.NewMemLog()
	follower := repl.NewFollower(disk.NewMemVolume(), followerLog, cfg("n2"))
	leader.AddPeer("n2", "", follower.Transport())
	follower.AddPeer("n1", "", leader.Transport())
	t.Cleanup(func() {
		leader.Close()
		follower.Close()
	})

	pids, seen := writePages(t, leader.Transport(), halfFullPage(), densePage())
	want := serverImages(t, srv, pids)
	dense := []bool{false, true}
	all := entriesOf(pids, 0)

	// A demand fetch and a read-ahead batch, each landing in a session's
	// frames: the tap checks what crossed, the frames what was decoded.
	tap := &answerTap{Transport: esm.NewInProcTransport(srv)}
	c := esm.NewClient(tap, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for k, pid := range pids {
		tap.check = func(req *esm.Request, resp *esm.Response) {
			checkImages(t, "demand fetch", 0, pids[k:k+1], resp, req.Data, want[k:k+1], dense[k:k+1])
		}
		i, err := c.FetchPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.PageData(i), want[k]) {
			t.Errorf("demand fetch: the frame of page %d is not the server's image", pid)
		}
		if err := c.Pool().Evict(i); err != nil {
			t.Fatal(err)
		}
	}
	tap.check = func(req *esm.Request, resp *esm.Response) {
		checkImages(t, "read-ahead batch", 0, pids, resp, req.Data, want, dense)
	}
	if err := c.ReadAhead(pids); err != nil {
		t.Fatal(err)
	}
	for k, pid := range pids {
		i, ok := c.Pool().Lookup(pid)
		if !ok || !bytes.Equal(c.PageData(i), want[k]) {
			t.Errorf("read-ahead: page %d resident %v, its frame not the server's image", pid, ok)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if tap.seen != len(pids)+1 {
		t.Fatalf("the tap saw %d page reads, want %d", tap.seen, len(pids)+1)
	}

	// A ReadCheck entry whose token nothing can patch from is repaired whole.
	bogus := entriesOf(pids, 0x1234)
	checkImages(t, "ReadCheck repair", 0, pids, srv.Handle(&esm.Request{Op: esm.OpReadPages, Mode: esm.ReadCheck, Page: uint32(pids[0]), Data: bogus}), bogus, want, dense)

	// Snapshot reads on the server and on a follower, which rebuilds the
	// pages from its log.
	deadline := time.Now().Add(5 * time.Second)
	for followerLog.FlushedLSN() < leader.DurableLSN() {
		if time.Now().After(deadline) {
			t.Fatal("the follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range []struct {
		path string
		h    esm.Handler
		from int
	}{{"server snapshot read", srv, 0}, {"follower snapshot read", follower, 8}} {
		begin := n.h.Handle(&esm.Request{Op: esm.OpBeginSnapshot, N: seen})
		if begin.Err != "" {
			t.Fatalf("%s: begin: %s", n.path, begin.Err)
		}
		checkImages(t, n.path, n.from, pids, n.h.Handle(&esm.Request{Op: esm.OpReadPages, N: begin.N, Page: uint32(pids[0]), Data: all}), all, want, dense)
		n.h.Handle(&esm.Request{Op: esm.OpEndSnapshot, N: begin.N})
	}

	// Through a two-shard router, the pages living on shard 1.
	srvs := make([]*esm.Server, 2)
	trs := make([]esm.Transport, 2)
	for i := range srvs {
		if srvs[i], err = esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 16}); err != nil {
			t.Fatal(err)
		}
		trs[i] = esm.NewInProcTransport(srvs[i])
	}
	local, _ := writePages(t, trs[1], halfFullPage(), densePage())
	global := make([]disk.PageID, len(local))
	for k, pid := range local {
		global[k] = disk.PageID(shard.GlobalPage(1, uint32(pid)))
	}
	r, err := shard.NewRouter(trs, shard.Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	routed := entriesOf(global, 0)
	resp, err := r.Call(&esm.Request{Op: esm.OpReadPages, Page: uint32(global[0]), Data: routed})
	if err != nil {
		t.Fatal(err)
	}
	checkImages(t, "2-shard router", 0, global, resp, routed, serverImages(t, srvs[1], local), dense)
}

// TestCohFullBytesCountsFullPayloads: ServerStats.CohFullBytes grows by the
// payload bytes of the full answers a read ships, and CohFulls by their
// number: 100 pages of three shapes, read in batches of 16, every answer
// decoding to the page written.
func TestCohFullBytesCountsFullPayloads(t *testing.T) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 100
	first, err := srv.Volume().Allocate(pages)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([][]byte, pages)
	wantSparse := 0
	for k := range imgs {
		switch k % 3 {
		case 0:
			imgs[k] = halfFullPage()
			wantSparse++
		case 1:
			imgs[k] = densePage()
		default:
			wantSparse++
			imgs[k] = make([]byte, disk.PageSize)
			imgs[k][k] = byte(k)
		}
		binary.LittleEndian.PutUint64(imgs[k][8:], uint64(k+1))
		if err := srv.Volume().WritePage(first+disk.PageID(k), imgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() esm.ServerStats {
		c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 1})
		st, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	st0 := stats()
	shipped, sparse := 0, 0
	for lo := 0; lo < pages; lo += 16 {
		var pids []disk.PageID
		for k := lo; k < min(lo+16, pages); k++ {
			pids = append(pids, first+disk.PageID(k))
		}
		entries := entriesOf(pids, 0)
		resp := srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pids[0]), Data: entries})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		for a := esm.ReadAnswers(entries, resp.Data); a.Next(); {
			img := make([]byte, disk.PageSize)
			if !a.Answered || a.Kind != esm.PageFull || a.Apply(img) != nil || !bytes.Equal(img, imgs[a.Page-uint32(first)]) {
				t.Fatalf("page %d: not answered with its image", a.Page)
			}
			shipped += len(a.Data)
			if len(a.Data) < disk.PageSize {
				sparse++
			}
		}
		resp.Release()
	}
	st1 := stats()
	if n := st1.CohFulls - st0.CohFulls; n != pages {
		t.Errorf("CohFulls grew by %d, want %d", n, pages)
	}
	if n := st1.CohFullBytes - st0.CohFullBytes; n != int64(shipped) {
		t.Errorf("CohFullBytes grew by %d, the answers carried %d payload bytes", n, shipped)
	}
	if sparse != wantSparse {
		t.Errorf("%d sparse images of %d pages, want %d", sparse, pages, wantSparse)
	}
}

// payloadTap records every request that carries a commit payload: its op,
// its framed size and the length of each page image it ships.
type payloadTap struct {
	esm.Transport
	mu   sync.Mutex
	sent []shipped
}

type shipped struct {
	op     esm.Op
	bytes  int
	images map[disk.PageID]int
}

func (p *payloadTap) Call(req *esm.Request) (*esm.Response, error) {
	switch req.Op {
	case esm.OpLog, esm.OpCommit, esm.OpPrepare, esm.OpCommitDecision:
		pl, err := esm.ReadPayload(req.Data)
		if err != nil {
			return nil, err
		}
		s := shipped{op: req.Op, bytes: esm.FramedBytes(req), images: map[disk.PageID]int{}}
		for pid, _, img, ok := pl.Page(); ok; pid, _, img, ok = pl.Page() {
			s.images[disk.PageID(pid)] = len(img)
		}
		p.mu.Lock()
		p.sent = append(p.sent, s)
		p.mu.Unlock()
	}
	return p.Transport.Call(req)
}

// take returns what was recorded since the last take.
func (p *payloadTap) take() []shipped {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sent
	p.sent = nil
	return s
}

// dirtyWhole fetches pid into c's pool, lets fill write its frame and marks
// the frame dirty without declaring the change logged, so it ships whole.
// It returns the frame.
func dirtyWhole(t *testing.T, c *esm.Client, pid disk.PageID, fill func(data []byte)) []byte {
	t.Helper()
	i, err := c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	fill(c.PageData(i))
	if err := c.MarkDirty(pid); err != nil {
		t.Fatal(err)
	}
	return c.PageData(i)
}

// oneObject formats a slotted page holding one 128-byte object of v bytes.
func oneObject(t *testing.T, v byte) func(data []byte) {
	return func(data []byte) {
		p := page.Init(data, page.TypeSlotted)
		_, off, err := p.Insert(128)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[off:off+128], bytes.Repeat([]byte{v}, 128))
	}
}

// TestCommitShipsSparsePages: every whole page a commit payload carries
// travels as its sparse image and installs as the client's frame. (a) An
// unlogged frame holding one 128-byte object commits in a request under
// 512 bytes, and the server's page is the client's frame but for the LSN
// stamp. (b) A raw large-object page — dense, so raw on the wire too, or
// partly written — installs byte for byte, unstamped. (c) An all-zero page
// ships as an empty image. (d) A steal's OpLog carries the sparse page. (e)
// A cross-shard commit through a 2-shard router installs each shard's page
// as the client's frame but for the stamp, both halves shipping sparse.
func TestCommitShipsSparsePages(t *testing.T) {
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tap := &payloadTap{Transport: esm.NewInProcTransport(srv)}
	c := esm.NewClient(tap, esm.ClientConfig{BufferPages: 8})
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	first, err := c.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	obj, dense, part, zero := first, first+1, first+2, first+3
	frame := bytes.Clone(dirtyWhole(t, c, obj, oneObject(t, 0x6B)))
	tap.take()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	sent := tap.take()
	if len(sent) != 1 || sent[0].op != esm.OpCommit || sent[0].images[obj] >= 512 {
		t.Fatalf("(a) the commit sent %+v, want one OpCommit carrying page %d sparse", sent, obj)
	}
	if sent[0].bytes >= 512 {
		t.Fatalf("(a) a commit of one 128-byte object took a %d-byte request, want under 512", sent[0].bytes)
	}
	t.Logf("(a) one 128-byte object: a %d-byte request, its page image %d bytes", sent[0].bytes, sent[0].images[obj])
	got := serverImages(t, srv, []disk.PageID{obj})[0]
	if binary.LittleEndian.Uint64(got) == 0 || !bytes.Equal(got[8:], frame[8:]) {
		t.Fatalf("(a) the server's page (stamp %d) is not the client's frame", binary.LittleEndian.Uint64(got))
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	c.MarkRawPages(dense, 2)
	want := map[disk.PageID][]byte{
		dense: bytes.Clone(dirtyWhole(t, c, dense, func(data []byte) { copy(data, densePage()) })),
		part:  bytes.Clone(dirtyWhole(t, c, part, func(data []byte) { copy(data, bytes.Repeat([]byte{0x3C}, 3000)) })),
		zero:  bytes.Clone(dirtyWhole(t, c, zero, func([]byte) {})),
	}
	tap.take()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	sent = tap.take()
	if len(sent) != 1 {
		t.Fatalf("(b) the commit sent %+v, want one OpCommit", sent)
	}
	if n := sent[0].images; n[dense] != disk.PageSize || n[part] >= disk.PageSize/2 || n[zero] != 0 || len(n) != 3 {
		t.Fatalf("(b, c) page images of %v bytes, want %d raw, under %d and 0", n, disk.PageSize, disk.PageSize/2)
	}
	for pid, img := range want {
		if got := serverImages(t, srv, []disk.PageID{pid})[0]; pid != zero && !bytes.Equal(got, img) {
			t.Fatalf("(b) raw page %d did not install byte for byte", pid)
		} else if pid == zero && !bytes.Equal(got[8:], img[8:]) {
			t.Fatalf("(c) the all-zero page %d did not install as zeros", pid)
		}
	}

	// (d) A 2-frame pool holding two unlogged frames steals one to make room.
	s := esm.NewClient(tap, esm.ClientConfig{BufferPages: 2})
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	sp, err := s.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[disk.PageID][]byte{
		sp:     bytes.Clone(dirtyWhole(t, s, sp, oneObject(t, 0x21))),
		sp + 1: bytes.Clone(dirtyWhole(t, s, sp+1, oneObject(t, 0x22))),
	}
	tap.take()
	if _, err := s.FetchPage(sp + 2); err != nil {
		t.Fatal(err)
	}
	sent = tap.take()
	if len(sent) != 1 || sent[0].op != esm.OpLog || len(sent[0].images) != 1 {
		t.Fatalf("(d) the fetch sent %+v, want one OpLog stealing one page", sent)
	}
	for pid, n := range sent[0].images {
		if _, ok := frames[pid]; !ok || n >= 512 {
			t.Fatalf("(d) the steal shipped page %d in %d bytes, want one of %d and %d under 512", pid, n, sp, sp+1)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for pid, img := range frames {
		if got := serverImages(t, srv, []disk.PageID{pid})[0]; !bytes.Equal(got[8:], img[8:]) {
			t.Fatalf("(d) page %d is not the client's frame", pid)
		}
	}

	// (e) One page on each shard of a 2-shard router, committed together.
	srvs := make([]*esm.Server, 2)
	taps := make([]esm.Transport, 2)
	local := make([]disk.PageID, 2)
	for i := range srvs {
		if srvs[i], err = esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 16}); err != nil {
			t.Fatal(err)
		}
		if local[i], err = srvs[i].Volume().Allocate(1); err != nil {
			t.Fatal(err)
		}
		taps[i] = &payloadTap{Transport: esm.NewInProcTransport(srvs[i])}
	}
	r, err := shard.NewRouter(taps, shard.Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	x := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	defer x.Close()
	if err := x.Begin(); err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, 2)
	for i := range srvs {
		images[i] = bytes.Clone(dirtyWhole(t, x, disk.PageID(shard.GlobalPage(i, uint32(local[i]))), oneObject(t, byte(0x41+i))))
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := range srvs {
		carried := 0
		for _, s := range taps[i].(*payloadTap).take() {
			if n, ok := s.images[local[i]]; ok {
				carried++
				if n >= 512 {
					t.Fatalf("(e) shard %d's %v carried its page in %d bytes, want under 512", i, s.op, n)
				}
			}
		}
		if carried != 1 {
			t.Fatalf("(e) shard %d was sent its page %d times, want once", i, carried)
		}
		if got := serverImages(t, srvs[i], local[i:i+1])[0]; !bytes.Equal(got[8:], images[i][8:]) {
			t.Fatalf("(e) shard %d's page is not the client's frame", i)
		}
	}
}
