package esm

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

// allOps enumerates every defined protocol operation.
var allOps = []Op{
	OpBegin, OpCommit, OpAbort, OpWritePage, OpAllocPages,
	OpFreePages, OpLock, OpLog, OpCreateFile, OpOpenFile,
	OpCounter, OpCheckpoint, OpStats, OpReadPages,
	OpReplAppend, OpReplAck, OpReplSnapshot,
	OpBeginSnapshot, OpEndSnapshot,
	OpPrepare, OpCommitDecision, OpResolveTx,
}

// reservedOps are the retired page-read encodings: declared, named, and
// never sent — OpReadPages replaced all three.
var reservedOps = []Op{OpReadPage, OpSnapRead, OpValidatePages}

func TestOpStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range append(append([]Op(nil), allOps...), reservedOps...) {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no name (%q)", op, s)
		}
		if seen[s] {
			t.Errorf("duplicate op name %q", s)
		}
		seen[s] = true
	}
	if got := Op(200).String(); got != "Op(200)" {
		t.Errorf("out-of-range op name = %q", got)
	}
	srv, _ := lockAheadServer(t)
	for _, op := range reservedOps {
		if resp := srv.Handle(&Request{Op: op, Page: 1}); !strings.Contains(resp.Err, "unknown op") {
			t.Errorf("reserved op %v answered %+v, want an unknown-op error", op, resp)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{},
		{Op: OpBegin},
		{Op: OpReadPages, Tx: 42, Page: 7, Mode: ReadCheck, Data: AppendPageEntry(nil, 7, 99)},
		{Op: OpWritePage, Tx: 1, Page: 9, Data: bytes.Repeat([]byte{0xAB}, 8192)},
		{Op: OpLock, Tx: 3, Page: 11, Mode: 0x21},
		{Op: OpOpenFile, Name: "root/name with spaces \x00 and NULs"},
		{Op: OpCounter, Name: "ctr", N: 1<<63 + 17},
		{Op: OpCreateFile, Name: strings.Repeat("n", 65535), N: 5, Data: []byte{1, 2, 3}},
		{Op: OpReadPages, Tx: 9, N: 3, Data: AppendPageEntry(AppendPageEntry(nil, 1, 0), 2, 0)},
	}
	for _, op := range allOps {
		cases = append(cases, Request{Op: op, Tx: uint64(op), Page: uint32(op), N: uint64(op) * 3, Mode: uint8(op), Name: op.String(), Data: []byte(op.String())})
	}
	for i, want := range cases {
		got, err := unmarshalRequest(want.marshal())
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		// marshal encodes nil and empty Data identically.
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, *got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{},
		{Err: "esm: something broke"},
		{Page: 1234, N: 99},
		{Err: "e", Page: 1, N: 2, Data: []byte{9, 8, 7}},
		{Data: bytes.Repeat([]byte{0x5A}, 3*8192)},
		{Data: AppendAnswer([]byte{1, 0, 0, 0, 1}, 7, PageDelta, 0xBEEF, []byte{0, 0, 2, 0, 9, 9})},
		{N: 3, Mode: RespStale, Data: []byte{1, 0, 0, 0}},
	}
	for i, want := range cases {
		got, err := unmarshalResponse(want.marshal())
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, *got, want)
		}
	}
}

// TestUnmarshalTruncated feeds every proper prefix of valid messages to the
// decoders: all must fail cleanly, never panic, never succeed.
func TestUnmarshalTruncated(t *testing.T) {
	req := (&Request{Op: OpCreateFile, Tx: 1, Page: 2, N: 3, Mode: 4, Name: "abcdef", Data: []byte{1, 2, 3, 4, 5}}).marshal()
	for n := 0; n < len(req); n++ {
		if _, err := unmarshalRequest(req[:n]); err == nil {
			t.Errorf("request truncated to %d bytes decoded successfully", n)
		}
	}
	resp := (&Response{Err: "oops", Page: 1, N: 2, Data: []byte{1, 2, 3}}).marshal()
	for n := 0; n < len(resp); n++ {
		if _, err := unmarshalResponse(resp[:n]); err == nil {
			t.Errorf("response truncated to %d bytes decoded successfully", n)
		}
	}
}

// TestUnmarshalLyingLengths covers messages whose embedded lengths point past
// the end of the buffer.
func TestUnmarshalLyingLengths(t *testing.T) {
	req := (&Request{Op: OpOpenFile, Name: "abc"}).marshal()
	bad := append([]byte(nil), req...)
	bad[22] = 0xFF // nameLen low byte: name now claims to be longer than the buffer
	bad[23] = 0xFF
	if _, err := unmarshalRequest(bad); err == nil {
		t.Error("oversized nameLen accepted")
	}
	bad = append([]byte(nil), req...)
	bad[len(bad)-4] = 0xFF // dataLen: data claims bytes that are not there
	if _, err := unmarshalRequest(bad); err == nil {
		t.Error("oversized dataLen accepted")
	}
	resp := (&Response{Err: "x"}).marshal()
	bad = append([]byte(nil), resp...)
	bad[0] = 0xFF // errLen
	if _, err := unmarshalResponse(bad); err == nil {
		t.Error("oversized errLen accepted")
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpBegin},
		{Op: OpReadPages, Tx: 9, Page: 77, Data: AppendPageEntry(nil, 77, 0)},
		{Op: OpWritePage, Tx: 1, Page: 3, Data: bytes.Repeat([]byte{0x5C}, 8192)},
		{Op: OpCreateFile, Name: "root", N: 2, Data: []byte{1, 2, 3}},
	}
	var wire []byte
	for i, r := range reqs {
		wire = appendRequestFrame(wire, uint64(1000+i), &r)
	}
	rd := bytes.NewReader(wire)
	scratch := getBuf()
	defer putBuf(scratch)
	for i := range reqs {
		seq, body, err := readMuxFrame(rd, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint64(1000+i) {
			t.Fatalf("frame %d: seq = %d, want %d", i, seq, 1000+i)
		}
		got, err := unmarshalRequest(body)
		if err != nil {
			t.Fatalf("frame %d: unmarshal: %v", i, err)
		}
		want := reqs[i]
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("frame %d round trip mismatch:\n got %+v\nwant %+v", i, *got, want)
		}
	}
	if _, _, err := readMuxFrame(rd, scratch); err != io.EOF {
		t.Errorf("stream end: err = %v, want io.EOF", err)
	}

	// Responses take the same framing.
	resp := Response{Err: "e", Page: 4, N: 5, Data: []byte{6, 7}}
	rd = bytes.NewReader(appendResponseFrame(nil, 42, &resp))
	seq, body, err := readMuxFrame(rd, scratch)
	if err != nil || seq != 42 {
		t.Fatalf("response frame: seq=%d err=%v", seq, err)
	}
	got, err := unmarshalResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, resp) {
		t.Errorf("response round trip mismatch:\n got %+v\nwant %+v", *got, resp)
	}
}

func TestMuxFrameTruncated(t *testing.T) {
	whole := appendRequestFrame(nil, 7, &Request{Op: OpOpenFile, Name: "abc"})
	scratch := getBuf()
	defer putBuf(scratch)
	for n := 0; n < len(whole); n++ {
		if _, _, err := readMuxFrame(bytes.NewReader(whole[:n]), scratch); err == nil {
			t.Errorf("frame truncated to %d bytes read successfully", n)
		}
	}
	if _, _, err := readMuxFrame(bytes.NewReader(nil), scratch); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestMuxFrameBadLengths(t *testing.T) {
	scratch := getBuf()
	defer putBuf(scratch)
	// Header declares 2 GiB; readMuxFrame must refuse before allocating.
	over := []byte{0, 0, 0, 0x80}
	if _, _, err := readMuxFrame(bytes.NewReader(over), scratch); err == nil {
		t.Error("oversized frame accepted")
	}
	// Runt frames: length too small to even hold the seq word.
	for n := uint32(0); n < frameSeqSize; n++ {
		var hdr [frameLenSize]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		runt := append(hdr[:], make([]byte, 16)...)
		if _, _, err := readMuxFrame(bytes.NewReader(runt), scratch); err == nil {
			t.Errorf("runt frame (len %d) accepted", n)
		}
	}
}

// FuzzMuxFrameStream throws arbitrary byte streams at the frame reader and
// body decoders: whatever happens, no panic, and every frame it accepts
// must survive an encode round trip at both the request and the response
// interpretation of its body.
func FuzzMuxFrameStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRequestFrame(nil, 1, &Request{Op: OpBegin}))
	f.Add(appendResponseFrame(nil, 99, &Response{Err: "x", Data: []byte{1}}))
	f.Add(appendRequestFrame(appendRequestFrame(nil, 1, &Request{Op: OpReadPages, Page: 5, Data: AppendPageEntry(nil, 5, 0)}), 2, &Request{Op: OpCommit}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // empty body, seq only
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		scratch := getBuf()
		defer putBuf(scratch)
		for i := 0; i < 64; i++ {
			seq, body, err := readMuxFrame(rd, scratch)
			if err != nil {
				return
			}
			if req, err := unmarshalRequest(body); err == nil {
				again, _, err2 := readMuxFrame(bytes.NewReader(appendRequestFrame(nil, seq, req)), new([]byte))
				if err2 != nil || again != seq {
					t.Fatalf("re-framed request lost seq: %v (seq %d vs %d)", err2, again, seq)
				}
			}
			if resp, err := unmarshalResponse(body); err == nil {
				reEnc := appendResponseFrame(nil, seq, resp)
				_, body2, err2 := readMuxFrame(bytes.NewReader(reEnc), new([]byte))
				if err2 != nil {
					t.Fatalf("re-framed response unreadable: %v", err2)
				}
				resp2, err2 := unmarshalResponse(body2)
				if err2 != nil || !reflect.DeepEqual(resp, resp2) {
					t.Fatalf("response round trip drifted: %v\n got %+v\nwant %+v", err2, resp2, resp)
				}
			}
		}
	})
}

// FuzzUnmarshalResponse mirrors FuzzUnmarshalRequest for the response
// decoder the client demux loop runs on every inbound frame.
func FuzzUnmarshalResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Response{}).marshal())
	f.Add((&Response{Err: "seed", Page: 1, N: 2, Data: []byte{3}}).marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := unmarshalResponse(data)
		if err != nil {
			return
		}
		again, err := unmarshalResponse(resp.marshal())
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// FuzzUnmarshalRequest throws arbitrary bytes at the request decoder, and
// checks that everything it accepts survives a marshal/unmarshal round trip.
func FuzzUnmarshalRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Request{Op: OpBegin}).marshal())
	f.Add((&Request{Op: OpCreateFile, Name: "seed", Data: []byte{1, 2, 3}}).marshal())
	f.Add((&Request{Op: OpReadPages, N: 2, Data: AppendPageEntry(AppendPageEntry(nil, 1, 0), 2, 0)}).marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := unmarshalRequest(data)
		if err != nil {
			return
		}
		again, err := unmarshalRequest(req.marshal())
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", again, req)
		}
	})
}

// lockAheadServer is a fresh server with one open transaction, for throwing
// OpLock requests at.
func lockAheadServer(t testing.TB) (*Server, uint64) {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	return srv, srv.Handle(&Request{Op: OpBegin}).N
}

// TestLockAheadPayload: an OpLock without a list is byte for byte the request
// it always was and is answered without Data; with a list, the request
// survives the wire and is answered with one verdict per entry.
func TestLockAheadPayload(t *testing.T) {
	plain := &Request{Op: OpLock, Tx: 3, Page: 9, N: 77, Mode: uint8(lock.KindPage)<<4 | uint8(lock.Exclusive)}
	empty := *plain
	empty.Data = []byte{}
	if !bytes.Equal(plain.marshal(), empty.marshal()) {
		t.Error("an empty lock-ahead list changes the request's bytes")
	}

	srv, tx := lockAheadServer(t)
	req := &Request{Op: OpLock, Tx: tx, Page: 9, Mode: plain.Mode}
	if resp := srv.Handle(req); resp.Err != "" || resp.Data != nil {
		t.Fatalf("plain lock answered %+v", resp)
	}
	if resp := srv.Handle(&Request{Op: OpAllocPages, N: 12}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// Tokens a read handed out still stand: nothing has committed over these
	// pages. Token 0 vouches for nothing and is granted plainly; a made-up
	// token is no page's version (core's lock-ahead tests drive the stale
	// verdict end to end).
	for _, pid := range []uint32{10, 11} {
		req.Data = AppendPageEntry(req.Data, pid, readOne(t, srv, pid, 0).Token)
	}
	req.Data = AppendPageEntry(req.Data, 0xFFFFFFFF, 0)
	req.Data = AppendPageEntry(req.Data, 12, 36)
	wired, err := unmarshalRequest(req.marshal())
	if err != nil || !reflect.DeepEqual(wired, req) {
		t.Fatalf("request round trip: %+v, %v", wired, err)
	}
	resp := srv.Handle(wired)
	if want := []byte{LockAheadGranted, LockAheadGranted, LockAheadGranted, LockAheadStale}; resp.Err != "" || !bytes.Equal(resp.Data, want) {
		t.Fatalf("verdicts %v (err %q), want %v", resp.Data, resp.Err, want)
	}
	again, err := unmarshalResponse(resp.marshal())
	wire := Response{Err: resp.Err, Page: resp.Page, N: resp.N, Mode: resp.Mode, Data: resp.Data}
	if err != nil || !reflect.DeepEqual(*again, wire) {
		t.Fatalf("response round trip: %+v, %v", again, err)
	}

	// A ragged list is refused whole, before anything is locked.
	req.Page, req.Data = 20, append(AppendPageEntry(nil, 21, 0), 1)
	if resp := srv.Handle(req); resp.Err == "" {
		t.Error("ragged lock-ahead list accepted")
	}
	if srv.LockHeld(tx, lock.PageRes(20)) != 0 || srv.LockHeld(tx, lock.PageRes(21)) != 0 {
		t.Error("a refused request left locks behind")
	}
	// A list makes sense on page locks only.
	req.Mode, req.Data = uint8(lock.KindFile)<<4|uint8(lock.Shared), AppendPageEntry(nil, 21, 0)
	if resp := srv.Handle(req); resp.Err == "" {
		t.Error("lock-ahead list on a file lock accepted")
	}
}

// FuzzLockAheadRequest throws arbitrary lock-ahead lists at the server while a
// peer holds a few pages: the answer is an error or exactly one verdict per
// entry, a granted entry is held and one the peer holds never is, and the call
// comes back — no entry waits.
func FuzzLockAheadRequest(f *testing.F) {
	f.Add(uint32(1), uint64(0), []byte{})
	f.Add(uint32(1), uint64(5), AppendPageEntry(AppendPageEntry(nil, 2, 0), 3, 9))
	f.Add(uint32(0), uint64(0), AppendPageEntry(nil, 2, 1))
	f.Add(uint32(4), uint64(0), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, page uint32, token uint64, data []byte) {
		if page >= 2 && page < 4 {
			page += 2 // the demanded page may wait; keep it off the peer's
		}
		srv, tx := lockAheadServer(t)
		peer := srv.Handle(&Request{Op: OpBegin}).N
		for pid := uint32(2); pid < 4; pid++ {
			if err := srv.locks.Acquire(peer, lock.PageRes(pid), lock.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		mode := uint8(lock.KindPage)<<4 | uint8(lock.Exclusive)
		resp := srv.Handle(&Request{Op: OpLock, Tx: tx, Page: page, N: token, Mode: mode, Data: data})
		if resp.Err != "" {
			if len(data)%PageEntryBytes == 0 {
				t.Fatalf("well-formed list refused: %s", resp.Err)
			}
			return
		}
		if n, err := PageEntryCount(data); err != nil || n != len(resp.Data) {
			t.Fatalf("%d verdicts for a %d-byte list: %v", len(resp.Data), len(data), err)
		}
		for i := range resp.Data {
			pid, _ := PageEntry(data, i)
			held := srv.LockHeld(tx, lock.PageRes(pid)) == lock.Exclusive
			switch v := resp.Data[i]; {
			case v > LockAheadStale:
				t.Fatalf("entry %d: verdict %d", i, v)
			case (v != LockAheadRefused) != held && pid != page:
				t.Fatalf("entry %d (page %d): verdict %d, held %v", i, pid, v, held)
			case pid >= 2 && pid < 4 && v != LockAheadRefused:
				t.Fatalf("entry %d: the peer's page %d was granted", i, pid)
			}
		}
	})
}

// readMuxFrame reads one whole frame from r the way the connection readers
// do, head then body; the body aliases *scratch. The head is staged in
// scratch too: a local array would escape through the io.Reader and cost
// the framing tests an allocation per frame.
func readMuxFrame(r io.Reader, scratch *[]byte) (seq uint64, body []byte, err error) {
	if cap(*scratch) < frameHdrSize {
		*scratch = make([]byte, 0, 16<<10)
	}
	seq, n, err := readFrameHead(r, (*scratch)[:frameHdrSize])
	if err != nil {
		return 0, nil, err
	}
	body, err = readFrameBody(r, scratch, n)
	return seq, body, err
}
