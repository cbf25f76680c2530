package esm

import (
	"bytes"
	"net"
	"testing"
	"time"

	"quickstore/internal/disk"
)

// readOne reads pid from h with one OpReadPages request, presenting token,
// and returns the walk standing on its entry.
func readOne(t testing.TB, h Handler, pid uint32, token uint64) PageAnswers {
	t.Helper()
	entries := AppendPageEntry(nil, pid, token)
	resp := h.Handle(&Request{Op: OpReadPages, Page: pid, Data: entries})
	if resp.Err != "" {
		t.Fatalf("read of page %d: %s", pid, resp.Err)
	}
	a := ReadAnswers(entries, resp.Data)
	if !a.Next() {
		t.Fatalf("read of page %d: %v", pid, a.Err())
	}
	return a
}

// imageOf decodes the full image the answer a stands on carries, sparse or
// raw, into a page of its own.
func imageOf(t testing.TB, a PageAnswers) []byte {
	t.Helper()
	if !a.Answered || a.Kind != PageFull {
		t.Fatalf("page %d: answered %v with kind %d, want a full image", a.Page, a.Answered, a.Kind)
	}
	img := make([]byte, disk.PageSize)
	if err := a.Apply(img); err != nil {
		t.Fatal(err)
	}
	return img
}

// answer is one request entry's verdict, as a walk reports it.
type answer struct {
	page     uint32
	stale    bool
	answered bool
	kind     uint8
	token    uint64
	data     string
}

// walk collects every verdict of an answer walk and its error.
func walk(req, resp []byte) ([]answer, error) {
	var got []answer
	a := ReadAnswers(req, resp)
	for a.Next() {
		got = append(got, answer{a.Page, a.Stale, a.Answered, a.Kind, a.Token, string(a.Data)})
	}
	return got, a.Err()
}

// encode builds the request and the answer the verdicts describe.
func encode(want []answer) (req, resp []byte) {
	resp, bitmap := AppendAnswerHead(nil, len(want))
	for i, w := range want {
		req = AppendPageEntry(req, w.page, w.token)
		if w.stale {
			MarkStale(resp, bitmap, i)
		}
		if w.answered {
			resp = AppendAnswer(resp, w.page, w.kind, w.token, []byte(w.data))
		}
	}
	return req, resp
}

func TestValidateEntriesRoundTrip(t *testing.T) {
	var entries []byte
	wantPids := []uint32{1, 7, 0xFFFFFFFF}
	wantTokens := []uint64{0, 42, 1<<63 + 5}
	for i := range wantPids {
		entries = AppendPageEntry(entries, wantPids[i], wantTokens[i])
	}
	n, err := PageEntryCount(entries)
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	for i := 0; i < n; i++ {
		if pid, token := PageEntry(entries, i); pid != wantPids[i] || token != wantTokens[i] {
			t.Errorf("entry %d = (%d, %d), want (%d, %d)", i, pid, token, wantPids[i], wantTokens[i])
		}
	}
	if n, err := PageEntryCount(nil); n != 0 || err != nil {
		t.Errorf("empty list: %d, %v", n, err)
	}
	// Ragged payloads (not a multiple of the entry size) must be rejected.
	for cut := 1; cut < PageEntryBytes; cut++ {
		if _, err := PageEntryCount(entries[:len(entries)-cut]); err == nil {
			t.Errorf("ragged payload (cut %d) accepted", cut)
		}
	}
}

func TestValidateResponseRoundTrip(t *testing.T) {
	want := []answer{
		{page: 1, token: 9},
		{page: 2, stale: true, answered: true, kind: PageDelta, token: 77, data: "\x00\x00\x02\x00\x09\x09"},
		{page: 3, stale: true, token: 5}, // stale, unanswered: the client evicts it
		{page: 4, stale: true, answered: true, kind: PageFull, token: 78, data: string(bytes.Repeat([]byte{0xAB}, 64))},
		{page: 5, token: 10},
		{page: 8, stale: true, answered: true, kind: PageFull, token: 0}, // empty payload is legal on the wire
		{page: 8, stale: true, answered: true, kind: PageFull, token: 79, data: "x"},
		{page: 9, token: 11},
		{page: 10, stale: true, token: 6},
		{page: 11, token: 12},
	}
	got, err := walk(encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Zero entries round-trips too (a session with nothing resident).
	if got, err := walk(encode(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty answer: %v, %v", got, err)
	}
}

// TestValidateResponseLyingBitmap: an answer whose declared entry count
// disagrees with the request's must be rejected — a short bitmap silently
// passing entries off as current would turn a framing bug into a stale read.
func TestValidateResponseLyingBitmap(t *testing.T) {
	req, resp := encode([]answer{{page: 1, stale: true}, {page: 2}, {page: 3, stale: true}})
	if _, err := walk(req, resp); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 4, 64} {
		var other []byte
		for i := 0; i < n; i++ {
			other = AppendPageEntry(other, uint32(i+1), 0)
		}
		if _, err := walk(other, resp); err == nil {
			t.Errorf("answer to 3 entries accepted for a request of %d", n)
		}
	}
	// Declared count larger than the bitmap actually present.
	var big []byte
	for i := 0; i < 200; i++ {
		big = AppendPageEntry(big, uint32(i), 0)
	}
	bad := append([]byte(nil), resp...)
	bad[0] = 200 // claims 200 entries; only one bitmap byte follows
	if _, err := walk(big, bad); err == nil {
		t.Error("bitmap shorter than its declared entry count accepted")
	}
	// A request that is not a whole entry list has no answer.
	if _, err := walk(req[:len(req)-1], resp); err == nil {
		t.Error("ragged request accepted")
	}
}

// TestValidateResponseTruncatedRepairs: every proper prefix that cuts into
// an answer must fail cleanly — truncated heads, truncated payloads, and
// payload lengths that lie past the end of the buffer. A cut between two
// answers is a legal, shorter answer: the later stale entry is unanswered.
func TestValidateResponseTruncatedRepairs(t *testing.T) {
	want := []answer{
		{page: 1, stale: true, answered: true, kind: PageDelta, token: 5, data: "\x00\x00\x04\x00\x01\x02\x03\x04"},
		{page: 2, stale: true, answered: true, kind: PageFull, token: 6, data: string(bytes.Repeat([]byte{7}, 32))},
	}
	req, resp := encode(want)
	head := 4 + 1 // count + bitmap for 2 entries
	boundary := head + answerHeadBytes + len(want[0].data)
	for n := head + 1; n < len(resp); n++ {
		got, err := walk(req, resp[:n])
		if n == boundary {
			if err != nil || !got[0].answered || got[1].answered {
				t.Errorf("cut between answers: %+v, %v", got, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("answer truncated to %d bytes accepted", n)
		}
	}
	// An answer whose payload length points past the end of the buffer.
	bad := append([]byte(nil), resp...)
	bad[head+13] = 0xFF // first answer's length, low bytes
	bad[head+14] = 0xFF
	if _, err := walk(req, bad); err == nil {
		t.Error("answer with lying payload length accepted")
	}
	// An answer naming a page no stale entry asked for.
	bad = append([]byte(nil), resp...)
	bad[head] = 9
	if _, err := walk(req, bad); err == nil {
		t.Error("answer for an unrequested page accepted")
	}
}

// TestAnswerWalkAllocatesNothing: the client walks every answer it gets,
// one per page fault; the walk must not allocate.
func TestAnswerWalkAllocatesNothing(t *testing.T) {
	req, resp := encode([]answer{
		{page: 1, stale: true, answered: true, kind: PageFull, token: 5, data: string(make([]byte, 8192))},
		{page: 2, token: 6},
		{page: 3, stale: true, answered: true, kind: PageDelta, token: 7, data: "\x00\x00\x01\x00\x01"},
		{page: 4, stale: true, token: 8},
	})
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		a := ReadAnswers(req, resp)
		for a.Next() {
			if a.Answered {
				sink += len(a.Data)
			}
		}
		if a.Err() != nil {
			t.Fatal(a.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("answer walk: %.1f allocations, want 0", allocs)
	}
	_ = sink
}

func FuzzParseValidateResponse(f *testing.F) {
	_, seed := encode([]answer{
		{page: 1, stale: true, answered: true, kind: PageDelta, token: 5, data: "\x00\x00\x02\x00\x01\x02"},
		{page: 2},
	})
	f.Add(seed, 2)
	_, empty := encode(nil)
	f.Add(empty, 0)
	f.Add([]byte{200, 0, 0, 0}, 3)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			return
		}
		var req []byte
		for i := 0; i < n; i++ {
			req = AppendPageEntry(req, uint32(i+1), uint64(i))
		}
		got, err := walk(req, data)
		if err != nil {
			return
		}
		if len(got) != n {
			t.Fatalf("accepted answer walked %d entries of %d", len(got), n)
		}
		// Whatever decoded must re-encode to an answer that walks to the same
		// verdicts (the answer stream is self-delimiting).
		again, err := walk(encode(got))
		if err != nil {
			t.Fatalf("re-encoded answer failed to walk: %v", err)
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("entry %d: re-encoded %+v, decoded %+v", i, again[i], got[i])
			}
		}
	})
}

func FuzzParseValidateEntries(f *testing.F) {
	f.Add(AppendPageEntry(nil, 7, 42))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := PageEntryCount(data)
		if err != nil {
			return
		}
		var again []byte
		for i := 0; i < n; i++ {
			pid, token := PageEntry(data, i)
			again = AppendPageEntry(again, pid, token)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%d entries re-encode to different bytes", n)
		}
	})
}

// TestMuxDuplicateSeqPoisonsValidate: a duplicated response to a ReadCheck
// call is a framing violation like any other — the duplicate must poison
// the transport, and the retry layer must NOT replay the read against a
// poisoned stream in a way that delivers another call's bytes as verdicts.
func TestMuxDuplicateSeqPoisonsValidate(t *testing.T) {
	entries := AppendPageEntry(nil, 3, 99)
	reply, _ := AppendAnswerHead(nil, 1)
	tr := fakeServer(t, time.Second, func(conn net.Conn) {
		seq, _, err := readOneFrame(conn)
		if err != nil {
			return
		}
		frame := appendResponseFrame(nil, seq, &Response{Data: reply})
		conn.Write(append(frame, frame...)) // the same response, twice
	})
	req := &Request{Op: OpReadPages, Page: 3, Mode: ReadCheck, Data: entries}
	resp, err := tr.Call(req)
	if err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := walk(entries, resp.Data); err != nil {
		t.Fatalf("first response: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.Call(req); err != nil {
			wantBroken(t, err)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate seq never poisoned the transport")
		}
		time.Sleep(time.Millisecond)
	}
}
