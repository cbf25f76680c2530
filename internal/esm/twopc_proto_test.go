package esm

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"quickstore/internal/disk"
)

// TestTwoPCRequestRoundTrip exercises the wire shapes the shard Router
// actually sends: a participant prepare with a commit payload, the
// coordinator's decision carrying its part of the payload, the
// participant's verdict, and every OpResolveTx mode.
func TestTwoPCRequestRoundTrip(t *testing.T) {
	payload := make([]byte, 4+disk.PageSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cases := []Request{
		{Op: OpPrepare, Tx: 12, Page: 3, N: 77, Data: payload},
		{Op: OpCommitDecision, Tx: 77, Mode: DecisionCommit | DecisionCoord, Data: payload},
		{Op: OpCommitDecision, Tx: 12, Mode: DecisionCommit},
		{Op: OpResolveTx, Tx: 77, Mode: ResolveModeInquire},
		{Op: OpResolveTx, Tx: 77, Mode: ResolveModeForget},
		{Op: OpResolveTx, Mode: ResolveModeList},
	}
	for i, want := range cases {
		got, err := unmarshalRequest(want.marshal())
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
	// Inquiry outcomes ride Response.N; a list rides Response.Data.
	resps := []Response{
		{N: ResolveAborted},
		{N: ResolveCommitted},
		{N: ResolvePending},
		{Data: AppendResolveEntry(nil, 2, 9, 4)},
	}
	for i, want := range resps {
		got, err := unmarshalResponse(want.marshal())
		if err != nil {
			t.Fatalf("response %d: unmarshal: %v", i, err)
		}
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("response %d: round trip mismatch:\n got %+v\nwant %+v", i, *got, want)
		}
	}
}

func TestResolveEntriesRoundTrip(t *testing.T) {
	var wire []byte
	type entry struct {
		shard uint32
		coord uint64
		local uint64
	}
	entries := []entry{
		{0, 1, 2},
		{63, 1<<63 + 5, 0}, // localTx 0: a remembered decision, not a prepare
		{7, 42, 42},
	}
	for _, e := range entries {
		wire = AppendResolveEntry(wire, e.shard, e.coord, e.local)
	}
	if len(wire) != len(entries)*ResolveEntryBytes {
		t.Fatalf("wire size %d, want %d", len(wire), len(entries)*ResolveEntryBytes)
	}
	shards, coords, locals, err := ParseResolveEntries(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != len(entries) {
		t.Fatalf("parsed %d entries, want %d", len(shards), len(entries))
	}
	for i, e := range entries {
		if shards[i] != e.shard || coords[i] != e.coord || locals[i] != e.local {
			t.Errorf("entry %d: got (%d,%d,%d), want (%d,%d,%d)",
				i, shards[i], coords[i], locals[i], e.shard, e.coord, e.local)
		}
	}
	// The empty list is a valid payload with zero entries.
	if s, c, l, err := ParseResolveEntries(nil); err != nil || len(s)+len(c)+len(l) != 0 {
		t.Errorf("empty payload: %v (%d/%d/%d entries)", err, len(s), len(c), len(l))
	}
}

// TestResolveEntriesTruncated: every length that is not a whole number of
// entries must be rejected — a truncated list silently dropping an
// in-doubt transaction would leave it unresolved forever.
func TestResolveEntriesTruncated(t *testing.T) {
	wire := AppendResolveEntry(AppendResolveEntry(nil, 1, 2, 3), 4, 5, 6)
	for n := 0; n < len(wire); n++ {
		_, _, _, err := ParseResolveEntries(wire[:n])
		if n%ResolveEntryBytes == 0 && err != nil {
			t.Errorf("whole prefix of %d bytes rejected: %v", n, err)
		}
		if n%ResolveEntryBytes != 0 && err == nil {
			t.Errorf("torn prefix of %d bytes accepted", n)
		}
	}
}

// FuzzParseResolveEntries: arbitrary bytes never panic the parser, and
// anything it accepts re-encodes to the identical wire image.
func FuzzParseResolveEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResolveEntry(nil, 3, 9, 12))
	f.Add(make([]byte, ResolveEntryBytes-1))
	f.Add(make([]byte, 3*ResolveEntryBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		shards, coords, locals, err := ParseResolveEntries(data)
		if err != nil {
			if len(data)%ResolveEntryBytes == 0 {
				t.Fatalf("whole payload rejected: %v", err)
			}
			return
		}
		if len(shards) != len(coords) || len(coords) != len(locals) {
			t.Fatalf("ragged decode: %d/%d/%d", len(shards), len(coords), len(locals))
		}
		var again []byte
		for i := range shards {
			again = AppendResolveEntry(again, shards[i], coords[i], locals[i])
		}
		if !bytes.Equal(again, data) && !(len(data) == 0 && len(again) == 0) {
			t.Fatalf("re-encode drifted:\n got %x\nwant %x", again, data)
		}
	})
}

// TestMuxPrepareDupSeqPoisons: the 2PC frames share the multiplexed socket
// with everything else, so a duplicated response to a prepare must poison
// the connection — not ack a second, different prepare. A router seeing
// the poison treats the prepare vote as failed and aborts, which is the
// safe outcome.
func TestMuxPrepareDupSeqPoisons(t *testing.T) {
	tr := fakeServer(t, time.Second, func(conn net.Conn) {
		seq, req, err := readOneFrame(conn)
		if err != nil || req.Op != OpPrepare {
			return
		}
		frame := appendResponseFrame(nil, seq, &Response{N: 5})
		conn.Write(append(frame, frame...)) // vote delivered twice
	})
	resp, err := tr.Call(&Request{Op: OpPrepare, Tx: 1, Page: 0, N: 1, Data: nil})
	if err != nil || resp.N != 5 {
		t.Fatalf("prepare: resp=%+v err=%v", resp, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.Call(&Request{Op: OpCommitDecision, Tx: 1, Mode: DecisionCommit}); err != nil {
			wantBroken(t, err)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate prepare ack never poisoned the transport")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxResolveGarbagePayload: a torn ResolveModeList payload arriving
// over an otherwise healthy mux connection is a decode error at the
// resolve layer, not a transport fault — the connection stays usable.
func TestMuxResolveGarbagePayload(t *testing.T) {
	torn := make([]byte, ResolveEntryBytes+7)
	tr := fakeServer(t, time.Second, func(conn net.Conn) {
		seq, _, err := readOneFrame(conn)
		if err != nil {
			return
		}
		conn.Write(appendResponseFrame(nil, seq, &Response{Data: torn}))
		// Second call gets a well-formed empty list.
		seq, _, err = readOneFrame(conn)
		if err != nil {
			return
		}
		conn.Write(appendResponseFrame(nil, seq, &Response{}))
	})
	resp, err := tr.Call(&Request{Op: OpResolveTx, Mode: ResolveModeList})
	if err != nil {
		t.Fatalf("transport rejected a well-framed response: %v", err)
	}
	if _, _, _, err := ParseResolveEntries(resp.Data); err == nil {
		t.Fatal("torn resolve list accepted")
	}
	if resp, err := tr.Call(&Request{Op: OpResolveTx, Mode: ResolveModeList}); err != nil || len(resp.Data) != 0 {
		t.Fatalf("connection unusable after payload-level garbage: resp=%+v err=%v", resp, err)
	}
}
