package repl

import (
	"bytes"
	"reflect"
	"testing"

	"quickstore/internal/wal"
)

func sampleShip() *shipPayload {
	return &shipPayload{
		LeaderDurable: 4242,
		Log:           []byte("fifty-byte-header records would live here"),
		MembersVer:    7,
		Members: []Member{
			{ID: "n1", Addr: "127.0.0.1:7070"},
			{ID: "n2", Addr: "127.0.0.1:7071"},
			{ID: "n3", Addr: ""},
		},
	}
}

func sampleSnap(pageSize int) *snapPayload {
	mk := func(fill byte) []byte {
		b := make([]byte, pageSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	return &snapPayload{
		LogStart: 1001,
		Log:      []byte("log tail"),
		NumPages: 5,
		Pages: []pageImage{
			{ID: 1, Data: mk(0xAA)},
			{ID: 3, Data: mk(0x55)},
		},
		MembersVer: 3,
		Members:    []Member{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}},
	}
}

// sampleCut is sampleShip without its member list, carrying the leader's
// checkpoint cut.
func sampleCut() *shipPayload {
	p := sampleShip()
	p.Members, p.Cut, p.Through = nil, 3001, 4242
	return p
}

// TestShipPayloadRoundTrip: a frame with a member list, one without (what a
// follower holding the membership version gets), one carrying a cut and an
// empty heartbeat each parse back to what was encoded and re-encode to the
// same bytes. A frame without a list parses with no allocation, and bytes
// past the end of a frame are refused, as is a cut flag other than 1 or a
// cut with no durable end.
func TestShipPayloadRoundTrip(t *testing.T) {
	withList := sampleShip()
	bare := *withList
	bare.Members = nil
	for name, p := range map[string]*shipPayload{
		"with members":    withList,
		"without members": &bare,
		"with a cut":      sampleCut(),
		"heartbeat":       {LeaderDurable: 9, MembersVer: 2},
	} {
		frame := p.appendTo(nil)
		got, err := parseShip(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.LeaderDurable != p.LeaderDurable || !bytes.Equal(got.Log, p.Log) ||
			got.MembersVer != p.MembersVer || !reflect.DeepEqual(got.Members, p.Members) ||
			got.Cut != p.Cut || got.Through != p.Through {
			t.Fatalf("%s: round trip mismatch:\n  in  %+v\n  out %+v", name, p, got)
		}
		if again := got.appendTo(nil); !bytes.Equal(again, frame) {
			t.Fatalf("%s: a parsed frame re-encodes to %x, not %x", name, again, frame)
		}
		if _, err := parseShip(append(frame, 0)); err == nil {
			t.Fatalf("%s: a trailing byte was accepted", name)
		}
	}
	cut := sampleCut().appendTo(nil)
	flag := len(cut) - 17
	for name, bad := range map[string]func(b []byte){
		"a cut flag of 2":           func(b []byte) { b[flag] = 2 },
		"a cut with no durable end": func(b []byte) { clear(b[len(b)-8:]) },
	} {
		b := bytes.Clone(cut)
		bad(b)
		if _, err := parseShip(b); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
	frame := bare.appendTo(nil)
	if n := testing.AllocsPerRun(100, func() { _, _ = parseShip(frame) }); n != 0 {
		t.Fatalf("parsing a frame without members: %v allocs, want 0", n)
	}
	buf := make([]byte, 0, 2*len(frame))
	if n := testing.AllocsPerRun(100, func() { buf = bare.appendTo(buf[:0]) }); n != 0 {
		t.Fatalf("encoding a frame into a large enough buffer: %v allocs, want 0", n)
	}
}

func TestSnapPayloadRoundTrip(t *testing.T) {
	const pageSize = 64
	p := sampleSnap(pageSize)
	got, err := parseSnap(p.marshal(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, got)
	}
}

// TestTruncatedFramesRejected feeds every proper prefix of valid frames to
// the parsers: all must fail cleanly (no panic, no partial success), the
// snapshot frame in particular — its page images are the largest field and
// a truncated transfer must never install half a page set.
func TestTruncatedFramesRejected(t *testing.T) {
	const pageSize = 64
	bare := sampleShip()
	bare.Members = nil
	for _, ship := range [][]byte{sampleShip().appendTo(nil), bare.appendTo(nil), sampleCut().appendTo(nil)} {
		for n := 0; n < len(ship); n++ {
			if _, err := parseShip(ship[:n]); err == nil {
				t.Fatalf("parseShip accepted a %d/%d-byte prefix", n, len(ship))
			}
		}
	}
	snap := sampleSnap(pageSize).marshal(pageSize)
	for n := 0; n < len(snap); n++ {
		if _, err := parseSnap(snap[:n], pageSize); err == nil {
			t.Fatalf("parseSnap accepted a %d/%d-byte prefix", n, len(snap))
		}
	}
}

func TestStatusRoundTripAndErrors(t *testing.T) {
	st := &Status{ID: "n2", Role: "follower", Term: 4, Durable: 999, Leader: "n1"}
	got, err := ParseStatus(statusJSON(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("status round trip: %+v vs %+v", st, got)
	}
	e := notLeaderError("n1", "10.0.0.1:7070")
	if !IsNotLeader(e) {
		t.Fatalf("IsNotLeader(%q) = false", e)
	}
	if addr := leaderAddrFrom(e); addr != "10.0.0.1:7070" {
		t.Fatalf("leaderAddrFrom(%q) = %q", e, addr)
	}
	if leaderAddrFrom(notLeaderError("", "")) != "" {
		t.Fatal("election-pending redirect carried an address")
	}
	if !IsStaleTerm(staleTermError(1, 2)) {
		t.Fatal("IsStaleTerm missed its own error")
	}
}

func FuzzParseShip(f *testing.F) {
	bare := sampleShip()
	bare.Members = nil
	f.Add(sampleShip().appendTo(nil))
	f.Add(bare.appendTo(nil))
	f.Add((&shipPayload{}).appendTo(nil))
	f.Add([]byte{})
	f.Add(sampleShip().appendTo(nil)[:10])
	f.Add(sampleCut().appendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseShip(data)
		if err != nil {
			return
		}
		// Whatever parsed re-encodes to exactly the bytes it came from,
		// its cut and durable end included.
		if again := p.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("a parsed frame re-encodes to %x, not %x", again, data)
		}
		if p.Through == 0 && p.Cut != 0 {
			t.Fatalf("a frame parsed to a cut at %d with no durable end", p.Cut)
		}
		if len(p.Members) == 0 && p.Members != nil {
			t.Fatalf("a frame without members parsed to an empty, non-nil list")
		}
	})
}

func FuzzParseSnap(f *testing.F) {
	const pageSize = 64
	f.Add(sampleSnap(pageSize).marshal(pageSize))
	f.Add([]byte{})
	full := sampleSnap(pageSize).marshal(pageSize)
	f.Add(full[:len(full)/2]) // truncated mid page image
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseSnap(data, pageSize)
		if err != nil {
			return
		}
		for _, pg := range p.Pages {
			if len(pg.Data) != pageSize {
				t.Fatalf("page %d parsed with %d bytes", pg.ID, len(pg.Data))
			}
		}
		if _, err := parseSnap(p.marshal(pageSize), pageSize); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

// FuzzAppendRawShipped drives the follower-side splice with arbitrary
// chunks: AppendRaw must reject garbage without mutating the log.
func FuzzAppendRawShipped(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(1), bytes.Repeat([]byte{0x01}, 64))
	f.Fuzz(func(t *testing.T, start uint64, chunk []byte) {
		l := wal.NewMemLog()
		before := l.FlushedLSN()
		if err := l.AppendRaw(wal.LSN(start), chunk); err != nil {
			if l.FlushedLSN() != before {
				t.Fatal("failed AppendRaw mutated durable state")
			}
		}
	})
}
