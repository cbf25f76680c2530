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
		Members: []Member{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}},
	}
}

func TestShipPayloadRoundTrip(t *testing.T) {
	p := sampleShip()
	got, err := parseShip(p.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", p, got)
	}
	// Empty payload fields survive too (heartbeat frames).
	hb := &shipPayload{LeaderDurable: 9}
	got, err = parseShip(hb.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.LeaderDurable != 9 || len(got.Log) != 0 || got.Members != nil {
		t.Fatalf("heartbeat round trip: %+v", got)
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
	ship := sampleShip().marshal()
	for n := 0; n < len(ship); n++ {
		if _, err := parseShip(ship[:n]); err == nil {
			t.Fatalf("parseShip accepted a %d/%d-byte prefix", n, len(ship))
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
	f.Add(sampleShip().marshal())
	f.Add((&shipPayload{}).marshal())
	f.Add([]byte{})
	f.Add(sampleShip().marshal()[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseShip(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-marshal to an equivalent payload.
		q, err := parseShip(p.marshal())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if p.LeaderDurable != q.LeaderDurable || !bytes.Equal(p.Log, q.Log) {
			t.Fatalf("marshal/parse not stable: %+v vs %+v", p, q)
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
