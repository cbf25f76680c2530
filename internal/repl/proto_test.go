package repl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/pagedelta"
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

// sampleSnap is a snapshot of pageSize-byte pages, each a whole page, as
// marshalSnap takes them: one with no zero byte (raw on the wire), one
// holding a few bytes (sparse) and one all zero (an empty image).
func sampleSnap(pageSize int) *snapPayload {
	sparse := make([]byte, pageSize)
	copy(sparse[8:], "object")
	sparse[pageSize-1] = 0x7F
	return &snapPayload{
		NumPages: 5,
		Pages: []pageImage{
			{ID: 1, Data: wholePage(bytes.Repeat([]byte{0xAA}, pageSize))},
			{ID: 2, Data: wholePage(sparse)},
			{ID: 3, Data: wholePage(make([]byte, pageSize))},
		},
		LogStart:   1001,
		Log:        []byte("log tail"),
		MembersVer: 3,
		Members:    []Member{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}},
	}
}

// wholePage is page as an image of itself: raw, checked.
func wholePage(page []byte) pagedelta.Image {
	img, _, err := pagedelta.ReadSizedImage(pagedelta.AppendSized(nil, page), len(page))
	if err != nil {
		panic(err)
	}
	return img
}

// marshalSnap encodes p, whose Pages are whole pages, as the leader does.
func marshalSnap(p *snapPayload) []byte {
	dst := appendSnapHead(nil, p.NumPages, len(p.Pages))
	for _, pg := range p.Pages {
		dst = appendSnapPage(dst, pg.ID, pg.Data.Bytes())
	}
	return appendSnapTail(dst, p.LogStart, p.Log, p.MembersVer, p.Members)
}

// decodeSnap is a parsed p with each page image decoded to its whole page.
func decodeSnap(t testing.TB, p *snapPayload, pageSize int) *snapPayload {
	t.Helper()
	out := *p
	out.Pages = nil
	for _, pg := range p.Pages {
		page := make([]byte, pageSize)
		pg.Data.Apply(page)
		out.Pages = append(out.Pages, pageImage{ID: pg.ID, Data: wholePage(page)})
	}
	return &out
}

// badSnapImages are page images parseSnap must refuse, by what is wrong
// with them, for pageSize-byte pages.
func badSnapImages(pageSize int) map[string][]byte {
	run := func(off, n int, data ...byte) []byte {
		b := binary.LittleEndian.AppendUint16(nil, uint16(off))
		return append(binary.LittleEndian.AppendUint16(b, uint16(n)), data...)
	}
	return map[string][]byte{
		"a run past the page":       run(pageSize-1, 2, 1, 2),
		"overlapping runs":          append(run(4, 2, 1, 2), run(5, 1, 3)...),
		"an empty run":              run(4, 0),
		"a cut run":                 run(4, 3, 1, 2),
		"an image longer than page": make([]byte, pageSize+1),
	}
}

// snapWithImage is a snapshot frame whose second page carries img as its
// image.
func snapWithImage(pageSize int, img []byte) []byte {
	dst := appendSnapHead(nil, 4, 2)
	dst = appendSnapPage(dst, 1, bytes.Repeat([]byte{0x11}, pageSize))
	dst = pagedelta.AppendSized(appendU32(dst, 2), img)
	return appendSnapTail(dst, 1, nil, 1, []Member{{ID: "n1"}})
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

// TestSnapPayloadRoundTrip: a snapshot frame parses back to what was
// encoded, each page as its sparse image — the page itself when it has no
// zeros to lose, an empty image when it is all zero — that decodes to the
// page. A frame with a malformed image is refused, and a follower handed
// one writes no page and keeps its log.
func TestSnapPayloadRoundTrip(t *testing.T) {
	const pageSize = 64
	p := sampleSnap(pageSize)
	got, err := parseSnap(marshalSnap(p), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dec := decodeSnap(t, got, pageSize); !reflect.DeepEqual(p, dec) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, dec)
	}
	for i, want := range []int{pageSize, 4 + 6 + 4 + 1, 0} {
		if n := len(got.Pages[i].Data.Bytes()); n != want {
			t.Errorf("page %d travels in %d bytes, want %d", got.Pages[i].ID, n, want)
		}
	}

	for name, img := range badSnapImages(pageSize) {
		if _, err := parseSnap(snapWithImage(pageSize, img), pageSize); err == nil {
			t.Errorf("a snapshot with %s was accepted", name)
		}
	}
	vol, log := disk.NewMemVolume(), wal.NewMemLog()
	f := NewFollower(vol, log, testCfg("n2", 1, nil))
	defer f.Close()
	if err := vol.Grow(4); err != nil {
		t.Fatal(err)
	}
	before := make([]byte, disk.PageSize)
	for name, img := range badSnapImages(disk.PageSize) {
		resp := f.Handle(&esm.Request{Op: esm.OpReplSnapshot, Tx: 1, Name: "n1", Data: snapWithImage(disk.PageSize, img)})
		if resp.Err == "" {
			t.Fatalf("a follower installed a snapshot with %s", name)
		}
		for pid := disk.PageID(1); pid < 4; pid++ {
			if err := vol.ReadPage(pid, before); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, make([]byte, disk.PageSize)) {
				t.Fatalf("a snapshot with %s wrote page %d", name, pid)
			}
		}
		if log.FlushedLSN() != 1 {
			t.Fatalf("a snapshot with %s replaced the log", name)
		}
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
	snap := marshalSnap(sampleSnap(pageSize))
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

// FuzzParseSnap: arbitrary bytes never panic the snapshot parser; every
// page image of an accepted frame decodes to a page, and the decoded
// snapshot re-marshals to a frame that parses and decodes to the same
// pages. Sparse, raw, empty and malformed images are among the seeds.
func FuzzParseSnap(f *testing.F) {
	const pageSize = 64
	full := marshalSnap(sampleSnap(pageSize))
	f.Add(full)
	f.Add([]byte{})
	f.Add(full[:len(full)/2]) // truncated mid page image
	for _, img := range badSnapImages(pageSize) {
		f.Add(snapWithImage(pageSize, img))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseSnap(data, pageSize)
		if err != nil {
			return
		}
		dec := decodeSnap(t, p, pageSize)
		again, err := parseSnap(marshalSnap(dec), pageSize)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if redec := decodeSnap(t, again, pageSize); !reflect.DeepEqual(dec.Pages, redec.Pages) {
			t.Fatal("a re-marshaled snapshot decodes to other pages")
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
