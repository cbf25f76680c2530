package esm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// transportFunc is a Transport made of one function.
type transportFunc func(*Request) (*Response, error)

func (f transportFunc) Call(req *Request) (*Response, error) { return f(req) }
func (f transportFunc) Close() error                         { return nil }

// switchTo returns a transport to whichever server *cur names when a call is
// made, as a failover or a restart behind one address would be.
func switchTo(cur **Server) Transport {
	return transportFunc(func(req *Request) (*Response, error) { return (*cur).Handle(req), nil })
}

// feedFixture is one server holding 1 KB objects spread over several pages,
// each object holding its index as a u64.
type feedFixture struct {
	srv   *Server
	oids  []OID
	pages []disk.PageID // the distinct pages, in creation order
}

func newFeedFixture(t *testing.T, objects int) *feedFixture {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	return seedFeedFixture(t, srv, objects)
}

func seedFeedFixture(t *testing.T, srv *Server, objects int) *feedFixture {
	t.Helper()
	fx := &feedFixture{srv: srv}
	c := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 64})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile("feed")
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewCluster(fid)
	for i := 0; i < objects; i++ {
		oid, data, err := c.CreateObject(cl, 1024)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(data, uint64(i))
		fx.oids = append(fx.oids, oid)
		if !slices.Contains(fx.pages, oid.Page) {
			fx.pages = append(fx.pages, oid.Page)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(fx.pages) < 4 {
		t.Fatalf("fixture spans %d pages, want at least 4", len(fx.pages))
	}
	return fx
}

// onPage returns the index of the first object on page pid.
func (fx *feedFixture) onPage(pid disk.PageID) int {
	for i, oid := range fx.oids {
		if oid.Page == pid {
			return i
		}
	}
	return -1
}

// readAll reads every object's value in one committed transaction.
func (fx *feedFixture) readAll(t *testing.T, c *Client) []uint64 {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, len(fx.oids))
	for i, oid := range fx.oids {
		data, _, err := c.ReadObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = binary.LittleEndian.Uint64(data)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return vals
}

// overwrite sets object i to val in c's open transaction (beginning one if
// none is open) and ships the change to the server as a log batch.
func (fx *feedFixture) overwrite(t *testing.T, c *Client, i int, val uint64) {
	t.Helper()
	if c.Tx() == 0 {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	data, off, frame, err := c.ReadObjectAt(fx.oids[i])
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:8]...)
	binary.LittleEndian.PutUint64(data, val)
	c.Pool().MarkDirtyLogged(frame)
	c.LogUpdate(fx.oids[i].Page, off, old, append([]byte(nil), data[:8]...))
	if err := c.FlushLog(); err != nil {
		t.Fatal(err)
	}
}

// agrees fails the test unless every tokened frame c holds is current at srv
// and byte-identical to the server's image past the page header.
func agrees(t *testing.T, c *Client, srv *Server) {
	t.Helper()
	img := make([]byte, disk.PageSize)
	for i := 0; i < c.Pool().Len(); i++ {
		f := c.Pool().Frame(i)
		if f.Page == disk.InvalidPage || f.LSN == 0 {
			continue
		}
		if !srv.coh.isCurrent(f.Page, f.LSN) {
			t.Errorf("page %d kept token %d, not current after Begin", f.Page, f.LSN)
		}
		if !srv.pool.Snapshot(f.Page, img) {
			if err := srv.vol.ReadPage(f.Page, img); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(f.Data[8:], img[8:]) {
			t.Errorf("page %d differs from the server's image after Begin", f.Page)
		}
	}
}

// checkedPages returns the pages of the tap's ReadCheck entries, sorted.
func checkedPages(m *wireTap) []disk.PageID {
	var out []disk.PageID
	for _, pid := range m.checked {
		out = append(out, disk.PageID(pid))
	}
	slices.Sort(out)
	return out
}

// TestBeginFeedRepairsOnlyChanged: A caches every page of the fixture; a
// writer changes k of them through each path that moves a page's version —
// a commit, an abort whose undo writes CLRs, a stolen install that aborts,
// and a 2PC commit decision. A's next Begin must ReadCheck exactly those k
// frames, and A must then read and hold what the server holds.
func TestBeginFeedRepairsOnlyChanged(t *testing.T) {
	cases := []struct {
		name string
		// write changes pages through b and returns the new object values.
		write func(t *testing.T, fx *feedFixture, b *Client, pages []disk.PageID) map[int]uint64
	}{
		{"commit", func(t *testing.T, fx *feedFixture, b *Client, pages []disk.PageID) map[int]uint64 {
			want := map[int]uint64{}
			for _, pid := range pages {
				i := fx.onPage(pid)
				want[i] = 1000 + uint64(i)
				fx.overwrite(t, b, i, want[i])
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			return want
		}},
		{"abort-undo", func(t *testing.T, fx *feedFixture, b *Client, pages []disk.PageID) map[int]uint64 {
			for _, pid := range pages {
				fx.overwrite(t, b, fx.onPage(pid), 666)
			}
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}
			return nil // the undo restored every committed value
		}},
		{"stolen-install-abort", func(t *testing.T, fx *feedFixture, b *Client, pages []disk.PageID) map[int]uint64 {
			if err := b.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, pid := range pages {
				_, _, frame, err := b.ReadObjectAt(fx.oids[fx.onPage(pid)])
				if err != nil {
					t.Fatal(err)
				}
				// The frame leaves the pool mid-transaction, whole and
				// unchanged: the install moves the version, not the bytes.
				b.Pool().MarkDirty(frame)
				if err := b.stealPage(pid, b.PageData(frame)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"2pc-decision", func(t *testing.T, fx *feedFixture, b *Client, pages []disk.PageID) map[int]uint64 {
			want := map[int]uint64{}
			for _, pid := range pages {
				i := fx.onPage(pid)
				want[i] = 2000 + uint64(i)
				fx.overwrite(t, b, i, want[i])
			}
			tx := b.Tx()
			if r := fx.srv.Handle(&Request{Op: OpCommitDecision, Tx: tx, Mode: DecisionCommit | DecisionCoord}); r.Err != "" {
				t.Fatal(r.Err)
			}
			return want
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFeedFixture(t, 48)
			tap := &wireTap{tr: NewInProcTransport(fx.srv)}
			a := NewClient(tap, ClientConfig{BufferPages: 64})
			b := NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 64})
			oracle := fx.readAll(t, a)
			fx.readAll(t, a) // A's horizon now postdates its own reads

			changed := []disk.PageID{fx.pages[1], fx.pages[len(fx.pages)-1]}
			slices.Sort(changed)
			for i, v := range tc.write(t, fx, b, changed) {
				oracle[i] = v
			}
			tap.checked = nil
			if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
				t.Errorf("A read %v, want %v", got, oracle)
			}
			if checked := checkedPages(tap); !slices.Equal(checked, changed) {
				t.Errorf("Begin checked pages %v, want exactly the changed %v of %d resident", checked, changed, len(fx.pages))
			}
			agrees(t, a, fx.srv)
		})
	}
}

// TestBeginFeedTooOld: a horizon the feed cannot answer — trimmed out of
// the ring, from before a restart, from another server whose epoch and feed
// position equal this one's — falls back to a ReadCheck of the whole
// resident set, and the session reads no stale value.
func TestBeginFeedTooOld(t *testing.T) {
	t.Run("ring-overflow", func(t *testing.T) {
		fx := newFeedFixture(t, 48)
		tap := &wireTap{tr: NewInProcTransport(fx.srv)}
		a := NewClient(tap, ClientConfig{BufferPages: 64})
		b := NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 64})
		oracle := fx.readAll(t, a)
		fx.readAll(t, a)
		// Every round writes one version per page: enough rounds carry the
		// ring past A's horizon.
		for round := uint64(1); fx.srv.coh.feedHead <= feedCap+uint64(len(fx.pages)); round++ {
			for _, pid := range fx.pages {
				i := fx.onPage(pid)
				oracle[i] = round<<32 | uint64(i)
				fx.overwrite(t, b, i, oracle[i])
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		st0 := cohStats(t, b)
		tap.checked = nil
		if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
			t.Fatalf("A read %v after the ring overflowed, want %v", got, oracle)
		}
		if len(tap.checked) != len(fx.pages) {
			t.Errorf("Begin checked %d frames, want the whole resident set of %d", len(tap.checked), len(fx.pages))
		}
		if st := cohStats(t, b); st.CohFeedStale != st0.CohFeedStale+1 {
			t.Errorf("CohFeedStale %d -> %d, want one too-old answer", st0.CohFeedStale, st.CohFeedStale)
		}
		// The fallback's horizon is good: the next Begin checks nothing.
		tap.checked = nil
		fx.readAll(t, a)
		if len(tap.checked) != 0 {
			t.Errorf("the Begin after the fallback checked %v", tap.checked)
		}
	})

	t.Run("restart", func(t *testing.T) {
		vol, logf := disk.NewMemVolume(), wal.NewMemLog()
		srv, err := NewServer(vol, logf, ServerConfig{BufferPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		fx := seedFeedFixture(t, srv, 48)
		cur := srv
		tap := &wireTap{tr: switchTo(&cur)}
		a := NewClient(tap, ClientConfig{BufferPages: 64})
		oracle := fx.readAll(t, a)
		fx.readAll(t, a)
		b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 64})
		i := fx.onPage(fx.pages[2])
		oracle[i] = 4242
		fx.overwrite(t, b, i, oracle[i])
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		srv2, err := OpenServer(vol, logf, ServerConfig{BufferPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		cur = srv2
		tap.checked = nil
		if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
			t.Fatalf("A read %v after the restart, want %v", got, oracle)
		}
		if len(tap.checked) != len(fx.pages) {
			t.Errorf("Begin checked %d frames after the restart, want all %d", len(tap.checked), len(fx.pages))
		}
		if st := cohStats(t, a); st.CohFeedStale != 1 {
			t.Errorf("CohFeedStale = %d at the restarted server, want 1", st.CohFeedStale)
		}
		agrees(t, a, srv2)
	})

	t.Run("twin-servers", func(t *testing.T) {
		// Two servers over identical fresh volumes, seeded alike: equal
		// epochs, equal tokens, equal feed positions. Each then takes one
		// commit on a different page, so their feeds still stand at the same
		// seq while their pages differ.
		fxs := [2]*feedFixture{newFeedFixture(t, 48), newFeedFixture(t, 48)}
		if e0, e1 := fxs[0].srv.coh.epoch, fxs[1].srv.coh.epoch; e0 != e1 {
			t.Fatalf("twin epochs differ: %#x, %#x", e0, e1)
		}
		if fxs[0].srv.coh.feedID == fxs[1].srv.coh.feedID {
			t.Fatal("two servers drew the same feed id")
		}
		changed := [2]int{fxs[0].onPage(fxs[0].pages[1]), fxs[1].onPage(fxs[1].pages[2])}
		for k, fx := range fxs {
			b := NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 64})
			fx.overwrite(t, b, changed[k], uint64(7000+k))
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if h0, h1 := fxs[0].srv.coh.feedHead, fxs[1].srv.coh.feedHead; h0 != h1 {
			t.Fatalf("twin feeds stand at %d and %d", h0, h1)
		}
		cur := fxs[0].srv
		tap := &wireTap{tr: switchTo(&cur)}
		a := NewClient(tap, ClientConfig{BufferPages: 64})
		fxs[0].readAll(t, a)
		fxs[0].readAll(t, a) // A's horizon: twin 0's head, which is twin 1's too

		cur = fxs[1].srv
		tap.checked = nil
		oracle := make([]uint64, len(fxs[1].oids))
		for i := range oracle {
			oracle[i] = uint64(i)
		}
		oracle[changed[1]] = 7001
		if got := fxs[1].readAll(t, a); !slices.Equal(got, oracle) {
			t.Fatalf("A read %v at the twin, want %v", got, oracle)
		}
		if len(tap.checked) != len(fxs[1].pages) {
			t.Errorf("Begin checked %d frames at the twin, want all %d", len(tap.checked), len(fxs[1].pages))
		}
		agrees(t, a, fxs[1].srv)
	})

	t.Run("too-many-changed", func(t *testing.T) {
		c := newCohState(0)
		h, ok := c.feedSince(nil, make([]byte, HorizonBytes), validateChunk)
		if ok || len(h) != HorizonBytes {
			t.Fatalf("a none horizon answered ok=%v with %d bytes", ok, len(h))
		}
		c.mu.Lock()
		for pid := disk.PageID(1); pid <= validateChunk; pid++ {
			c.setVerLocked(pid, 10)
		}
		c.mu.Unlock()
		if out, ok := c.feedSince(nil, h, validateChunk); !ok || len(out) != HorizonBytes+validateChunk*PageEntryBytes {
			t.Fatalf("%d changed pages: ok=%v, %d bytes", validateChunk, ok, len(out))
		}
		c.mu.Lock()
		c.setVerLocked(validateChunk+1, 11)
		c.mu.Unlock()
		if out, ok := c.feedSince(nil, h, validateChunk); ok || len(out) != HorizonBytes {
			t.Fatalf("%d changed pages: ok=%v, %d bytes, want too old", validateChunk+1, ok, len(out))
		}
		// A page written twice since is listed once, with its newest token.
		now, _ := c.feedSince(nil, h, validateChunk+1)
		c.mu.Lock()
		c.setVerLocked(3, 12)
		c.setVerLocked(3, 13)
		c.mu.Unlock()
		out, ok := c.feedSince(nil, now[:HorizonBytes], validateChunk)
		if !ok || len(out) != HorizonBytes+PageEntryBytes {
			t.Fatalf("a page written twice: ok=%v, %d bytes", ok, len(out))
		}
		if pid, tok := PageEntry(out[HorizonBytes:], 0); pid != 3 || tok != 13 {
			t.Fatalf("a page written twice listed as (%d, %d), want (3, 13)", pid, tok)
		}
		// A horizon ahead of the feed is not this feed's.
		ahead := binary.LittleEndian.AppendUint64(slices.Clone(out[:8]), c.feedHead+1)
		if _, ok := c.feedSince(nil, ahead, validateChunk); ok {
			t.Fatal("a horizon ahead of the feed was answered")
		}
	})
}

// TestHotBeginOneRoundTrip: with a warm 519-frame pool and no writer about, a
// transaction costs two calls — Begin and Commit — and its Begin under 128
// framed bytes. Checking the resident set instead would add a ReadCheck call
// of 12 bytes per frame (≈ 6.2 KB).
func TestHotBeginOneRoundTrip(t *testing.T) {
	const frames = 519
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tap, ClientConfig{BufferPages: 600})
	first, err := c.AllocPages(frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < frames; p++ {
		if _, err := c.FetchPage(first + disk.PageID(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		calls0, begin0 := tap.calls, tap.beginBytes
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := tap.calls - calls0; n != 2 {
			t.Errorf("round %d: Begin+Commit took %d calls, want 2", round, n)
		}
		if n := tap.beginBytes - begin0; n >= 128 {
			t.Errorf("round %d: Begin moved %d framed bytes, want < 128", round, n)
		}
	}
	if n := c.Pool().Resident(); n != frames {
		t.Fatalf("%d frames resident, want %d", n, frames)
	}
}

// TestHotRootNoRoundTrip: a warm session reads a root from its copy of the
// root directory, which Begin's change feed vouched for, so Begin, GetRoot
// and Commit are two calls, and the read allocates nothing. When another
// session commits a new root, the next Begin checks the copy in its one
// ReadCheck (page 1 alone) and GetRoot sees the new root without a call of
// its own; the session's own SetRoot leaves its copy warm. None of it
// charges the cost model a page read, a log record or a lock: the 1994 model
// priced no root.
func TestHotRootNoRoundTrip(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 64, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{tr: NewInProcTransport(srv)}
	c := NewClient(tap, ClientConfig{BufferPages: 16, Clock: clock})
	set := func(s *Client, oid OID) {
		t.Helper()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := s.SetRoot("r", oid, 7); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// round reads root r in a transaction of its own and returns its calls.
	round := func(want OID) int64 {
		t.Helper()
		calls0 := tap.calls
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if got, aux, err := c.GetRoot("r"); err != nil || got != want || aux != 7 {
			t.Fatalf("root r = %v/%d, %v; want %v/7", got, aux, err, want)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		return tap.calls - calls0
	}
	set(NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8, Clock: clock}), OID{Page: 5})
	if n := round(OID{Page: 5}); n != 3 {
		t.Errorf("cold: Begin, GetRoot, Commit took %d calls, want 3 (the directory read)", n)
	}
	for i := 0; i < 3; i++ {
		if n := round(OID{Page: 5}); n != 2 {
			t.Errorf("warm round %d: Begin, GetRoot, Commit took %d calls, want 2", i, n)
		}
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.GetRoot("r") }); n != 0 {
		t.Errorf("a warm root read allocates %.1f times, want 0", n)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	set(NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 8, Clock: clock}), OID{Page: 6})
	checked0 := len(tap.checked)
	if n := round(OID{Page: 6}); n != 3 {
		t.Errorf("after another session's SetRoot: %d calls, want 3 (Begin, its ReadCheck, Commit)", n)
	}
	if got := tap.checked[checked0:]; len(got) != 1 || got[0] != uint32(dirPage) {
		t.Errorf("the Begin checked pages %v, want the directory alone", got)
	}
	set(c, OID{Page: 8})
	if n := round(OID{Page: 8}); n != 2 {
		t.Errorf("after the session's own SetRoot: %d calls, want 2", n)
	}
	for _, ctr := range []sim.Counter{sim.CtrClientRead, sim.CtrServerBufferHit, sim.CtrServerDiskRead,
		sim.CtrLogRecord, sim.CtrLogByte, sim.CtrLockUpgrade} {
		if n := clock.Count(ctr) + clock.SharedCount(ctr); n != 0 {
			t.Errorf("the root reads and edits charged %v %d times, want 0", ctr, n)
		}
	}
}

// TestBeginRechecksPinnedStaleFrame: a changed frame Begin's check could not
// repair while it was pinned — here the server's read of the page failed —
// stays flagged Stale, and the next Begin checks it again although the
// change feed has nothing new to report.
func TestBeginRechecksPinnedStaleFrame(t *testing.T) {
	hook := &transientReadHook{}
	srv, err := NewServer(disk.WithHook(disk.NewMemVolume(), hook), wal.NewMemLog(), ServerConfig{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	fx := seedFeedFixture(t, srv, 48)
	tap := &wireTap{tr: NewInProcTransport(srv)}
	a := NewClient(tap, ClientConfig{BufferPages: 64})
	b := NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 64})
	oracle := fx.readAll(t, a)
	fx.readAll(t, a)
	pid := fx.pages[1]
	i := fx.onPage(pid)
	oracle[i] = 9090
	fx.overwrite(t, b, i, oracle[i])
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.DropCaches(); err != nil {
		t.Fatal(err)
	}
	hook.mu.Lock()
	hook.pid, hook.fails = uint32(pid), 1
	hook.mu.Unlock()
	frame, _ := a.Pool().Lookup(pid)
	a.Pin(frame)
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if !a.Pool().Frame(frame).Stale {
		t.Fatal("the pinned frame the check could not repair is not flagged Stale")
	}
	a.Unpin(frame)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	tap.checked = nil
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if got := checkedPages(tap); !slices.Equal(got, []disk.PageID{pid}) {
		t.Errorf("the next Begin checked %v, want the Stale frame's page %d", got, pid)
	}
	if f := a.Pool().Frame(frame); f.Page != pid || f.Stale {
		t.Errorf("frame %d holds page %d, Stale %v after the next Begin", frame, f.Page, f.Stale)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
		t.Fatalf("A read %v, want %v", got, oracle)
	}
	agrees(t, a, srv)
}

// TestBeginMalformedFeedFallsBack: a Begin answer whose feed is malformed —
// a short head, a list that is not whole entries, an invalid page id, more
// entries than one ReadCheck takes — is not used: the session checks its
// whole resident set, repairs what a writer changed, and keeps no horizon.
func TestBeginMalformedFeedFallsBack(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"short-head", func(data []byte) []byte { return data[:HorizonBytes-3] }},
		{"partial-entry", func(data []byte) []byte { return append(data, 1, 2, 3, 4, 5) }},
		{"invalid-page", func(data []byte) []byte { return AppendPageEntry(data, uint32(disk.InvalidPage), 1) }},
		{"too-many", func(data []byte) []byte {
			for i := 0; i <= validateChunk; i++ {
				data = AppendPageEntry(data, uint32(1<<20+i), 1)
			}
			return data
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFeedFixture(t, 48)
			mangle := false
			tap := &wireTap{tr: transportFunc(func(req *Request) (*Response, error) {
				resp := fx.srv.Handle(req)
				if req.Op == OpBegin && mangle {
					resp.Data = tc.mangle(slices.Clone(resp.Data))
				}
				return resp, nil
			})}
			a := NewClient(tap, ClientConfig{BufferPages: 64})
			b := NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 64})
			oracle := fx.readAll(t, a)
			fx.readAll(t, a)
			i := fx.onPage(fx.pages[1])
			oracle[i] = 5151
			fx.overwrite(t, b, i, oracle[i])
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			mangle = true
			tap.checked = nil
			if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
				t.Fatalf("A read %v through a malformed feed, want %v", got, oracle)
			}
			if len(tap.checked) != len(fx.pages) {
				t.Errorf("Begin checked %d frames, want the whole resident set of %d", len(tap.checked), len(fx.pages))
			}
			if a.horizon != [HorizonBytes]byte{} {
				t.Error("a malformed answer's horizon was kept")
			}
			agrees(t, a, fx.srv)
		})
	}
}

// TestBeginFailedCheckKeepsNoHorizon: a Begin whose ReadCheck fails has not
// brought the listed frames up to date, so the session must not keep the
// answer's horizon: after an abort, the next Begin presents none and checks
// the whole resident set.
func TestBeginFailedCheckKeepsNoHorizon(t *testing.T) {
	fx := newFeedFixture(t, 48)
	fail := false
	tap := &wireTap{tr: transportFunc(func(req *Request) (*Response, error) {
		if fail && req.Op == OpReadPages && req.Mode&ReadCheck != 0 {
			fail = false
			return &Response{Err: "injected check failure"}, nil
		}
		return fx.srv.Handle(req), nil
	})}
	a := NewClient(tap, ClientConfig{BufferPages: 64})
	b := NewClient(NewInProcTransport(fx.srv), ClientConfig{BufferPages: 64})
	oracle := fx.readAll(t, a)
	fx.readAll(t, a)
	i := fx.onPage(fx.pages[1])
	oracle[i] = 3131
	fx.overwrite(t, b, i, oracle[i])
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := a.Begin(); err == nil {
		t.Fatal("Begin succeeded over a failed ReadCheck")
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	tap.checked = nil
	if got := fx.readAll(t, a); !slices.Equal(got, oracle) {
		t.Fatalf("A read %v after a failed check, want %v", got, oracle)
	}
	if len(tap.checked) != len(fx.pages) {
		t.Errorf("the Begin after a failed check checked %d frames, want all %d", len(tap.checked), len(fx.pages))
	}
}

// TestBeginFeedRequestShapes: a Begin without a horizon gets the bare
// transaction id (the shard router's request, and older callers'), a horizon
// of the wrong size is refused, and a "none" horizon gets the current horizon
// under RespStale without counting as a too-old answer.
func TestBeginFeedRequestShapes(t *testing.T) {
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r := srv.Handle(&Request{Op: OpBegin}); r.Err != "" || r.N == 0 || r.Mode != 0 || len(r.Data) != 0 {
		t.Errorf("bare Begin answered %+v, want the transaction id alone", r)
	}
	for _, n := range []int{1, HorizonBytes - 1, HorizonBytes + 1} {
		if r := srv.Handle(&Request{Op: OpBegin, Data: make([]byte, n)}); r.Err == "" {
			t.Errorf("a %d-byte horizon was accepted", n)
		}
	}
	r := srv.Handle(&Request{Op: OpBegin, Data: make([]byte, HorizonBytes)})
	if r.Err != "" || r.Mode != RespStale || len(r.Data) != HorizonBytes {
		t.Errorf("a none horizon answered %+v, want the horizon alone under RespStale", r)
	}
	if n := srv.cohFeedStale.Load(); n != 0 {
		t.Errorf("a none horizon counted %d too-old answers", n)
	}
}
