package core_test

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/harness"
	"quickstore/internal/oo7"
	"quickstore/internal/prefetch"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// countingTransport counts what crosses the wire on behalf of one session:
// calls by op, reads of two pages or more (a pump's batches and demand reads
// with riders), reads of the root directory (page 1, which the cost model
// does not price), response bytes, and how often each page image was shipped
// whole to a read (Begin validation's repairs are not counted). before, if
// set, sees every request first and may answer it itself (a fault the test
// injects); lockahead_test.go uses it.
type countingTransport struct {
	esm.Transport
	clock    *sim.Clock // the session's, if coldSession opened it
	calls    map[esm.Op]int
	batches  int
	dirReads int
	bytesIn  int
	shipped  map[disk.PageID]int
	before   func(req *esm.Request) *esm.Response
}

func newCounting(srv *esm.Server) *countingTransport {
	return &countingTransport{Transport: esm.NewInProcTransport(srv),
		calls: map[esm.Op]int{}, shipped: map[disk.PageID]int{}}
}

func (c *countingTransport) Call(req *esm.Request) (*esm.Response, error) {
	c.calls[req.Op]++
	if c.before != nil {
		if resp := c.before(req); resp != nil {
			return resp, nil
		}
	}
	resp, err := c.Transport.Call(req)
	if err != nil {
		return resp, err
	}
	c.bytesIn += len(resp.Data)
	if req.Op == esm.OpReadPages && req.Mode&esm.ReadCheck == 0 {
		if len(req.Data) >= 2*esm.PageEntryBytes {
			c.batches++
		}
		if req.Page == 1 {
			c.dirReads++
		}
		img := make([]byte, disk.PageSize)
		for a := esm.ReadAnswers(req.Data, resp.Data); a.Next(); {
			if a.Answered && a.Kind == esm.PageFull && a.Apply(img) == nil {
				c.shipped[disk.PageID(a.Page)]++
			}
		}
	}
	return resp, err
}

func (c *countingTransport) reset() {
	clear(c.calls)
	clear(c.shipped)
	c.batches, c.dirReads, c.bytesIn = 0, 0, 0
}

func (c *countingTransport) total() int {
	n := 0
	for _, k := range c.calls {
		n += k
	}
	return n
}

func (c *countingTransport) pages() int {
	n := 0
	for _, k := range c.shipped {
		n += k
	}
	return n
}

func (c *countingTransport) shippedTwice() (pids []disk.PageID) {
	for pid, k := range c.shipped {
		if k > 1 {
			pids = append(pids, pid)
		}
	}
	return pids
}

// The OO7 small database is built once for the tests below; every test opens
// sessions of its own against a server whose cache it drops first.
var smallDB = sync.OnceValues(func() (*harness.Env, error) {
	return harness.Build(harness.SysQS, oo7.Small())
})

func coldSession(t *testing.T, pool int, cfg core.Config) (oo7.DB, *countingTransport) {
	t.Helper()
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Cold(); err != nil {
		t.Fatal(err)
	}
	tr := newCounting(env.Srv)
	tr.clock = sim.NewClock(sim.CostModel{})
	st, err := core.Open(esm.NewClient(tr, esm.ClientConfig{BufferPages: pool, Clock: tr.clock}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.reset()
	return oo7.NewQS(st, false), tr
}

func TestReadAheadColdT1RoundTrips(t *testing.T) {
	demand, dtr := coldSession(t, 0, core.Config{DemandPaging: true})
	want, err := oo7.T1(demand)
	if err != nil {
		t.Fatal(err)
	}
	db, tr := coldSession(t, 0, core.Config{})
	trips := func() int64 { return tr.clock.Count(sim.CtrClientRead) + tr.clock.Count(sim.CtrPrefetchBatch) }
	trips0 := trips()
	got, err := oo7.T1(db)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("T1 = %d with read-ahead, %d on demand", got, want)
	}
	// -exp prefetch tallies round trips as demand reads plus pumped batches:
	// a demand read that carries read-ahead is one of them, not two. The
	// root lookup's directory read is not a page fault and is not tallied.
	if n, reads := trips()-trips0, tr.calls[esm.OpReadPages]-tr.dirReads; n != int64(reads) {
		t.Errorf("the counters tally %d page-read round trips, the wire saw %d", n, reads)
	}
	t.Logf("cold T1: demand %d calls %d pages; read-ahead %d calls (%d batches) %d pages",
		dtr.total(), dtr.pages(), tr.total(), tr.batches, tr.pages())
	if n := tr.total(); n > 75 {
		t.Errorf("cold T1 took %d transport calls, want <= 75 (demand paging: %d)", n, dtr.total())
	}
	if reads := dtr.calls[esm.OpReadPages]; tr.pages() == 0 || dtr.pages() != reads {
		t.Fatalf("shipped %d pages with read-ahead, %d in %d demand reads: the tap misses images", tr.pages(), dtr.pages(), reads)
	}
	if twice := tr.shippedTwice(); len(twice) != 0 {
		t.Errorf("pages shipped more than once: %v", twice)
	}
	if tr.pages() > dtr.pages() {
		t.Errorf("read-ahead shipped %d pages, demand paging %d", tr.pages(), dtr.pages())
	}
}

// TestReadAheadSmallPoolFewerRoundTrips: a pool in steady-state replacement
// still reads ahead, each speculative page taking the frame the replacement
// policy would have given the next miss. A warm T1 on a 128-frame pool (the
// database is 722 pages) pays over a third fewer round trips than demand
// paging, for a few percent more bytes.
func TestReadAheadSmallPoolFewerRoundTrips(t *testing.T) {
	run := func(cfg core.Config) (calls, bytes, pages int) {
		db, tr := coldSession(t, 128, cfg)
		for i := 0; i < 2; i++ { // the first T1 fills the pool
			if _, err := oo7.T1(db); err != nil {
				t.Fatal(err)
			}
		}
		tr.reset()
		if _, err := oo7.T1(db); err != nil {
			t.Fatal(err)
		}
		return tr.total(), tr.bytesIn, tr.pages()
	}
	dc, db, dp := run(core.Config{DemandPaging: true})
	ac, ab, ap := run(core.Config{})
	t.Logf("warm T1 on a 128-frame pool: demand %d calls %d pages %d bytes; read-ahead %d calls %d pages %d bytes",
		dc, dp, db, ac, ap, ab)
	if ac > 1150 {
		t.Errorf("read-ahead made %d calls, want <= 1150 (demand paging: %d)", ac, dc)
	}
	if float64(ab) > 1.08*float64(db) {
		t.Errorf("read-ahead shipped %d bytes, more than 1.08 x demand paging's %d", ab, db)
	}
}

// TestReadAheadSmallPoolT2BMatchesDemandPaging: T2B on a 128-frame pool
// steals dirty pages mid-transaction, and read-ahead now evicts into such a
// pool too. It must change nothing that commits: the same updates, the same
// committed x values, and no speculative install ever writes a page back —
// speculation never steals.
func TestReadAheadSmallPoolT2BMatchesDemandPaging(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	// run commits one T2B and returns its update count, how much it raised the
	// committed x-sum, and how many dirty pages it stole.
	run := func(cfg core.Config) (updates int, dx int64, steals int) {
		if err := env.Cold(); err != nil {
			t.Fatal(err)
		}
		st, err := core.Open(esm.NewClient(esm.NewInProcTransport(env.Srv), esm.ClientConfig{BufferPages: 128}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool := st.Client().Pool()
		flush := pool.FlushFn
		pool.FlushFn = func(pid disk.PageID, data []byte) error {
			steals++
			if onStack("(*Pool).PutPrefetched") {
				t.Errorf("a speculative install wrote page %d back", pid)
			}
			return flush(pid, data)
		}
		db := oo7.NewQS(st, false)
		before := xSum(t, db)
		if updates, err = oo7.T2(db, oo7.VariantB); err != nil {
			t.Fatal(err)
		}
		return updates, xSum(t, db) - before, steals
	}
	du, ddx, dsteals := run(core.Config{DemandPaging: true})
	au, adx, asteals := run(core.Config{})
	t.Logf("T2B on a 128-frame pool: demand %d updates, x-sum +%d, %d steals; read-ahead %d updates, x-sum +%d, %d steals",
		du, ddx, dsteals, au, adx, asteals)
	if au != du || adx != ddx {
		t.Errorf("read-ahead: %d updates raised the x-sum by %d; demand paging: %d updates, %d", au, adx, du, ddx)
	}
	if asteals == 0 {
		t.Error("no dirty page was stolen: the pool is not under pressure")
	}
}

// xSum is the committed sum of every atomic part's x, read through the
// part-id index in a transaction of its own.
func xSum(t *testing.T, db oo7.DB) int64 {
	t.Helper()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	db.Index(oo7.IdxPartID).ScanInt(math.MinInt64, math.MaxInt64, func(_ int64, r oo7.Ref) bool {
		sum += int64(db.GetI32(r, oo7.TAtomicPart, oo7.APartX))
		return true
	})
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// onStack reports whether a function whose name ends in fn is a caller.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

func TestReadAheadSparseTraversalShipsLittle(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	demand, dtr := coldSession(t, 0, core.Config{DemandPaging: true})
	want, err := oo7.T7(demand, env.Params, 101)
	if err != nil {
		t.Fatal(err)
	}
	db, tr := coldSession(t, 0, core.Config{})
	got, err := oo7.T7(db, env.Params, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("T7 = %d with read-ahead, %d on demand", got, want)
	}
	t.Logf("cold T7: demand %d pages; read-ahead %d pages in %d calls", dtr.pages(), tr.pages(), tr.total())
	if n := tr.pages(); n == 0 || n > 64 {
		t.Errorf("cold T7 shipped %d pages, want 1..64 (demand paging: %d)", n, dtr.pages())
	}
}

// star is a hub object holding references to starLeaves leaf objects, each on
// a page of its own, so that the hub page's mapping object names every leaf
// page. A leaf is {value uint32}; the hub is an array of references followed
// by one plain word (a counter for tests that update the hub page itself).
const starLeaves = 8

type star struct {
	t   *testing.T
	srv *esm.Server
}

func newStar(t *testing.T) *star { return newStarOf(t, starLeaves) }

// newStarOf builds a star of n leaves.
func newStarOf(t *testing.T, n int) *star {
	t.Helper()
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{MVCC: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{}), core.Config{BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	cl := st.NewCluster()
	offs := make([]int, n)
	for i := range offs {
		offs[i] = 8 * i
	}
	hub, err := st.Alloc(cl, 8*n+8, offs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cl.Break()
		leaf, err := st.Alloc(cl, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Space().WriteU32(leaf, 100); err != nil {
			t.Fatal(err)
		}
		if err := st.Space().WriteU64(hub+core.Ref(8*i), uint64(leaf)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetRoot("hub", hub); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	return &star{t: t, srv: srv}
}

// starSession is one session on the star, counted on the wire and on a clock
// of its own.
type starSession struct {
	t     *testing.T
	st    *core.Store
	tr    *countingTransport
	clock *sim.Clock
}

func (s *star) open() *starSession { return s.openPool(0) }

// openPool opens a session whose client pool has the given number of frames
// (0: the default).
func (s *star) openPool(frames int) *starSession {
	s.t.Helper()
	tr := newCounting(s.srv)
	clock := sim.NewClock(sim.CostModel{})
	st, err := core.Open(esm.NewClient(tr, esm.ClientConfig{BufferPages: frames, Clock: clock}), core.Config{})
	if err != nil {
		s.t.Fatal(err)
	}
	return &starSession{t: s.t, st: st, tr: tr, clock: clock}
}

func (s *starSession) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// leaf returns the reference of leaf i, faulting the hub page in if need be.
func (s *starSession) leaf(i int) core.Ref {
	s.t.Helper()
	hub, err := s.st.Root("hub")
	s.must(err)
	ref, err := s.st.Space().ReadU64(hub + core.Ref(8*i))
	s.must(err)
	return core.Ref(ref)
}

func (s *starSession) value(i int) uint32 {
	s.t.Helper()
	v, err := s.st.Space().ReadU32(s.leaf(i))
	s.must(err)
	return v
}

func (s *starSession) setAll(v uint32) {
	s.t.Helper()
	s.must(s.st.Begin())
	for i := 0; i < starLeaves; i++ {
		s.must(s.st.Space().WriteU32(s.leaf(i), v))
	}
	s.must(s.st.Commit())
}

// TestReadAheadSnapshotSessionReadsOnDemand: inside a snapshot session a
// batch read would ship current images, which the snapshot read path then has
// to evict and fetch again as of the snapshot. Read-ahead is off there: every
// page crosses once, read as of the snapshot, and shows the snapshot's bytes also
// after a peer has committed over it.
func TestReadAheadSnapshotSessionReadsOnDemand(t *testing.T) {
	db := newStar(t)
	r, w := db.open(), db.open()
	r.must(r.st.BeginSnapshot())
	w.setAll(200)
	r.leaf(0) // the hub page is in; its mapping object names every leaf page
	for i := 0; i < starLeaves; i++ {
		if v := r.value(i); v != 100 {
			t.Errorf("leaf %d reads %d inside the snapshot, want 100", i, v)
		}
	}
	r.must(r.st.EndSnapshot())
	if n := r.tr.batches; n != 0 {
		t.Errorf("%d batch reads inside a snapshot session", n)
	}
	if n := r.tr.pages(); n < starLeaves {
		t.Errorf("%d pages shipped to the snapshot session, want one per leaf at least (%d)", n, starLeaves)
	}
	if twice := r.tr.shippedTwice(); len(twice) != 0 {
		t.Errorf("pages shipped more than once: %v", twice)
	}
	// A transaction on the same session reads ahead again, and current bytes.
	r.tr.reset()
	r.must(r.st.Begin())
	for i := 0; i < starLeaves; i++ {
		if v := r.value(i); v != 200 {
			t.Errorf("leaf %d reads %d after the snapshot, want 200", i, v)
		}
	}
	r.must(r.st.Commit())
	if n := r.tr.batches; n != 1 {
		t.Errorf("%d batch reads for the leaves of one hub, want 1", n)
	}
}

// TestReadAheadFramesStayCoherent: a frame that arrived in a batch carries
// its coherence token like one that arrived alone, so that when a peer
// commits over the page, Begin validation repairs it, and a lock grant over a
// still-speculative copy refreshes it before this session's write builds on
// it.
func TestReadAheadFramesStayCoherent(t *testing.T) {
	db := newStar(t)
	a, b := db.open(), db.open()

	a.must(a.st.Begin())
	for i := 0; i < starLeaves; i++ {
		if v := a.value(i); v != 100 {
			t.Fatalf("leaf %d = %d, want 100", i, v)
		}
	}
	a.must(a.st.Commit())
	if n := a.tr.pages(); n < starLeaves {
		t.Fatalf("the cold read shipped %d pages, want one per leaf at least (%d)", n, starLeaves)
	}
	if hits := a.clock.Count(sim.CtrPrefetchHit); hits != starLeaves {
		t.Fatalf("%d of %d leaves were read-ahead hits", hits, starLeaves)
	}
	b.setAll(200)
	a.tr.reset()
	a.must(a.st.Begin()) // validation repairs the eight frames in place
	for i := 0; i < starLeaves; i++ {
		if v := a.value(i); v != 200 {
			t.Errorf("leaf %d = %d in A's warm cache after B's commit, want 200", i, v)
		}
	}
	a.must(a.st.Commit())
	if n := a.tr.pages(); n != 0 {
		t.Errorf("%d whole pages refetched; validation should have repaired the frames", n)
	}

	// Mid-transaction: C holds leaf 3 as a speculative frame, B commits over
	// it, C write-faults the page and then increments the value. C's
	// exclusive grant finds the copy stale and refreshes it first.
	c := db.open()
	c.must(c.st.Begin())
	c.leaf(0)
	if out, _, _ := c.st.Client().Pool().Speculation(); out != starLeaves {
		t.Fatalf("%d speculative frames after the hub fault, want %d", out, starLeaves)
	}
	b.setAll(300)
	ref := c.leaf(3)
	c.must(c.st.Space().WriteU32(ref+4, 1))
	v, err := c.st.Space().ReadU32(ref)
	c.must(err)
	c.must(c.st.Space().WriteU32(ref, v+1))
	c.must(c.st.Commit())
	b.must(b.st.Begin())
	if got := b.value(3); got != 301 {
		t.Errorf("leaf 3 = %d after B's 300 and C's increment, want 301", got)
	}
	b.must(b.st.Commit())
}

// recordReads makes tr keep the entries of every live OpReadPages from now
// on, one list of pages per round trip.
func recordReads(tr *countingTransport) *[][]disk.PageID {
	var reads [][]disk.PageID
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op == esm.OpReadPages && req.Mode&esm.ReadCheck == 0 {
			n, _ := esm.PageEntryCount(req.Data)
			pids := make([]disk.PageID, n)
			for i := range pids {
				pid, _ := esm.PageEntry(req.Data, i)
				pids[i] = disk.PageID(pid)
			}
			reads = append(reads, pids)
		}
		return nil
	}
	return &reads
}

// leafPage returns the disk page of leaf i, faulting the hub page in if need
// be but not the leaf.
func (s *starSession) leafPage(i int) disk.PageID {
	s.t.Helper()
	return s.st.FindDesc(s.leaf(i)).Phys.Page
}

// queued splits the leaves of an n-leaf star by whether their pages are
// resident.
func (s *starSession) queued(n int) (resident, queued []int) {
	s.t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := s.st.Client().Pool().Lookup(s.leafPage(i)); ok {
			resident = append(resident, i)
		} else {
			queued = append(queued, i)
		}
	}
	return resident, queued
}

// TestDemandReadCarriesReadAhead: the hub names more leaves than the first
// window, so the hub's fault reads 8 of them ahead and queues the rest. A fault
// on a queued leaf is then one OpReadPages: the leaf first, and behind it the
// two oldest queued leaves, the room its demand opened in the window (a right
// hint used, and a miss the window caused). The leaf lands as a demand frame,
// used; the riders as speculative ones. A snapshot session reads the leaf
// alone, and riders that would evict must be worth a round trip of their own.
func TestDemandReadCarriesReadAhead(t *testing.T) {
	const leaves = 20
	db := newStarOf(t, leaves)
	a := db.open()
	reads := recordReads(a.tr)
	a.must(a.st.Begin())
	hot, cold := a.queued(leaves)
	if len(hot) != prefetch.InitialWindow || len(cold) != leaves-prefetch.InitialWindow {
		t.Fatalf("%d leaves read ahead with the hub, %d queued; want %d and %d", len(hot), len(cold), prefetch.InitialWindow, leaves-prefetch.InitialWindow)
	}
	want := [][]disk.PageID{{a.leafPage(cold[0]), a.leafPage(cold[1]), a.leafPage(cold[2])}}
	*reads = nil
	a.value(cold[0])
	if !slices.EqualFunc(*reads, want, slices.Equal) {
		t.Fatalf("the fault on queued leaf %d read %v, want %v", cold[0], *reads, want)
	}
	pool := a.st.Client().Pool()
	for k, pid := range want[0] {
		i, ok := pool.Lookup(pid)
		if !ok {
			t.Fatalf("page %d of the read is not resident", pid)
		}
		if spec := pool.Frame(i).Prefetched; spec != (k > 0) {
			t.Errorf("page %d (entry %d of the read) speculative = %v", pid, k, spec)
		}
	}
	for i := 0; i < leaves; i++ {
		if v := a.value(i); v != 100 {
			t.Errorf("leaf %d = %d, want 100", i, v)
		}
	}
	a.must(a.st.Commit())
	if twice := a.tr.shippedTwice(); len(twice) != 0 {
		t.Errorf("pages shipped more than once: %v", twice)
	}

	// A snapshot session reads on demand: one page per read, also when the
	// client is handed hints.
	r := db.open()
	reads = recordReads(r.tr)
	r.must(r.st.BeginSnapshot())
	p0, p1, p2 := r.leafPage(0), r.leafPage(1), r.leafPage(2)
	*reads = nil
	if _, err := r.st.Client().FetchPage(p0, p1, p2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		r.value(i)
	}
	r.must(r.st.EndSnapshot())
	for _, pids := range *reads {
		if len(pids) != 1 {
			t.Fatalf("a snapshot read carried %v", pids)
		}
	}
	if len(*reads) != leaves {
		t.Errorf("%d snapshot reads for %d leaves", len(*reads), leaves)
	}

	// A 12-frame pool: the hub, its mapping object and the first 8 leaves
	// leave 2 frames empty, and the pool bounds the window to 4, a third of
	// it. After 5 of the 8 are used the window has room for one: a queued
	// leaf takes an empty frame and a lone rider the other. After one more
	// use the pool is full and the room is one again: a lone rider saves no
	// round trip and would evict, so the next queued leaf goes alone.
	f := db.openPool(12)
	reads = recordReads(f.tr)
	f.must(f.st.Begin())
	hot, cold = f.queued(leaves)
	pool = f.st.Client().Pool()
	for _, i := range hot[:5] {
		f.value(i)
	}
	last := cold[len(cold)-1]
	want = [][]disk.PageID{{f.leafPage(last), f.leafPage(cold[0])}}
	*reads = nil
	f.value(last)
	if !slices.EqualFunc(*reads, want, slices.Equal) || pool.Empty() != 0 {
		t.Fatalf("queued leaf with 2 empty frames: read %v, %d frames empty; want %v, 0", *reads, pool.Empty(), want)
	}
	f.value(hot[5])
	last = cold[len(cold)-2]
	want = [][]disk.PageID{{f.leafPage(last)}}
	*reads = nil
	f.value(last)
	if !slices.EqualFunc(*reads, want, slices.Equal) {
		t.Fatalf("queued leaf into a full pool with room for one rider: read %v, want %v", *reads, want)
	}
	f.must(f.st.Commit())
}
