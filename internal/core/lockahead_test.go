package core_test

import (
	"slices"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/oo7"
)

// lockCall is one OpLock as it crossed the wire: the demanded page, the pages
// of its lock-ahead list and the server's verdicts on them.
type lockCall struct {
	page     disk.PageID
	ahead    []uint32
	verdicts []byte
}

// recordLocks makes tr keep a record of every OpLock from now on.
func recordLocks(t *testing.T, tr *countingTransport) *[]lockCall {
	var calls []lockCall
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op != esm.OpLock {
			return nil
		}
		resp, err := tr.Transport.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := esm.PageEntryCount(req.Data)
		if err != nil {
			t.Fatal(err)
		}
		ahead := make([]uint32, n)
		for i := range ahead {
			ahead[i], _ = esm.PageEntry(req.Data, i)
		}
		calls = append(calls, lockCall{disk.PageID(req.Page), ahead, slices.Clone(resp.Data)})
		return resp
	}
	return &calls
}

// update sets the given leaves to v, in that order, in one transaction.
func (s *starSession) update(v uint32, leaves ...int) {
	s.t.Helper()
	s.must(s.st.Begin())
	for _, i := range leaves {
		s.write(i, v)
	}
	s.must(s.st.Commit())
}

func (s *starSession) write(i int, v uint32) {
	s.t.Helper()
	s.must(s.st.Space().WriteU32(s.leaf(i), v))
}

// pageOf returns the disk page of leaf i.
func (s *starSession) pageOf(i int) disk.PageID {
	s.t.Helper()
	return s.st.FindDesc(s.leaf(i)).Pid
}

func upTo(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestLockAheadHotT2BRoundTrips: a session that has just run T2B runs it again
// for a handful of round trips — the first write fault's lock request carries
// the rest of the last write set, and the window doubles as those locks are
// used — and still no byte of a page is logged before the server holds the
// page's exclusive lock for the transaction.
func TestLockAheadHotT2BRoundTrips(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	db, tr := coldSession(t, 0, core.Config{})
	locks := recordLocks(t, tr)
	want, err := oo7.T2(db, oo7.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	wrote := map[disk.PageID]bool{} // the first run locks one page per call
	for _, c := range *locks {
		if len(c.ahead) != 0 {
			t.Fatalf("a lock-ahead list of %d before the session ever wrote", len(c.ahead))
		}
		wrote[c.page] = true
	}
	first := tr.total()

	tr.reset()
	logged := map[disk.PageID]bool{}
	var lists []int
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op == esm.OpLock {
			lists = append(lists, len(req.Data)/esm.PageEntryBytes)
		}
		if req.Op != esm.OpLog && req.Op != esm.OpCommit {
			return nil
		}
		pl, err := esm.ReadPayload(req.Data)
		if err != nil {
			t.Fatal(err)
		}
		for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
			if pid := disk.PageID(rec.Page); wrote[pid] {
				logged[pid] = true
				if env.Srv.LockHeld(req.Tx, lock.PageRes(rec.Page)) != lock.Exclusive {
					t.Errorf("page %d logged before the server held its exclusive lock", pid)
				}
			}
		}
		return nil
	}
	got, err := oo7.T2(db, oo7.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("T2B made %d updates, %d the first time", got, want)
	}
	t.Logf("hot T2B over %d written pages: %d calls the first time, %d the second (lock-ahead lists %v)",
		len(wrote), first, tr.total(), lists)
	if n := tr.total(); n > 16 {
		t.Errorf("hot T2B took %d transport calls, want <= 16 (one lock per page: %d)", n, first)
	}
	if len(logged) != len(wrote) {
		t.Errorf("%d of the %d pages written were logged", len(logged), len(wrote))
	}
}

// TestLockAheadWasteShutsTheWindow: a transaction that writes one page of a
// 64-page previous write set is sent at most a window of locks it does not
// use; that shuts the window, and a demand for a page the shut window kept off
// the list is what opens it again.
func TestLockAheadWasteShutsTheWindow(t *testing.T) {
	const leaves = 64
	db := newStarOf(t, leaves)
	s := db.open()
	locks := recordLocks(t, s.tr)
	s.update(1, upTo(leaves)...)
	if len(*locks) != leaves {
		t.Fatalf("%d lock calls for the first %d-page update", len(*locks), leaves)
	}

	*locks = nil
	s.update(2, 5)
	if len(*locks) != 1 || len((*locks)[0].ahead) == 0 || len((*locks)[0].ahead) > 8 {
		t.Fatalf("one page of the last write set: lock calls %+v, want one with 1..8 entries", *locks)
	}
	asked := int64(len((*locks)[0].ahead))
	if out, used, wasted := s.st.Client().LocksAhead(); out != 0 || used != 0 || wasted != asked {
		t.Errorf("after it: %d outstanding, %d used, %d wasted; want 0, 0, %d", out, used, wasted, asked)
	}

	*locks = nil
	s.update(3, 5)
	if len(*locks) != 1 || len((*locks)[0].ahead) != 0 {
		t.Errorf("the transaction after it: lock calls %+v, want one without a list", *locks)
	}

	// Two full updates: the first has a one-page write set to go by, the
	// second the full one and a window that waste has shut.
	s.update(4, upTo(leaves)...)
	*locks = nil
	s.update(5, upTo(leaves)...)
	if first := (*locks)[0]; len(first.ahead) != 0 {
		t.Errorf("the shut window still sent a list of %d", len(first.ahead))
	}
	if n := len(*locks); n > 8 {
		t.Errorf("%d lock calls to rewrite %d pages; the window did not reopen", n, leaves)
	}
	if _, _, wasted := s.st.Client().LocksAhead(); wasted != asked {
		t.Errorf("%d locks wasted in all, want the first %d only", wasted, asked)
	}
	s.must(s.st.Begin())
	for i := 0; i < leaves; i++ {
		if v := s.value(i); v != 5 {
			t.Errorf("leaf %d = %d, want 5", i, v)
		}
	}
	s.must(s.st.Commit())
}

// TestLockAheadNeverWaitsForAPeer: an entry a peer holds is reported not
// granted and costs no wait; the page is locked, waiting if need be, when it
// is written.
func TestLockAheadNeverWaitsForAPeer(t *testing.T) {
	db := newStar(t)
	a, b := db.open(), db.open()
	b.update(1, upTo(starLeaves)...)
	a.update(2, 3)
	a.must(a.st.Begin())
	a.write(3, 10) // A holds leaf 3's page until it commits
	p3 := a.pageOf(3)

	before, err := b.st.Client().ServerStats()
	b.must(err)
	locks := recordLocks(t, b.tr)
	b.must(b.st.Begin())
	b.write(0, 20)
	for i, pid := range (*locks)[0].ahead {
		want := esm.LockAheadGranted
		if disk.PageID(pid) == p3 {
			want = esm.LockAheadRefused
		}
		if got := (*locks)[0].verdicts[i]; got != want {
			t.Errorf("entry %d (page %d): verdict %d, want %d", i, pid, got, want)
		}
	}
	if n := len((*locks)[0].ahead); n != starLeaves-1 {
		t.Fatalf("list of %d entries, want %d", n, starLeaves-1)
	}
	b.write(1, 20)
	b.write(2, 20)
	after, err := b.st.Client().ServerStats()
	b.must(err)
	if len(*locks) != 1 || after.LockWaits != before.LockWaits {
		t.Errorf("%d lock calls and %d waits for three pages, want 1 and 0", len(*locks), after.LockWaits-before.LockWaits)
	}
	if g, r := after.LockAheadGranted-before.LockAheadGranted, after.LockAheadRefused-before.LockAheadRefused; g != starLeaves-2 || r != 1 {
		t.Errorf("server counted %d granted, %d refused; want %d and 1", g, r, starLeaves-2)
	}

	a.must(a.st.Commit())
	// A demand lock of its own, by a store next to the value; A's commit
	// made B's copy stale.
	b.must(b.st.Space().WriteU32(b.leaf(3)+4, 1))
	if v := b.value(3); v != 10 {
		t.Errorf("B reads %d in leaf 3 under its lock, want A's 10", v)
	}
	b.write(3, 30)
	if len(*locks) != 2 || (*locks)[1].page != p3 || len((*locks)[1].ahead) != 0 {
		t.Errorf("lock calls %+v, want a second one for page %d alone", *locks, p3)
	}
	b.must(b.st.Commit())
	if out, used, wasted := b.st.Client().LocksAhead(); out != 0 || used != 2 || wasted != starLeaves-4 {
		t.Errorf("B: %d outstanding, %d used, %d wasted; want 0, 2, %d", out, used, wasted, starLeaves-4)
	}

	c := db.open()
	c.must(c.st.Begin())
	for i, want := range []uint32{20, 20, 20, 30, 1, 1, 1, 1} {
		if v := c.value(i); v != want {
			t.Errorf("leaf %d = %d at the end, want %d", i, v, want)
		}
	}
	c.must(c.st.Commit())
}

// TestLockAheadStaleEntryLosesNoUpdate is TestStaleLockGrantLosesNoUpdate with
// the stale page on the lock-ahead list: B caches and maps a counter's page, A
// increments the counter and commits, B write-faults another page and is
// granted the counter's lock along with it. The grant finds B's copy stale; B
// must see A's value from then on, and build its own increment on it.
func TestLockAheadStaleEntryLosesNoUpdate(t *testing.T) {
	for _, abort := range []bool{false, true} {
		db := newStar(t)
		a, b := db.open(), db.open()
		b.update(1, 0, 1)

		b.must(b.st.Begin())
		if v := b.value(1); v != 1 {
			t.Fatalf("B's first read = %d", v)
		}
		a.must(a.st.Begin())
		a.write(1, a.value(1)+1)
		a.must(a.st.Commit())

		locks := recordLocks(t, b.tr)
		b.write(0, 7)
		if len(*locks) != 1 || !slices.Equal((*locks)[0].verdicts, []byte{esm.LockAheadStale}) {
			t.Fatalf("lock calls %+v, want one whose single entry is granted stale", *locks)
		}
		if v := b.value(1); v != 2 {
			t.Fatalf("B reads %d under the lock it was granted ahead, want A's 2", v)
		}
		b.write(1, b.value(1)+1)
		if len(*locks) != 1 {
			t.Errorf("%d lock calls, want the one", len(*locks))
		}
		want := uint32(3)
		if abort {
			want = 2
			b.must(b.st.Abort())
		} else {
			b.must(b.st.Commit())
		}
		for name, s := range map[string]*starSession{"A": a, "B": b, "a fresh session": db.open()} {
			s.must(s.st.Begin())
			if v := s.value(1); v != want {
				t.Errorf("abort=%v: %s reads %d at the end, want %d", abort, name, v, want)
			}
			s.must(s.st.Commit())
		}
	}
}

// TestLockHeldIsAskedForOnce: a lock the transaction holds at sufficient
// strength is not asked for again, and every way a transaction ends — commit,
// abort, a commit that failed — forgets what it held.
func TestLockHeldIsAskedForOnce(t *testing.T) {
	tr := newCounting(newStar(t).srv)
	c := esm.NewClient(tr, esm.ClientConfig{})
	lockX := func(want int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := c.Lock(lock.KindPage, 7, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Lock(lock.KindPage, 7, lock.Shared); err != nil {
			t.Fatal(err)
		}
		if n := tr.calls[esm.OpLock]; n != want {
			t.Fatalf("%d lock calls so far, want %d", n, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Begin())
	must(c.Lock(lock.KindPage, 7, lock.Shared))
	must(c.Lock(lock.KindPage, 7, lock.Shared))
	lockX(2) // the shared lock, then its upgrade
	must(c.Commit())
	must(c.Begin())
	lockX(3)
	must(c.Abort())
	must(c.Begin())
	lockX(4)
	tr.before = func(req *esm.Request) *esm.Response {
		if req.Op != esm.OpCommit {
			return nil
		}
		// The commit fails; the server gives the transaction up.
		if _, err := tr.Transport.Call(&esm.Request{Op: esm.OpAbort, Tx: req.Tx}); err != nil {
			t.Fatal(err)
		}
		return &esm.Response{Err: "injected commit failure"}
	}
	if err := c.Commit(); err == nil {
		t.Fatal("the injected commit failure did not surface")
	}
	tr.before = nil
	must(c.Begin())
	lockX(5)
	must(c.Commit())
}

// TestExclusiveLockMarkDoesNotOutliveItsTransaction: B's write fault takes the
// hub page's lock, finds its copy stale and refreshes it, and the fault that
// maps the page back fails. The page was marked locked and never joined the
// transaction's write set; the mark must not carry into B's next transaction,
// whose update of the page has to ask for the lock.
func TestExclusiveLockMarkDoesNotOutliveItsTransaction(t *testing.T) {
	db := newStar(t)
	a, b := db.open(), db.open()
	counter := func(s *starSession) core.Ref {
		hub, err := s.st.Root("hub")
		s.must(err)
		return hub + 8*starLeaves
	}
	b.must(b.st.Begin())
	ctr := counter(b)
	_, err := b.st.Space().ReadU32(ctr)
	b.must(err)
	hubPage := b.st.FindDesc(ctr).Pid
	// Only the hub page stays in B's pool: the fault after the refresh has
	// to fetch the page of the hub page's mapping object.
	pool := b.st.Client().Pool()
	for i := 0; i < pool.Len(); i++ {
		if pid := pool.Frame(i).Page; pid != disk.InvalidPage && pid != hubPage {
			b.must(pool.Evict(i))
		}
	}
	a.must(a.st.Begin())
	a.must(a.st.Space().WriteU32(counter(a), 1))
	a.must(a.st.Commit())

	b.tr.before = func(req *esm.Request) *esm.Response {
		if req.Op == esm.OpReadPages && req.Mode&esm.ReadCheck == 0 && disk.PageID(req.Page) != hubPage {
			return &esm.Response{Err: "injected read failure"}
		}
		return nil
	}
	if err := b.st.Space().WriteU32(ctr, 2); err == nil {
		t.Fatal("the injected read failure did not surface")
	}
	if b.tr.calls[esm.OpLock] != 1 {
		t.Fatalf("%d lock calls before the failure, want 1", b.tr.calls[esm.OpLock])
	}
	b.tr.before = nil
	b.must(b.st.Abort())

	b.tr.reset()
	b.must(b.st.Begin())
	b.must(b.st.Space().WriteU32(counter(b), 2))
	if n := b.tr.calls[esm.OpLock]; n != 1 {
		t.Errorf("%d lock calls for the next transaction's update of the page, want 1", n)
	}
	b.must(b.st.Commit())
}
