package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

func TestIDTranslation(t *testing.T) {
	cases := []struct {
		shard int
		local uint32
	}{
		{0, 0}, {0, 1}, {0, localMask}, {1, 0}, {1, 42}, {3, localMask}, {MaxShards - 1, 7},
	}
	for _, c := range cases {
		g := GlobalPage(c.shard, c.local)
		if ShardOfPage(g) != c.shard || LocalPage(g) != c.local {
			t.Fatalf("page round trip (%d,%d) -> %d -> (%d,%d)", c.shard, c.local, g, ShardOfPage(g), LocalPage(g))
		}
		gf := GlobalFile(c.shard, c.local)
		if ShardOfFile(gf) != c.shard || LocalFile(gf) != c.local {
			t.Fatalf("file round trip (%d,%d) -> %d", c.shard, c.local, gf)
		}
	}
	// Shard 0 ids are the identity: a one-shard cluster is bit-for-bit an
	// unsharded deployment.
	if GlobalPage(0, 12345) != 12345 || LocalPage(12345) != 12345 {
		t.Fatal("shard 0 encoding is not the identity")
	}
}

func TestParseMap(t *testing.T) {
	m, err := ParseMap("a:1,b:1|b:2|b:3, c:1")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 3 {
		t.Fatalf("NumShards = %d", m.NumShards())
	}
	if _, err := ParseMap("a,,b"); err == nil {
		t.Fatal("empty endpoint accepted")
	}
}

func TestNameRouting(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		for _, name := range []string{"oo7", "bench.0", "bench.1", "x"} {
			s := ShardOfName(name, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOfName(%q,%d) = %d", name, n, s)
			}
			if s != ShardOfName(name, n) {
				t.Fatal("non-deterministic name hash")
			}
		}
		for target := 0; target < n; target++ {
			name := NameOnShard("home", target, n)
			if got := ShardOfName(name, n); got != target {
				t.Fatalf("NameOnShard(home,%d,%d) = %q lands on %d", target, n, name, got)
			}
		}
	}
}

// newCluster builds n in-proc shard servers and a Router over them.
func newCluster(t *testing.T, n int, cfg Config) ([]*esm.Server, *Router) {
	t.Helper()
	srvs := make([]*esm.Server, n)
	trs := make([]esm.Transport, n)
	for i := range srvs {
		srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		trs[i] = esm.NewInProcTransport(srv)
	}
	r, err := NewRouter(trs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srvs, r
}

// makeObject creates one committed object holding val, in a file whose
// name (and, via affinity, whose pages) live on the given shard.
func makeObject(t *testing.T, trs []esm.Transport, shard, nShards int, val byte) (esm.OID, string) {
	t.Helper()
	name := NameOnShard(fmt.Sprintf("obj.%d", shard), shard, nShards)
	return makeNamedObject(t, trs, shard, name, val), name
}

// makeNamedObject is makeObject with the file (and root) name chosen by
// the caller; name must hash to shard.
func makeNamedObject(t *testing.T, trs []esm.Transport, shard int, name string, val byte) esm.OID {
	t.Helper()
	r, err := NewRouter(trs, Config{Affinity: shard})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	fid, err := c.CreateFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if ShardOfFile(fid) != shard {
		t.Fatalf("file %q got id %d on shard %d, want %d", name, fid, ShardOfFile(fid), shard)
	}
	oid, data, err := c.CreateObject(c.NewCluster(fid), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = val
	}
	if ShardOfPage(uint32(oid.Page)) != shard {
		t.Fatalf("object page %d allocated on shard %d, want %d", oid.Page, ShardOfPage(uint32(oid.Page)), shard)
	}
	if err := c.SetRoot(name, oid, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

// update rewrites the first 8 bytes of the object through an open session.
func update(t *testing.T, c *esm.Client, oid esm.OID, val byte) {
	t.Helper()
	data, off, frame, err := c.ReadObjectAt(oid)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:8]...)
	nw := bytes.Repeat([]byte{val}, 8)
	copy(data, nw)
	c.Pool().MarkDirty(frame)
	c.LogUpdate(oid.Page, off, old, nw)
}

func readVal(t *testing.T, trs []esm.Transport, oid esm.OID) byte {
	t.Helper()
	r, err := NewRouter(trs, Config{Affinity: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	v := data[0]
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return v
}

func transports(srvs []*esm.Server) []esm.Transport {
	trs := make([]esm.Transport, len(srvs))
	for i, s := range srvs {
		trs[i] = esm.NewInProcTransport(s)
	}
	return trs
}

func TestSingleShardFastPath(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: 0})
	trs := transports(srvs)
	oid, _ := makeObject(t, trs, 0, 2, 0xAA)

	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid, 0xBB)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.SingleCommits != 1 || st.CrossCommits != 0 || st.Prepares != 0 {
		t.Fatalf("stats = %+v, want one single-shard fast-path commit", st)
	}
	if got := readVal(t, trs, oid); got != 0xBB {
		t.Fatalf("value = %#x", got)
	}
	for i, s := range srvs {
		if s.InDoubtCount() != 0 || s.DecisionCount() != 0 {
			t.Fatalf("shard %d left 2PC state: indoubt=%d decisions=%d", i, s.InDoubtCount(), s.DecisionCount())
		}
	}
}

func TestCrossShardCommit(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: -1})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)

	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid0, 0x33)
	update(t, c, oid1, 0x44)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.CrossCommits != 1 || st.Prepares != 1 || st.SingleCommits != 0 {
		t.Fatalf("stats = %+v, want one two-participant cross commit, the participant alone prepared", st)
	}
	if st.Forgets != 1 || st.Unresolved != 0 {
		t.Fatalf("stats = %+v, want the decision forgotten in-line", st)
	}
	if got := readVal(t, trs, oid0); got != 0x33 {
		t.Fatalf("shard 0 value = %#x", got)
	}
	if got := readVal(t, trs, oid1); got != 0x44 {
		t.Fatalf("shard 1 value = %#x", got)
	}
	for i, s := range srvs {
		if s.InDoubtCount() != 0 || s.DecisionCount() != 0 {
			t.Fatalf("shard %d left 2PC state: indoubt=%d decisions=%d", i, s.InDoubtCount(), s.DecisionCount())
		}
	}
}

func TestCrossShardAbort(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: -1})
	trs := transports(srvs)
	oid0, _ := makeObject(t, trs, 0, 2, 0x11)
	oid1, _ := makeObject(t, trs, 1, 2, 0x22)

	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	update(t, c, oid0, 0x99)
	update(t, c, oid1, 0x99)
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := readVal(t, trs, oid0); got != 0x11 {
		t.Fatalf("shard 0 value after abort = %#x", got)
	}
	if got := readVal(t, trs, oid1); got != 0x22 {
		t.Fatalf("shard 1 value after abort = %#x", got)
	}
	for i, s := range srvs {
		if s.InDoubtCount() != 0 {
			t.Fatalf("shard %d holds prepared state after abort", i)
		}
	}
}

// TestRootsAndCountersRouteByName: a counter and a root live on the shard
// their name hashes to. Roots are entries of that shard's root directory
// page, so eight roots set in one transaction commit across the shards they
// land on, and a second session reads each back with one call routed by name.
func TestRootsAndCountersRouteByName(t *testing.T) {
	srvs, r := newCluster(t, 4, Config{Affinity: -1})
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ctr.%d", i)
		if _, err := c.Counter(name, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		if err := c.SetRoot(fmt.Sprintf("root.%d", i), esm.OID{Page: disk.PageID(i + 2)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, aux, err := c.GetRoot("root.3"); err != nil || got.Page != 5 || aux != 3 {
		t.Fatalf("root.3 inside its transaction = %v/%d, %v", got, aux, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Each counter and root lives on exactly its hash shard; a second pass
	// reads every one back through the router.
	tap := &callTap{Router: r}
	c2 := esm.NewClient(tap, esm.ClientConfig{BufferPages: 8})
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ctr.%d", i)
		got, err := c2.Counter(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i)+1 {
			t.Fatalf("counter %s = %d", name, got)
		}
		name = fmt.Sprintf("root.%d", i)
		calls := tap.calls
		oid, aux, err := c2.GetRoot(name)
		if err != nil || oid.Page != disk.PageID(i+2) || aux != uint64(i) {
			t.Fatalf("root %s = %v/%d, %v", name, oid, aux, err)
		}
		if n := tap.calls - calls; n != 1 {
			t.Errorf("reading root %s took %d calls, want 1", name, n)
		}
		for shard, srv := range srvs {
			entries := esm.AppendPageEntry(nil, 1, 0)
			resp := srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: 1, Data: entries})
			a := esm.ReadAnswers(entries, resp.Data)
			dir := make([]byte, disk.PageSize)
			if !a.Next() || a.Apply(dir) != nil {
				t.Fatalf("shard %d: directory unreadable: %s %v", shard, resp.Err, a.Err())
			}
			if has := bytes.Contains(dir, []byte(name)); has != (shard == ShardOfName(name, len(srvs))) {
				t.Errorf("root %s on shard %d: %v (its name routes to shard %d)", name, shard, has, ShardOfName(name, len(srvs)))
			}
		}
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CrossCommits != 1 {
		t.Errorf("%d cross-shard commits, want 1: the roots' transaction", st.CrossCommits)
	}
}

// callTap counts a Router's calls and keeps it a sharding transport.
type callTap struct {
	*Router
	calls int
}

func (c *callTap) Call(req *esm.Request) (*esm.Response, error) {
	c.calls++
	return c.Router.Call(req)
}

func TestStatsAggregate(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: -1})
	trs := transports(srvs)
	makeObject(t, trs, 0, 2, 1)
	makeObject(t, trs, 1, 2, 2)
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	// One baseline commit per shard: the aggregate is their sum.
	if st.Commits != 2 {
		t.Fatalf("aggregate commits = %d, want 2", st.Commits)
	}
	_ = srvs
}

// prepareInDoubt hand-runs phase 1 of a cross-shard commit so the
// participant is left prepared: coordinator tx on shard 0, live and
// unprepared (a coordinator never prepares), participant tx on shard 1
// updating the given page, prepared; decide then commits the coordinator
// under its decision record. Returns the two local tx ids.
func prepareInDoubt(t *testing.T, trs []esm.Transport, pid uint32, off uint16, old, nw []byte, decide bool) (coordTx, partTx uint64) {
	t.Helper()
	call := func(shard int, req *esm.Request) *esm.Response {
		t.Helper()
		resp, err := trs[shard].Call(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("shard %d %v: %s", shard, req.Op, resp.Err)
		}
		return resp
	}
	coordTx = call(0, &esm.Request{Op: esm.OpBegin}).N
	partTx = call(1, &esm.Request{Op: esm.OpBegin}).N

	// One logged update on the participant.
	batch := wal.AppendWire([]byte{1, 0, 0, 0}, &wal.WireUpdate{Page: pid, Off: off, Undo: len(old) != 0, New: nw})
	call(1, &esm.Request{Op: esm.OpLog, Tx: partTx, Data: batch})

	call(1, &esm.Request{Op: esm.OpPrepare, Tx: partTx, Page: 0, N: coordTx, Data: nil})
	if decide {
		call(0, &esm.Request{Op: esm.OpCommitDecision, Tx: coordTx, Mode: esm.DecisionCommit | esm.DecisionCoord})
	}
	return coordTx, partTx
}

// reopen drops a server and recovers a fresh one from the same volume and
// log, the way restart would.
func reopen(t *testing.T, vol disk.Volume, log *wal.Log, cfg esm.ServerConfig) *esm.Server {
	t.Helper()
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 64
	}
	srv, err := esm.OpenServer(vol, log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// localOID rewrites a global OID into the owning shard's local id space.
func localOID(oid esm.OID) esm.OID {
	return esm.OID{
		Page:   disk.PageID(LocalPage(uint32(oid.Page))),
		Slot:   oid.Slot,
		Unique: oid.Unique,
		File:   LocalFile(oid.File),
	}
}

func TestResolveSweepDeliversCommit(t *testing.T) {
	vols := []disk.Volume{disk.NewMemVolume(), disk.NewMemVolume()}
	logs := []*wal.Log{wal.NewMemLog(), wal.NewMemLog()}
	srvs := make([]*esm.Server, 2)
	for i := range srvs {
		srv, err := esm.NewServer(vols[i], logs[i], esm.ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	trs := transports(srvs)
	oid, _ := makeObject(t, trs, 1, 2, 0x55)
	for _, s := range srvs {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	local := LocalPage(uint32(oid.Page))

	// Read the object's current on-page bytes so the hand-logged update has
	// a correct old image.
	rc := esm.NewClient(esm.NewInProcTransport(srvs[1]), esm.ClientConfig{BufferPages: 8})
	if err := rc.Begin(); err != nil {
		t.Fatal(err)
	}
	data, off, _, err := rc.ReadObjectAt(localOID(oid))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:8]...)
	if err := rc.Abort(); err != nil {
		t.Fatal(err)
	}

	nw := bytes.Repeat([]byte{0x66}, 8)
	_, _ = prepareInDoubt(t, trs, local, uint16(off), old, nw, true)

	// Participant crashes and restarts: the transaction is in doubt.
	srvs[1] = reopen(t, vols[1], logs[1], esm.ServerConfig{})
	trs = transports(srvs)
	if srvs[1].InDoubtCount() != 1 {
		t.Fatalf("in-doubt after restart = %d, want 1", srvs[1].InDoubtCount())
	}

	out, err := ResolveAll(trs)
	if err != nil {
		t.Fatal(err)
	}
	if out.InDoubt != 1 || out.Committed != 1 || out.Aborted != 0 {
		t.Fatalf("resolve outcome = %+v", out)
	}
	if srvs[1].InDoubtCount() != 0 {
		t.Fatal("participant still in doubt after resolution")
	}
	if srvs[0].DecisionCount() != 0 {
		t.Fatal("coordinator decision not forgotten after clean sweep")
	}
	if got := readVal(t, trs, oid); got != 0x66 {
		t.Fatalf("resolved value = %#x, want the committed update", got)
	}
}

func TestResolveSweepPresumesAbort(t *testing.T) {
	vols := []disk.Volume{disk.NewMemVolume(), disk.NewMemVolume()}
	logs := []*wal.Log{wal.NewMemLog(), wal.NewMemLog()}
	srvs := make([]*esm.Server, 2)
	for i := range srvs {
		srv, err := esm.NewServer(vols[i], logs[i], esm.ServerConfig{BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	trs := transports(srvs)
	oid, _ := makeObject(t, trs, 1, 2, 0x55)
	for _, s := range srvs {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	local := LocalPage(uint32(oid.Page))

	rc := esm.NewClient(esm.NewInProcTransport(srvs[1]), esm.ClientConfig{BufferPages: 8})
	if err := rc.Begin(); err != nil {
		t.Fatal(err)
	}
	data, off, _, err := rc.ReadObjectAt(localOID(oid))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:8]...)
	if err := rc.Abort(); err != nil {
		t.Fatal(err)
	}

	nw := bytes.Repeat([]byte{0x77}, 8)
	prepareInDoubt(t, trs, local, uint16(off), old, nw, false)

	// Both sides crash before any decision: the coordinator's transaction
	// dies an ordinary loser (presumed abort), the participant restarts in
	// doubt.
	srvs[0] = reopen(t, vols[0], logs[0], esm.ServerConfig{})
	srvs[1] = reopen(t, vols[1], logs[1], esm.ServerConfig{})
	trs = transports(srvs)
	if srvs[0].InDoubtCount() != 0 {
		t.Fatal("coordinator held its own transaction in doubt; it must presume abort")
	}
	if srvs[1].InDoubtCount() != 1 {
		t.Fatalf("participant in-doubt = %d, want 1", srvs[1].InDoubtCount())
	}
	// An unlocked read caches the recovered page, in-doubt bytes and all,
	// under the new boot's epoch.
	cached := readPage(t, srvs[1], local, 0)

	out, err := ResolveAll(trs)
	if err != nil {
		t.Fatal(err)
	}
	if out.InDoubt != 1 || out.Aborted != 1 || out.Committed != 0 {
		t.Fatalf("resolve outcome = %+v", out)
	}
	if srvs[1].InDoubtCount() != 0 {
		t.Fatal("participant still in doubt after presumed abort")
	}
	if got := readVal(t, trs, oid); got != 0x55 {
		t.Fatalf("value after presumed abort = %#x, want the original", got)
	}
	// The prepare's records predate the boot, so the undo's CLR is the
	// only change the page-change index holds: its ranges alone must bring
	// the cached copy to the restored bytes.
	repair := readPage(t, srvs[1], local, cached.Token)
	img := pageImage(t, cached)
	if repair.Kind != esm.PageDelta {
		t.Fatalf("the epoch copy was answered with kind %d, want a patch", repair.Kind)
	}
	if err := repair.Apply(img); err != nil {
		t.Fatal(err)
	}
	if full := readPage(t, srvs[1], local, 0); !bytes.Equal(img, pageImage(t, full)) {
		t.Fatal("the patched epoch copy differs from a full read")
	}
}

// readPage reads pid from srv with one OpReadPages request presenting
// token, and returns the answer's entry.
func readPage(t *testing.T, srv *esm.Server, pid uint32, token uint64) esm.PageAnswers {
	t.Helper()
	entries := esm.AppendPageEntry(nil, pid, token)
	resp := srv.Handle(&esm.Request{Op: esm.OpReadPages, Page: pid, Data: entries})
	if resp.Err != "" {
		t.Fatalf("read of page %d: %s", pid, resp.Err)
	}
	a := esm.ReadAnswers(entries, resp.Data)
	if !a.Next() || !a.Answered {
		t.Fatalf("read of page %d: no answer (%v)", pid, a.Err())
	}
	return a
}

// pageImage decodes the full image the answer a stands on carries.
func pageImage(t *testing.T, a esm.PageAnswers) []byte {
	t.Helper()
	if a.Kind != esm.PageFull {
		t.Fatalf("page %d answered with kind %d, want its full image", a.Page, a.Kind)
	}
	img := make([]byte, disk.PageSize)
	if err := a.Apply(img); err != nil {
		t.Fatal(err)
	}
	return img
}

// In-doubt pages stay exclusively locked until resolution: a new
// transaction must not read through uncommitted prepared data.
func TestInDoubtPagesStayLocked(t *testing.T) {
	vols := []disk.Volume{disk.NewMemVolume(), disk.NewMemVolume()}
	logs := []*wal.Log{wal.NewMemLog(), wal.NewMemLog()}
	srvs := make([]*esm.Server, 2)
	for i := range srvs {
		srv, err := esm.NewServer(vols[i], logs[i], esm.ServerConfig{BufferPages: 64, LockTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	trs := transports(srvs)
	oid, _ := makeObject(t, trs, 1, 2, 0x55)
	for _, s := range srvs {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	local := LocalPage(uint32(oid.Page))

	rc := esm.NewClient(esm.NewInProcTransport(srvs[1]), esm.ClientConfig{BufferPages: 8})
	if err := rc.Begin(); err != nil {
		t.Fatal(err)
	}
	data, off, _, err := rc.ReadObjectAt(localOID(oid))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:8]...)
	if err := rc.Abort(); err != nil {
		t.Fatal(err)
	}
	prepareInDoubt(t, trs, local, uint16(off), old, bytes.Repeat([]byte{0x88}, 8), true)

	srvs[1] = reopen(t, vols[1], logs[1], esm.ServerConfig{LockTimeout: 50 * time.Millisecond})
	trs = transports(srvs)

	// A locking reader (the core layer's 2PL path) must block — and with
	// the short timeout, fail — on the in-doubt page until resolution.
	c := esm.NewClient(esm.NewInProcTransport(srvs[1]), esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(lock.KindPage, local, lock.Shared); err == nil {
		t.Fatal("shared lock on an in-doubt page granted before resolution")
	}
	_ = c.Abort()

	if _, err := ResolveAll(trs); err != nil {
		t.Fatal(err)
	}
	if got := readVal(t, trs, oid); got != 0x88 {
		t.Fatalf("value after resolution = %#x", got)
	}
}

func TestSnapshotOpsSingleShardOnly(t *testing.T) {
	_, r := newCluster(t, 2, Config{Affinity: -1})
	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.BeginSnapshot(); err == nil {
		t.Fatal("cross-shard snapshot begin succeeded")
	}
}

// TestLockAheadListSplitsByShard: a page lock's lock-ahead list is split by
// shard. The demanded page's shard gets its entries with the demand; a shard
// the transaction has begun on gets its entries in a request that demands
// nothing; a shard it has not touched gets none — a guess must not widen the
// commit — and the verdicts come back in the order of the list.
func TestLockAheadListSplitsByShard(t *testing.T) {
	srvs, r := newCluster(t, 2, Config{Affinity: -1})
	pid := func(shard int, local uint32) disk.PageID { return disk.PageID(GlobalPage(shard, local)) }
	stats := func(shard int) *esm.ServerStats {
		t.Helper()
		st, err := esm.NewClient(esm.NewInProcTransport(srvs[shard]), esm.ClientConfig{BufferPages: 8}).ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	held := func(c *esm.Client, want ...disk.PageID) {
		t.Helper()
		for _, p := range []disk.PageID{pid(0, 10), pid(0, 11), pid(0, 12), pid(1, 10), pid(1, 11), pid(1, 12)} {
			wantMode := lock.Mode(0)
			for _, w := range want {
				if w == p {
					wantMode = lock.Exclusive
				}
			}
			if got := c.LockHeld(lock.KindPage, uint32(p)); got != wantMode {
				t.Errorf("page %d of shard %d: held %v, want %v", LocalPage(uint32(p)), ShardOfPage(uint32(p)), got, wantMode)
			}
		}
	}
	// A peer holds shard 1's page 12 throughout.
	peer := esm.NewClient(esm.NewInProcTransport(srvs[1]), esm.ClientConfig{BufferPages: 8})
	if err := peer.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Lock(lock.KindPage, 12, lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.LockPageAhead(pid(0, 10), []disk.PageID{pid(1, 11), pid(0, 11)}); err != nil {
		t.Fatal(err)
	}
	held(c, pid(0, 10), pid(0, 11))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SingleCommits != 1 || st.CrossCommits != 0 {
		t.Fatalf("router stats %+v: the lock-ahead list enlisted shard 1", st)
	}
	if st := stats(1); st.LockGrants != 1 || st.LockAheadGranted+st.LockAheadRefused != 0 {
		t.Fatalf("shard 1 saw %d grants, %d+%d lock-ahead entries; want the peer's grant only", st.LockGrants, st.LockAheadGranted, st.LockAheadRefused)
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(lock.KindPage, uint32(pid(1, 10)), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := c.LockPageAhead(pid(0, 10), []disk.PageID{pid(1, 11), pid(0, 11), pid(1, 12), pid(0, 12)}); err != nil {
		t.Fatal(err)
	}
	held(c, pid(1, 10), pid(0, 10), pid(1, 11), pid(0, 11), pid(0, 12))
	if st := stats(0); st.LockAheadGranted != 3 || st.LockAheadRefused != 0 {
		t.Errorf("shard 0 counted %d granted, %d refused; want 3, 0", st.LockAheadGranted, st.LockAheadRefused)
	}
	if st := stats(1); st.LockAheadGranted != 1 || st.LockAheadRefused != 1 || st.LockWaits != 0 {
		t.Errorf("shard 1 counted %d granted, %d refused, %d waits; want 1, 1, 0", st.LockAheadGranted, st.LockAheadRefused, st.LockWaits)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Abort(); err != nil {
		t.Fatal(err)
	}
}

// runConcurrentSessions drives 4 concurrent sessions x 12 transactions
// against n in-process shards. Each session owns one object on its home
// shard and one on the next; every transaction updates the first, every
// 3rd also the second. It returns the sessions' summed router counters and
// the 2PC state left on the servers.
func runConcurrentSessions(t *testing.T, n int) (st RouterStats, leftover int) {
	t.Helper()
	const sessions, txns, crossEvery = 4, 12, 3
	srvs, _ := newCluster(t, n, Config{})
	trs := transports(srvs)
	objs := make([][2]esm.OID, sessions)
	for s := range objs {
		for k := range objs[s] {
			sh := (s + k) % n
			objs[s][k] = makeNamedObject(t, trs, sh, NameOnShard(fmt.Sprintf("s%d.%d", s, k), sh, n), byte(s))
		}
	}
	touch := func(c *esm.Client, oid esm.OID, val byte) error {
		data, off, frame, err := c.ReadObjectAt(oid)
		if err != nil {
			return err
		}
		old := append([]byte(nil), data[:8]...)
		copy(data, bytes.Repeat([]byte{val}, 8))
		c.Pool().MarkDirty(frame)
		c.LogUpdate(oid.Page, off, old, append([]byte(nil), data[:8]...))
		return nil
	}
	session := func(s int) (RouterStats, error) {
		r, err := NewRouter(trs, Config{Affinity: s % n})
		if err != nil {
			return RouterStats{}, err
		}
		c := esm.NewClient(r, esm.ClientConfig{BufferPages: 8})
		for tx := 1; tx <= txns; tx++ {
			if err := c.Begin(); err != nil {
				return RouterStats{}, err
			}
			if err := touch(c, objs[s][0], byte(tx)); err != nil {
				return RouterStats{}, err
			}
			if tx%crossEvery == 0 {
				if err := touch(c, objs[s][1], byte(tx)); err != nil {
					return RouterStats{}, err
				}
			}
			if err := c.Commit(); err != nil {
				return RouterStats{}, err
			}
		}
		return r.Stats(), nil
	}

	stats := make([]RouterStats, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			stats[s], errs[s] = session(s)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		st.SingleCommits += stats[s].SingleCommits
		st.CrossCommits += stats[s].CrossCommits
		st.Prepares += stats[s].Prepares
		st.Unresolved += stats[s].Unresolved
	}
	for _, srv := range srvs {
		leftover += srv.InDoubtCount() + srv.DecisionCount()
	}
	return st, leftover
}

// TestConcurrentSessionsCrossShardCounts: concurrent sessions on two shards
// commit every 3rd transaction through presumed-abort 2PC — one cross
// commit and one prepare each, the participant's — and everything else
// one-phase, leaving no 2PC state behind. The same workload on a one-shard
// map prepares nothing.
func TestConcurrentSessionsCrossShardCounts(t *testing.T) {
	st, leftover := runConcurrentSessions(t, 2)
	if st.CrossCommits != 16 || st.Prepares != 16 || st.SingleCommits != 32 {
		t.Errorf("2 shards: %d cross commits, %d prepares, %d single commits; want 16, 16, 32",
			st.CrossCommits, st.Prepares, st.SingleCommits)
	}
	if leftover != 0 || st.Unresolved != 0 {
		t.Errorf("2 shards: %d in-doubt transactions or decisions left on the servers, %d unresolved",
			leftover, st.Unresolved)
	}
	st, leftover = runConcurrentSessions(t, 1)
	if st.Prepares != 0 || st.CrossCommits != 0 || st.SingleCommits != 48 {
		t.Errorf("1 shard: %d prepares, %d cross commits, %d single commits; want 0, 0, 48",
			st.Prepares, st.CrossCommits, st.SingleCommits)
	}
	if leftover != 0 || st.Unresolved != 0 {
		t.Errorf("1 shard: %d 2PC entries left, %d unresolved", leftover, st.Unresolved)
	}
}
