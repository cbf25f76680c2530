package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/pagedelta"
	"quickstore/internal/wal"
)

// DrillOpts configures one crash drill: a seeded update workload over a
// file-backed store, a fault plane armed at one named point, a simulated
// process kill, and an invariant sweep over the recovered store.
type DrillOpts struct {
	Seed  int64             // drives the workload, the fault plane, and the values
	Point faultinject.Point // crash point to arm; zero = no crash
	HitN  int               // fire the crash on the n-th hit of Point; 0 = first

	TornWrite  bool // sub-page torn page write at the crash (detection mode)
	ShortFlush bool // the crashing log flush persists only a prefix
	Transient  int  // transient read faults injected before any crash

	Txns       int    // update transactions to attempt (per worker); 0 = 12
	AbortEvery int    // every n-th transaction aborts instead; 0 = never
	Objects    int    // oracle objects; 0 = 16
	Dir        string // scratch directory for the volume and log files

	// Workers > 1 runs that many concurrent client sessions against the
	// server, each updating its own contiguous slice of the oracle objects
	// (neighbors on boundary pages still collide, exercising the lock
	// manager). The crash then cuts off up to one in-flight transaction per
	// worker, and recovery must resolve each one atomically on its own.
	Workers int

	// Checkpointer runs fuzzy checkpoints in a loop concurrent with the
	// workload, so the checkpoint.* crash points fire while commits are in
	// flight and the log cut races transaction resolution. This is the
	// drill for the truncation boundary: a commit that lands anywhere in
	// the checkpoint window must survive the crash.
	Checkpointer bool
}

// DrillReport is the outcome of one drill. Violations lists every broken
// recovery invariant; a clean drill has none.
type DrillReport struct {
	Crashed    bool     // an armed crash fired during the workload
	Committed  int      // transactions whose commit was acknowledged
	Aborted    int      // transactions whose abort was acknowledged
	InDoubt    bool     // one commit/abort was cut off mid-protocol
	Retries    int64    // client requests re-sent after transient faults
	Violations []string // broken invariants (empty = drill passed)
	Trace      []string // fault-plane trace, for reproducing a failure
}

func (r *DrillReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// drillObj is one oracle-tracked object: the drill knows which value each
// object must hold after recovery.
type drillObj struct {
	oid       esm.OID
	worker    int    // owning workload session (0 for the single-session drill)
	committed uint64 // last value whose commit was acknowledged
	inDoubt   uint64 // value proposed by the in-doubt transaction, if any
	touched   bool   // the worker's in-doubt transaction touched this object
}

// payloadSize is the object size used by the drill: four objects to a
// page, so the default sixteen objects spread over more pages than the
// workload client's three frames — updates steal dirty pages to the
// server mid-transaction, and neighbors on a stolen page carry each
// other's uncommitted bytes.
const payloadSize = 2000

// drillCohFrame is one clean, tokened client frame captured right before
// the kill: what a warm client cache would still hold when it reconnects
// to the recovered server. The post-restart sweep presents the token back
// and checks the staleness invariant: "not modified" only if the cached
// bytes equal the committed image (modulo the 8-byte header LSN).
type drillCohFrame struct {
	pid   disk.PageID
	token uint64
	img   []byte
}

// captureCohFrames snapshots a client pool's clean versioned frames.
func captureCohFrames(c *esm.Client) []drillCohFrame {
	var out []drillCohFrame
	pool := c.Pool()
	for i := 0; i < pool.Len(); i++ {
		f := pool.Frame(i)
		if f.Page == disk.InvalidPage || f.Dirty || f.LSN == 0 {
			continue
		}
		out = append(out, drillCohFrame{
			pid:   f.Page,
			token: f.LSN,
			img:   append([]byte(nil), f.Data...),
		})
	}
	return out
}

// putValue encodes value and its checksum into the first 12 payload
// bytes. The checksum rides inside the page, so any torn or misdirected
// page write that slices through a payload is detectable after recovery.
func putValue(p []byte, value uint64) {
	binary.LittleEndian.PutUint64(p[:8], value)
	binary.LittleEndian.PutUint32(p[8:12], crc32.ChecksumIEEE(p[:8]))
}

// getValue decodes a payload written by putValue, verifying the checksum.
func getValue(p []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(p[:8])
	return v, crc32.ChecksumIEEE(p[:8]) == binary.LittleEndian.Uint32(p[8:12])
}

// RunCrashDrill executes one drill: build a committed baseline on a
// file-backed volume and log, arm the fault plane, run seeded update
// transactions through a steal-prone client until the crash fires (or the
// workload ends), kill the server without any orderly shutdown, reopen
// the files the way restart would find them, and verify every recovery
// invariant. The returned error reports harness problems (unusable
// scratch dir); invariant breaks go in the report instead.
func RunCrashDrill(opts DrillOpts) (*DrillReport, error) {
	if opts.Txns == 0 {
		opts.Txns = 12
	}
	if opts.Objects == 0 {
		opts.Objects = 16
	}
	if opts.HitN == 0 {
		opts.HitN = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &DrillReport{}

	volPath := filepath.Join(opts.Dir, "vol")
	logPath := filepath.Join(opts.Dir, "log")
	vol, err := disk.CreateFileVolume(volPath)
	if err != nil {
		return nil, err
	}
	logf, err := wal.CreateFileLog(logPath)
	if err != nil {
		return nil, err
	}

	plane := faultinject.New(opts.Seed)
	hv := disk.WithHook(vol, plane)
	logf.FlushHook = plane.FlushHook()
	// A two-frame server pool keeps the write-back (steal) path hot: most
	// installs and reads evict a dirty page to the volume, so the
	// pool.steal.* and disk.write points fire inside ordinary traffic.
	scfg := esm.ServerConfig{BufferPages: 2, Fault: plane}
	if opts.Workers > 1 {
		// Concurrent drills keep the pool smaller than the working set (the
		// steal path stays hot) but give the extra sessions a little room,
		// shorten the lock timeout so cross-worker page conflicts on
		// boundary pages resolve quickly, and turn on group commit so the
		// crash points fire inside batched log forces too.
		scfg.BufferPages = 4
		scfg.LockTimeout = 300 * time.Millisecond
		scfg.CommitWindow = 500 * time.Microsecond
	}
	srv, err := esm.NewServer(hv, logf, scfg)
	if err != nil {
		return nil, err
	}

	// Baseline: the oracle objects, committed and checkpointed before any
	// fault is armed.
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 3})
	if err := c.Begin(); err != nil {
		return nil, err
	}
	fid, err := c.CreateFile("drill")
	if err != nil {
		return nil, err
	}
	cl := c.NewCluster(fid)
	objs := make([]*drillObj, opts.Objects)
	for i := range objs {
		oid, data, err := c.CreateObject(cl, payloadSize)
		if err != nil {
			return nil, err
		}
		v := rng.Uint64()
		putValue(data, v)
		objs[i] = &drillObj{oid: oid, committed: v}
		if err := c.SetRoot(fmt.Sprintf("drill.obj.%d", i), oid, uint64(i)); err != nil {
			return nil, err
		}
	}
	if err := c.Commit(); err != nil {
		return nil, err
	}
	if err := srv.Checkpoint(); err != nil {
		return nil, err
	}

	// Arm the plane and run the workload until the crash.
	if opts.TornWrite {
		plane.SetTornWrite(1, disk.PageSize-1)
	}
	plane.SetShortFlush(opts.ShortFlush)
	if opts.Transient > 0 {
		plane.ArmTransient(faultinject.PtDiskRead, opts.Transient)
	}
	if opts.Point != 0 {
		plane.ArmCrash(opts.Point, opts.HitN)
	}

	// The checkpointer races fuzzy checkpoints against the workload: the
	// log cut, volume sync, and truncation all happen while commits are in
	// flight. It stops on its own once the crash latch drops (every
	// checkpoint then fails fast) and is joined before verification so no
	// I/O races the handle teardown.
	stopCk := make(chan struct{})
	var ckWG sync.WaitGroup
	if opts.Checkpointer {
		ckWG.Add(1)
		go func() {
			defer ckWG.Done()
			for {
				select {
				case <-stopCk:
					return
				default:
				}
				if err := srv.Checkpoint(); err != nil {
					return
				}
			}
		}()
	}
	joinCk := func() {
		close(stopCk)
		ckWG.Wait()
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// Contiguous partition: worker wk owns objs[wk*per : (wk+1)*per), so
	// most pages stay within one worker and only boundary pages carry
	// cross-worker lock conflicts.
	per := (len(objs) + workers - 1) / workers
	for i := range objs {
		objs[i].worker = i / per
	}
	var attempts atomic.Int64
	if workers > 1 {
		var retries atomic.Int64
		var repMu sync.Mutex
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			lo, hi := wk*per, (wk+1)*per
			if hi > len(objs) {
				hi = len(objs)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(wk int, part []*drillObj) {
				defer wg.Done()
				drillWorker(srv, part, wk, opts, rep, &repMu, &attempts, &retries)
			}(wk, objs[lo:hi])
		}
		wg.Wait()
		joinCk()
		rep.Crashed = plane.Crashed()
		rep.Retries = retries.Load()
		rep.Trace = plane.Trace()
		return drillVerify(opts, rep, objs, workers, attempts.Load(), volPath, logPath, vol, logf, nil)
	}

	w := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{
		BufferPages: 3, // steal-prone: dirty pages ship mid-transaction
		Retry:       esm.RetryPolicy{MaxAttempts: 4},
	})
workload:
	for t := 1; t <= opts.Txns; t++ {
		if err := w.Begin(); err != nil {
			break
		}
		// Update 1-3 distinct objects with fresh seeded values.
		picked := rng.Perm(len(objs))[:1+rng.Intn(3)]
		proposed := map[int]uint64{}
		for _, i := range picked {
			data, off, frame, err := w.ReadObjectAt(objs[i].oid)
			if err != nil {
				break workload
			}
			old := append([]byte(nil), data[:12]...)
			v := rng.Uint64()
			putValue(data, v)
			w.Pool().MarkDirty(frame)
			w.LogUpdate(objs[i].oid.Page, off, old, append([]byte(nil), data[:12]...))
			proposed[i] = v
		}
		attempts.Add(1)
		if _, err := w.Counter("drill.count", 1); err != nil {
			break
		}
		if opts.AbortEvery > 0 && t%opts.AbortEvery == 0 {
			// Acked or not, an abort leaves only committed values behind.
			if err := w.Abort(); err != nil {
				break
			}
			rep.Aborted++
			continue
		}
		err := w.Commit()
		if err == nil {
			for i, v := range proposed {
				objs[i].committed = v
			}
			rep.Committed++
			continue
		}
		// The commit was cut off mid-protocol: recovery decides whether
		// this transaction happened, and the store must pick exactly one
		// of the two outcomes for all its objects.
		rep.InDoubt = true
		for i, v := range proposed {
			objs[i].inDoubt = v
			objs[i].touched = true
		}
		break
	}
	joinCk()
	rep.Crashed = plane.Crashed()
	rep.Retries = w.Retries()
	rep.Trace = plane.Trace()
	// Capture the workload client's surviving warm cache: clean frames and
	// the coherence tokens the server handed out before the kill. The
	// verify sweep presents these to the recovered server.
	cohFrames := captureCohFrames(w)
	if drillDebugCoh != nil {
		drillDebugCoh(len(cohFrames))
	}
	return drillVerify(opts, rep, objs, workers, attempts.Load(), volPath, logPath, vol, logf, cohFrames)
}

// drillWorker is one concurrent workload session: seeded update
// transactions over its own object partition until the crash (or an
// abandoned transaction) stops it. Any error short of a commit ack leaves
// the transaction for recovery to roll back; a commit cut off mid-protocol
// marks the worker's objects in doubt.
func drillWorker(srv *esm.Server, part []*drillObj, wk int, opts DrillOpts,
	rep *DrillReport, repMu *sync.Mutex, attempts, retries *atomic.Int64) {
	rng := rand.New(rand.NewSource(opts.Seed + 7919*int64(wk+1)))
	w := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{
		BufferPages: 3, // steal-prone: dirty pages ship mid-transaction
		Retry:       esm.RetryPolicy{MaxAttempts: 4},
	})
	defer func() { retries.Add(w.Retries()) }()
	for t := 1; t <= opts.Txns; t++ {
		if err := w.Begin(); err != nil {
			return
		}
		n := 1 + rng.Intn(3)
		if n > len(part) {
			n = len(part)
		}
		picked := rng.Perm(len(part))[:n]
		proposed := map[*drillObj]uint64{}
		for _, i := range picked {
			data, off, frame, err := w.ReadObjectAt(part[i].oid)
			if err != nil {
				return
			}
			old := append([]byte(nil), data[:12]...)
			v := rng.Uint64()
			putValue(data, v)
			w.Pool().MarkDirty(frame)
			w.LogUpdate(part[i].oid.Page, off, old, append([]byte(nil), data[:12]...))
			proposed[part[i]] = v
		}
		attempts.Add(1)
		if _, err := w.Counter("drill.count", 1); err != nil {
			return
		}
		if opts.AbortEvery > 0 && t%opts.AbortEvery == 0 {
			// Acked or not, an abort leaves only committed values behind.
			if err := w.Abort(); err != nil {
				return
			}
			repMu.Lock()
			rep.Aborted++
			repMu.Unlock()
			continue
		}
		err := w.Commit()
		if err == nil {
			for o, v := range proposed {
				o.committed = v
			}
			repMu.Lock()
			rep.Committed++
			repMu.Unlock()
			continue
		}
		// Cut off mid-commit: recovery decides whether this worker's
		// transaction happened, independently of the other workers'.
		for o, v := range proposed {
			o.inDoubt = v
			o.touched = true
		}
		repMu.Lock()
		rep.InDoubt = true
		repMu.Unlock()
		return
	}
}

// drillVerify kills the server, reopens the files the way restart would
// find them, and sweeps every recovery invariant.
func drillVerify(opts DrillOpts, rep *DrillReport, objs []*drillObj, workers int,
	attempts int64, volPath, logPath string, vol *disk.FileVolume, logf *wal.Log,
	cohFrames []drillCohFrame) (*DrillReport, error) {
	// Kill the process: no checkpoint, no close, just drop the handles.
	// Abandon/Close release descriptors without writing anything back.
	if err := vol.Abandon(); err != nil {
		return nil, err
	}
	_ = logf.Close()

	// Restart: reopen the files exactly as a fresh process would.
	vol2, err := disk.OpenFileVolume(volPath)
	if err != nil {
		rep.violate("reopen volume: %v", err)
		return rep, nil
	}
	defer vol2.Close()
	log2, err := wal.OpenFileLog(logPath)
	if err != nil {
		rep.violate("reopen log: %v", err)
		return rep, nil
	}
	defer log2.Close()

	// Invariant: the pruned log iterates cleanly with monotone LSNs.
	var prev wal.LSN
	if err := log2.Iterate(func(r wal.Record) bool {
		if r.LSN <= prev {
			rep.violate("log LSNs not monotone: %d after %d", r.LSN, prev)
			return false
		}
		prev = r.LSN
		return true
	}); err != nil {
		rep.violate("log iterate: %v", err)
	}

	srv2, err := esm.OpenServer(vol2, log2, esm.ServerConfig{BufferPages: 64})
	if err != nil {
		rep.violate("restart recovery: %v", err)
		return rep, nil
	}

	// Invariant: coherence across the crash. For every clean tokened frame
	// the pre-crash client still held, a versioned read against the
	// recovered server may answer "not modified" ONLY if the cached bytes
	// are byte-identical to the committed image (modulo the 8-byte header
	// LSN clients never read) — a too-old "not modified" after recovery is
	// a silent stale read. A delta answer must reconstruct exactly the
	// committed image when applied over the cached bytes.
	for _, f := range cohFrames {
		// One request: the page with nothing held (the committed image),
		// then the page presenting the frame's token.
		entries := esm.AppendPageEntry(esm.AppendPageEntry(nil, uint32(f.pid), 0), uint32(f.pid), f.token)
		resp := srv2.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(f.pid), Data: entries})
		a := esm.ReadAnswers(entries, resp.Data)
		whole := resp.Err == "" && a.Next() && a.Answered && a.Kind == esm.PageFull
		full := a.Data
		if !whole || !a.Next() || a.Stale && !a.Answered {
			rep.violate("coherence sweep: page %d unreadable after restart: %s %v", f.pid, resp.Err, a.Err())
			continue
		}
		got, how := f.img, "not-modified" // what the cached copy becomes
		if a.Stale {
			got, how = a.Data, "full"
		}
		if a.Kind == esm.PageDelta {
			got, how = append([]byte(nil), f.img...), "delta"
			if err := pagedelta.Apply(got, a.Data); err != nil {
				rep.violate("coherence sweep: delta repair of page %d unappliable: %v", f.pid, err)
				continue
			}
		}
		if !bytes.Equal(got[8:], full[8:]) {
			rep.violate("coherence sweep: recovery served %s for page %d (token %#x) but the result is not the committed image", how, f.pid, f.token)
		}
	}

	v := esm.NewClient(esm.NewInProcTransport(srv2), esm.ClientConfig{BufferPages: 8})
	if err := v.Begin(); err != nil {
		rep.violate("post-recovery begin: %v", err)
		return rep, nil
	}

	// Invariant: catalog roots still resolve to the same objects.
	for i, o := range objs {
		oid, aux, err := v.GetRoot(fmt.Sprintf("drill.obj.%d", i))
		if err != nil {
			rep.violate("root drill.obj.%d lost: %v", i, err)
			continue
		}
		if oid != o.oid || aux != uint64(i) {
			rep.violate("root drill.obj.%d points at %v/%d, want %v/%d", i, oid, aux, o.oid, i)
		}
	}

	// Invariant: every object holds its committed value (or, for objects
	// of a worker's in-doubt transaction, consistently the proposed value),
	// with an intact embedded checksum. Each worker contributes at most one
	// in-doubt transaction, and each must resolve atomically on its own.
	outcome := map[int]int{} // worker -> +1 per in-doubt object committed, -1 per rolled back
	touched := map[int]int{}
	for i, o := range objs {
		if o.touched {
			touched[o.worker]++
		}
		data, _, err := v.ReadObject(o.oid)
		if err != nil {
			rep.violate("object %d unreadable: %v", i, err)
			continue
		}
		got, ok := getValue(data)
		if !ok {
			rep.violate("object %d checksum broken (value %#x)", i, got)
			continue
		}
		switch {
		case got == o.committed && (!o.touched || got != o.inDoubt):
			if o.touched {
				outcome[o.worker]--
			}
		case o.touched && got == o.inDoubt:
			outcome[o.worker]++
		default:
			rep.violate("object %d holds %#x, want %#x%s", i, got, o.committed,
				inDoubtAlt(o))
		}
	}
	for wk := 0; wk < workers; wk++ {
		n := touched[wk]
		if got := outcome[wk]; n > 0 && got != n && got != -n {
			rep.violate("worker %d in-doubt transaction applied partially (%d of %d objects)",
				wk, (got+n)/2, n)
		}
	}

	// Invariant: the attempts counter survived within its bounds — every
	// acked commit carried it to the catalog, and nothing can exceed the
	// attempted increments.
	if count, err := v.Counter("drill.count", 0); err != nil {
		rep.violate("counter lost: %v", err)
	} else if int64(count) < int64(rep.Committed) || int64(count) > attempts {
		rep.violate("counter %d outside [%d committed, %d attempted]", count, rep.Committed, attempts)
	}

	// Invariant: the recovered store still takes transactions end to end.
	data, off, frame, err := v.ReadObjectAt(objs[0].oid)
	if err != nil {
		rep.violate("post-recovery read: %v", err)
		return rep, nil
	}
	old := append([]byte(nil), data[:12]...)
	putValue(data, 0xD0D0D0D0D0D0D0D0)
	v.Pool().MarkDirty(frame)
	v.LogUpdate(objs[0].oid.Page, off, old, append([]byte(nil), data[:12]...))
	if err := v.Commit(); err != nil {
		rep.violate("post-recovery commit: %v", err)
		return rep, nil
	}
	if err := v.Begin(); err == nil {
		if data, _, err := v.ReadObject(objs[0].oid); err != nil {
			rep.violate("post-recovery reread: %v", err)
		} else if got, ok := getValue(data); !ok || got != 0xD0D0D0D0D0D0D0D0 {
			rep.violate("post-recovery write lost (%#x, checksum %v)", got, ok)
		}
		if err := v.Commit(); err != nil {
			rep.violate("post-recovery reread commit: %v", err)
		}
	}
	return rep, nil
}

func inDoubtAlt(o *drillObj) string {
	if !o.touched {
		return ""
	}
	return fmt.Sprintf(" or in-doubt %#x", o.inDoubt)
}

// drillDebugCoh, when set by a test, observes the pre-kill coherence
// capture size (vacuity check for the sweep).
var drillDebugCoh func(int)
