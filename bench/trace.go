package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
)

// A span is one timed call through a public seam. Parent is the id (index+1)
// of the span that caused it, 0 for a root; Trace names the request the span
// belongs to (session slot in the high bits, op number in the low 40) and is
// inherited from the parent for server-side spans when the trace is written.
type span struct {
	Parent     uint32
	Name       uint16 // index into tracer.names
	Node       int16  // server node the span ran on; -1 on the client side
	Trace      uint64
	Start, End int64 // ns since tracer.epoch
}

// joinKey identifies a request on both sides of the wire, so a server span
// can find the client span that is waiting for it.
type joinKey struct {
	node int16
	op   esm.Op
	tx   uint64
	page uint32
}

// tracer keeps every span in memory until the run ends. The decorators
// below are only constructed for a traced run; on() lets a traced run time
// an untraced segment first, which is what trace.overhead_frac compares
// against.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time

	mu      sync.Mutex
	spans   []span
	names   []string
	nameIdx map[string]uint16

	joinMu   sync.Mutex
	inflight map[joinKey][]uint32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), nameIdx: map[string]uint16{}, inflight: map[joinKey][]uint32{}}
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) begin(name string, parent uint32, trace uint64, node int16) uint32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	ni, ok := t.nameIdx[name]
	if !ok {
		ni = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = ni
	}
	t.spans = append(t.spans, span{Parent: parent, Name: ni, Node: node, Trace: trace, Start: now})
	id := uint32(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id uint32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) post(k joinKey, id uint32) {
	t.joinMu.Lock()
	t.inflight[k] = append(t.inflight[k], id)
	t.joinMu.Unlock()
}

// take pops the oldest waiting client span for k (requests on one connection
// are served roughly in order), or 0 when nothing is waiting.
func (t *tracer) take(k joinKey) uint32 {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	q := t.inflight[k]
	if len(q) == 0 {
		return 0
	}
	id := q[0]
	if len(q) == 1 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = q[1:]
	}
	return id
}

// retire removes id from k's queue if no server span claimed it.
func (t *tracer) retire(k joinKey, id uint32) {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	q := t.inflight[k]
	for i, v := range q {
		if v == id {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = q
	}
}

// sessionCtx is one load-generating session's place in the trace: the span
// its next child should hang from. Sessions are single-threaded, but a
// shard.Router may fan a commit out from several goroutines, so cur is
// atomic and only the session's own thread moves it.
type sessionCtx struct {
	t     *tracer
	slot  int
	opSeq uint64
	cur   atomic.Uint32
}

func (sc *sessionCtx) traceID() uint64 { return uint64(sc.slot)<<40 | sc.opSeq }

// in runs fn inside a client-side span named name.
func (sc *sessionCtx) in(name string, fn func() error) error {
	if sc == nil || !sc.t.on() {
		return fn()
	}
	prev := sc.cur.Load()
	id := sc.t.begin(name, prev, sc.traceID(), -1)
	sc.cur.Store(id)
	err := fn()
	sc.t.end(id)
	sc.cur.Store(prev)
	return err
}

// op runs one benchmark operation as the root span of a new trace.
func (sc *sessionCtx) op(class string, fn func() error) error {
	if sc != nil {
		sc.opSeq++
	}
	return sc.in("op."+class, fn)
}

// tracedDB times the transaction boundaries of an oo7.DB; every other
// method is the wrapped store's own.
type tracedDB struct {
	oo7.DB
	sc *sessionCtx
}

func (d tracedDB) Begin() error  { return d.sc.in("session.begin", d.DB.Begin) }
func (d tracedDB) Commit() error { return d.sc.in("session.commit", d.DB.Commit) }
func (d tracedDB) Abort() error  { return d.sc.in("session.abort", d.DB.Abort) }

// tracedTransport times esm.Transport.Call. layer is "wire" for a transport
// that reaches a server (node says which) and "router" for the decorator
// around a shard.Router, whose children are the per-shard wire calls.
type tracedTransport struct {
	esm.Transport
	t     *tracer
	sc    *sessionCtx // nil for server-to-server traffic
	layer string
	node  int16
}

func (tt *tracedTransport) Call(req *esm.Request) (*esm.Response, error) {
	if !tt.t.on() {
		return tt.Transport.Call(req)
	}
	var parent uint32
	var trace uint64
	if tt.sc != nil {
		parent, trace = tt.sc.cur.Load(), tt.sc.traceID()
	}
	id := tt.t.begin(tt.layer+"."+opClass(req.Op), parent, trace, -1)
	if tt.layer == "router" {
		// Only the session's own thread calls a Router, so it may move cur.
		tt.sc.cur.Store(id)
		resp, err := tt.Transport.Call(req)
		tt.t.end(id)
		tt.sc.cur.Store(parent)
		return resp, err
	}
	k := joinKey{node: tt.node, op: req.Op, tx: req.Tx, page: req.Page}
	tt.t.post(k, id)
	resp, err := tt.Transport.Call(req)
	tt.t.end(id)
	tt.t.retire(k, id)
	return resp, err
}

// tracedRouter keeps the esm.ShardStamper side of a shard.Router visible
// through the decorator: esm.NewClient discovers it by type assertion, and
// losing it would stamp pages with another shard's LSNs.
type tracedRouter struct {
	*tracedTransport
	stamper esm.ShardStamper
}

func (tr tracedRouter) StampLSN(tx uint64, pid disk.PageID) uint64 {
	return tr.stamper.StampLSN(tx, pid)
}

// tracedHandler times esm.Handler.Handle on one server node and joins each
// span to the client call that is waiting for it.
type tracedHandler struct {
	inner esm.Handler
	t     *tracer
	node  int16
}

func (h *tracedHandler) Handle(req *esm.Request) *esm.Response {
	if !h.t.on() {
		return h.inner.Handle(req)
	}
	parent := h.t.take(joinKey{node: h.node, op: req.Op, tx: req.Tx, page: req.Page})
	id := h.t.begin("server."+opClass(req.Op), parent, 0, h.node)
	resp := h.inner.Handle(req)
	h.t.end(id)
	return resp
}

// CurrentServer lets esm.Serve keep feeding the wrapped server's transport
// counters (it resolves the server behind a handler through this method).
func (h *tracedHandler) CurrentServer() *esm.Server {
	switch v := h.inner.(type) {
	case *esm.Server:
		return v
	case interface{ CurrentServer() *esm.Server }:
		return v.CurrentServer()
	}
	return nil
}

// tracedVolume times the three disk.Volume calls that reach the file. No
// context reaches a volume through the code under test, so a disk span is
// recorded without a parent and analyze adopts it into the server span on
// the same node that encloses it in time.
type tracedVolume struct {
	disk.Volume
	t    *tracer
	node int16
}

func (v *tracedVolume) timed(name string, fn func() error) error {
	if !v.t.on() {
		return fn()
	}
	id := v.t.begin(name, 0, 0, v.node)
	err := fn()
	v.t.end(id)
	return err
}

func (v *tracedVolume) ReadPage(id disk.PageID, buf []byte) error {
	return v.timed("disk.read", func() error { return v.Volume.ReadPage(id, buf) })
}

func (v *tracedVolume) WritePage(id disk.PageID, buf []byte) error {
	return v.timed("disk.write", func() error { return v.Volume.WritePage(id, buf) })
}

func (v *tracedVolume) Sync() error { return v.timed("disk.sync", v.Volume.Sync) }

// opClass groups protocol ops the way the per-layer server metrics do.
func opClass(op esm.Op) string {
	switch op {
	case esm.OpReadPage, esm.OpReadPages, esm.OpSnapRead:
		return "read"
	case esm.OpLock:
		return "lock"
	case esm.OpLog:
		return "log"
	case esm.OpCommit, esm.OpPrepare, esm.OpCommitDecision:
		return "commit"
	case esm.OpValidatePages:
		return "validate"
	case esm.OpBegin, esm.OpBeginSnapshot, esm.OpEndSnapshot:
		return "begin"
	case esm.OpCheckpoint:
		return "checkpoint"
	case esm.OpReplAppend, esm.OpReplAck, esm.OpReplSnapshot:
		return "repl"
	}
	return "other"
}

// adoptScan bounds how far back analyze looks for a disk span's server span:
// a connection serves at most 32 requests at once.
const adoptScan = 64

// layerTotals is what the spans of one traced segment add up to. count, dur
// and self cover the spans under a measured op; allCount and allDur also the
// work between ops (cache drops, checkpoints, replication).
type layerTotals struct {
	count    map[string]int64   // spans by name
	dur      map[string]float64 // ns by name
	self     map[string]float64 // ns by name, children's cover removed
	allCount map[string]int64
	allDur   map[string]float64

	opNs        float64 // Σ duration of op.* root spans
	clientSelf  float64 // op + session + router self time
	wireSelf    float64 // wire spans minus the server spans they wait for
	serverSelf  float64 // server spans minus their disk calls
	diskNs      float64 // disk spans reached from an op
	serverSpans int64
	orphans     int64 // server spans no client call claimed (replication apart)
	snapLocks   int64 // server.lock spans under op.snap roots
}

// analyze computes self times and the closure terms. A span's self time is
// its duration minus the part its children cover; summed over every span
// under an op root that equals the op's duration when the trace is whole.
func (t *tracer) analyze() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, names := t.spans, t.names

	lt := layerTotals{count: map[string]int64{}, dur: map[string]float64{}, self: map[string]float64{},
		allCount: map[string]int64{}, allDur: map[string]float64{}}
	kids := make([][]uint32, len(spans)+1)
	servers := map[int16][]uint32{} // server spans by node, in start order
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			s.End = s.Start // cut off by the end of the run
		}
		switch name := names[s.Name]; {
		case strings.HasPrefix(name, "server."):
			servers[s.Node] = append(servers[s.Node], uint32(i+1))
		case strings.HasPrefix(name, "disk.") && s.Parent == 0:
			// Adopt the disk call into the latest-started server span on its
			// node that encloses it. With one session that is exact; with two
			// it can pick the other session's span when both are in Handle.
			cand := servers[s.Node]
			for k := len(cand) - 1; k >= 0 && k >= len(cand)-adoptScan; k-- {
				if p := &spans[cand[k]-1]; p.End == 0 || p.End >= s.End {
					s.Parent = cand[k]
					break
				}
			}
		}
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], uint32(i+1))
		}
	}
	// root[i] is the name index of the op span above span i, or -1.
	root := make([]int32, len(spans))
	for i := range spans {
		switch p := spans[i].Parent; {
		case strings.HasPrefix(names[spans[i].Name], "op."):
			root[i] = int32(spans[i].Name)
		case p != 0:
			root[i] = root[p-1] // parents are always created first
		default:
			root[i] = -1
		}
	}
	for i := range spans {
		s := &spans[i]
		name := names[s.Name]
		d := float64(s.End - s.Start)
		lt.allCount[name]++
		lt.allDur[name] += d
		layer := name[:strings.IndexByte(name, '.')]
		if layer == "server" {
			lt.serverSpans++
			if s.Parent == 0 && name != "server.repl" {
				lt.orphans++
			}
		}
		if root[i] < 0 {
			continue
		}
		self := d - cover(spans, kids[i+1], s.Start, s.End)
		lt.count[name]++
		lt.dur[name] += d
		lt.self[name] += self
		switch layer {
		case "op":
			lt.opNs += d
			lt.clientSelf += self
		case "session", "router":
			lt.clientSelf += self
		case "wire":
			lt.wireSelf += self
		case "server":
			lt.serverSelf += self
			if name == "server.lock" && names[root[i]] == "op.snap" {
				lt.snapLocks++
			}
		case "disk":
			lt.diskNs += d
		}
	}
	return lt
}

// cover returns how much of [lo, hi] the child spans cover. Children of one
// parent can overlap when a Router fans a commit out.
func cover(spans []span, kids []uint32, lo, hi int64) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]-1].Start < spans[kids[b]-1].Start })
	var total int64
	end := lo
	for _, k := range kids {
		s, e := spans[k-1].Start, spans[k-1].End
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return float64(total)
}

// write dumps the spans as a JSON array, one object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, names := t.spans, t.names
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i := range spans {
		s := &spans[i]
		trace := s.Trace
		for p := s.Parent; trace == 0 && p != 0; p = spans[p-1].Parent {
			trace = spans[p-1].Trace
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"trace":%d,"name":%q,"node":%d,"start_ns":%d,"end_ns":%d}%s`+"\n",
			i+1, s.Parent, trace, names[s.Name], s.Node, s.Start, s.End, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
