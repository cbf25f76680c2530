package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
	"quickstore/internal/repl"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
)

// node is one page server the way the paper deployed it, but on real
// storage: its own file volume and file WAL (fsync on every force, commit
// window 0, no cost-model clock) behind its own loopback listener.
type node struct {
	idx  int16
	path string // volume path; the log lives at path+".log"
	cfg  esm.ServerConfig

	fvol *disk.FileVolume
	vol  disk.Volume // fvol, or the tracing decorator around it
	log  *wal.Log
	srv  *esm.Server // nil on a follower
	repl *repl.Node  // nil outside a cluster
	ln   net.Listener
	done chan struct{} // closed when esm.Serve has returned
}

func (n *node) addr() string { return n.ln.Addr().String() }

// newNode creates the files and the listener; serve attaches a handler.
func newNode(dir string, idx int, cfg esm.ServerConfig, t *tracer) (*node, error) {
	n := &node{idx: int16(idx), path: filepath.Join(dir, fmt.Sprintf("n%d.vol", idx)), cfg: cfg}
	var err error
	if n.fvol, err = disk.CreateFileVolume(n.path); err != nil {
		return nil, err
	}
	n.vol = n.fvol
	if t != nil {
		n.vol = &tracedVolume{Volume: n.fvol, t: t, node: n.idx}
	}
	if n.log, err = wal.CreateFileLog(n.path + ".log"); err != nil {
		return nil, err
	}
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *node) serve(h esm.Handler, t *tracer) {
	if t != nil {
		h = &tracedHandler{inner: h, t: t, node: n.idx}
	}
	n.done = make(chan struct{})
	go func() {
		esm.Serve(n.ln, h)
		close(n.done)
	}()
}

// stop closes the listener and the replication node and waits for the
// accept loop. The files stay open: crash() or close() decide their fate.
func (n *node) stop() {
	n.ln.Close()
	if n.done != nil {
		<-n.done
	}
	if n.repl != nil {
		n.repl.Close()
	}
}

func (n *node) close() {
	n.log.Close()
	n.fvol.Close()
}

// crash is the outside view of a process that died: everything never
// forced is gone from the log, the volume keeps only what reached the file
// (no pool flush, no header rewrite), and the server object is dropped.
func (n *node) crash() {
	n.log.DiscardUnflushed()
	n.log.Close()
	n.fvol.Abandon()
	n.srv = nil
}

// recoverNode reopens a crashed node's files the way a restart would and
// returns the time esm.OpenServer spent in restart recovery.
func (n *node) recoverNode() (time.Duration, error) {
	var err error
	if n.fvol, err = disk.OpenFileVolume(n.path); err != nil {
		return 0, err
	}
	n.vol = n.fvol
	if n.log, err = wal.OpenFileLog(n.path + ".log"); err != nil {
		return 0, err
	}
	start := time.Now()
	n.srv, err = esm.OpenServer(n.vol, n.log, n.cfg)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return 0, err
	}
	n.serve(n.srv, nil)
	return took, nil
}

// stack is everything one run builds: the server nodes, the client-side
// connections and the scratch directory they live in.
type stack struct {
	dir    string
	t      *tracer // nil for an untraced run
	nodes  []*node
	shards shard.Map // cluster only

	mu     sync.Mutex
	byAddr map[string]int16    // listener address -> node index, for the trace
	muxes  []*esm.MuxTransport // client-side connections, for MuxStats
	peers  []*esm.MuxTransport // connections the nodes open to each other
}

func newStack(outDir, name string, t *tracer) (*stack, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "data-"+name+"-")
	if err != nil {
		return nil, err
	}
	return &stack{dir: dir, t: t, byAddr: map[string]int16{}}, nil
}

// addNode creates the next node's files and listener.
func (st *stack) addNode(cfg esm.ServerConfig) (*node, error) {
	n, err := newNode(st.dir, len(st.nodes), cfg, st.t)
	if err != nil {
		return nil, err
	}
	st.nodes = append(st.nodes, n)
	st.mu.Lock()
	st.byAddr[n.addr()] = n.idx
	st.mu.Unlock()
	return n, nil
}

// singleNode starts one esm.Server over fresh files.
func (st *stack) singleNode(cfg esm.ServerConfig) (*node, error) {
	n, err := st.addNode(cfg)
	if err != nil {
		return nil, err
	}
	if n.srv, err = esm.NewServer(n.vol, n.log, cfg); err != nil {
		return nil, err
	}
	n.serve(n.srv, st.t)
	return n, nil
}

// dial opens one multiplexed connection to a node. sc attributes its calls
// to a session in a traced run; nil marks server-to-server traffic.
func (st *stack) dial(addr string, sc *sessionCtx) (esm.Transport, error) {
	mux, err := esm.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.muxes = append(st.muxes, mux)
	st.mu.Unlock()
	return st.traced(mux, addr, sc), nil
}

// dialPeer is dial for the replication nodes' own connections, which the
// client-side wire metrics leave out.
func (st *stack) dialPeer(addr string) (esm.Transport, error) {
	mux, err := esm.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.peers = append(st.peers, mux)
	st.mu.Unlock()
	return st.traced(mux, addr, nil), nil
}

func (st *stack) traced(mux *esm.MuxTransport, addr string, sc *sessionCtx) esm.Transport {
	if st.t == nil {
		return mux
	}
	st.mu.Lock()
	idx, ok := st.byAddr[addr]
	st.mu.Unlock()
	if !ok {
		idx = -1
	}
	return &tracedTransport{Transport: mux, t: st.t, sc: sc, layer: "wire", node: idx}
}

// cluster starts nShards replica groups of nReplicas nodes each (quorum 2,
// 50 ms heartbeats, no automatic elections: nothing fails in a run, and a
// stalled sandbox must not depose a leader mid-window) and waits until every
// follower is registered and caught up.
func (st *stack) cluster(nShards, nReplicas int, cfg esm.ServerConfig) error {
	var groups []string
	for s := 0; s < nShards; s++ {
		var members []*node
		for r := 0; r < nReplicas; r++ {
			n, err := st.addNode(cfg)
			if err != nil {
				return err
			}
			members = append(members, n)
		}
		var addrs []string
		for r, n := range members {
			addrs = append(addrs, n.addr())
			rc := repl.Config{
				ID:                fmt.Sprintf("s%dr%d", s, r),
				Addr:              n.addr(),
				Quorum:            2,
				HeartbeatInterval: 50 * time.Millisecond,
				Server:            cfg,
				Dial:              st.dialPeer,
			}
			if r == 0 {
				var err error
				if n.srv, err = esm.NewServer(n.vol, n.log, cfg); err != nil {
					return err
				}
				n.repl = repl.NewLeader(n.srv, rc)
			} else {
				n.repl = repl.NewFollower(n.vol, n.log, rc)
			}
			n.serve(n.repl, st.t)
		}
		for _, n := range members[1:] {
			tr, err := st.dialPeer(members[0].addr())
			if err != nil {
				return err
			}
			err = n.repl.RegisterWith(tr)
			tr.Close()
			if err != nil {
				return fmt.Errorf("register %s: %w", n.addr(), err)
			}
		}
		groups = append(groups, strings.Join(addrs, "|"))
	}
	var err error
	if st.shards, err = shard.ParseMap(strings.Join(groups, ",")); err != nil {
		return err
	}
	return st.waitCaughtUp(nReplicas - 1)
}

// leaders returns the nodes that serve client traffic.
func (st *stack) leaders() []*node {
	var out []*node
	for _, n := range st.nodes {
		if n.srv != nil {
			out = append(out, n)
		}
	}
	return out
}

// waitCaughtUp polls the leaders until each ships to want followers and
// none of them trails the durable prefix.
func (st *stack) waitCaughtUp(want int) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range st.leaders() {
		for {
			rs := n.repl.ReplStats()
			if rs.Followers >= want && rs.MaxFollowerGap == 0 && rs.QuorumLSN >= rs.DurableLSN {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: followers of %s not caught up: %+v", n.addr(), *rs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// router opens one session's view of the cluster: shard.Dial over the map,
// replica groups behind repl.Directors.
func (st *stack) router(home int, sc *sessionCtx) (esm.Transport, *shard.Router, error) {
	r, err := shard.Dial(st.shards, func(addr string) (esm.Transport, error) { return st.dial(addr, sc) },
		shard.Config{Affinity: home})
	if err != nil {
		return nil, nil, err
	}
	if st.t == nil || sc == nil {
		return r, r, nil
	}
	tt := &tracedTransport{Transport: r, t: st.t, sc: sc, layer: "router", node: -1}
	return tracedRouter{tracedTransport: tt, stamper: r}, r, nil
}

// closeMuxes closes every client-side connection.
func (st *stack) closeMuxes() {
	st.mu.Lock()
	muxes := st.muxes
	st.muxes = nil
	st.mu.Unlock()
	for _, m := range muxes {
		m.Close()
	}
}

// close tears the stack down and removes its files. Closing twice is
// harmless.
func (st *stack) close() {
	if st == nil || st.dir == "" {
		return
	}
	st.closeMuxes()
	for _, m := range st.peers {
		m.Close()
	}
	for _, n := range st.nodes {
		n.stop()
	}
	for _, n := range st.nodes {
		n.close()
	}
	os.RemoveAll(st.dir)
	st.dir = ""
}

// session is one load-generating client: an esm.Client over a transport,
// and for the OO7 workloads a QuickStore session mapped on top of it.
type session struct {
	slot   int
	sc     *sessionCtx // nil for an untraced run
	tr     esm.Transport
	client *esm.Client
	store  *core.Store
	db     oo7.DB
}

// checkpoint cuts the log through the session, as a span of its own.
func (s *session) checkpoint() error {
	return s.sc.in("session.checkpoint", s.client.Checkpoint)
}

// openSession starts a fresh QuickStore session over tr (runtime mode: full
// recovery logging). bulk selects the generator's bulk-load mode.
func openSession(tr esm.Transport, sc *sessionCtx, slot, pool int, bulk bool) (*session, error) {
	s := &session{slot: slot, sc: sc, tr: tr}
	s.client = esm.NewClient(tr, esm.ClientConfig{BufferPages: pool})
	var err error
	if bulk {
		s.store, err = core.New(s.client, core.Config{BulkLoad: true})
	} else {
		s.store, err = core.Open(s.client, core.Config{})
	}
	if err != nil {
		return nil, err
	}
	s.db = oo7.NewQS(s.store, false)
	if sc != nil {
		s.db = tracedDB{DB: s.db, sc: sc}
	}
	return s, nil
}
