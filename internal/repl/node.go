package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/wal"
)

// Role is a node's place in the cluster.
type Role int32

// Node roles.
const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("Role(%d)", int32(r))
}

// Errors surfaced by the quorum gate and cluster plumbing.
var (
	ErrFenced        = errors.New("repl: term fenced during quorum wait")
	ErrClosed        = errors.New("repl: node closed")
	ErrQuorumTimeout = errors.New("repl: quorum wait timed out (replication stalled)")
)

// Config tunes a replication node.
type Config struct {
	ID   string // unique node name
	Addr string // advertised dialable address; "" for in-process clusters

	// Quorum is how many replicas (counting this node) must hold a commit
	// record durable before the commit is acked. 0 means a majority of the
	// known membership.
	Quorum int

	// HeartbeatInterval paces the leader's empty ship rounds (which double
	// as heartbeats) and the election monitor's clock. Default 250ms.
	HeartbeatInterval time.Duration

	// ElectionTimeout is how long a follower tolerates leader silence
	// before campaigning. <= 0 disables automatic elections — the crash
	// drill triggers Campaign explicitly for determinism.
	ElectionTimeout time.Duration

	// QuorumTimeout bounds WaitQuorum: a partitioned leader fails commits
	// instead of blocking them forever (the client sees the transaction as
	// in doubt). Default 10s.
	QuorumTimeout time.Duration

	// Server configures the esm.Server a promoted follower opens over its
	// local volume and log.
	Server esm.ServerConfig

	// Fault instruments the replication path (PtReplShip) and, like the
	// esm server's plane, latches the whole node dead after a crash fires.
	Fault *faultinject.Plane

	// Dial opens a transport to a peer address; nil for in-process
	// clusters wired with AddPeer.
	Dial func(addr string) (esm.Transport, error)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 250 * time.Millisecond
	}
	if out.QuorumTimeout <= 0 {
		out.QuorumTimeout = 10 * time.Second
	}
	return out
}

// peer is the leader's view of one other node. All fields are guarded by
// Node.mu; transports are called with the lock released.
type peer struct {
	id    string
	addr  string
	tr    esm.Transport
	match wal.LSN // highest durable LSN the peer has acked
}

// Node is one member of a replication cluster. It satisfies esm.Handler:
// replication ops are handled on every role; client ops are forwarded to
// the local esm.Server only while leader, and redirected otherwise. It
// also satisfies esm.QuorumWaiter, gating the leader's commit acks.
//
// Lock order: Node.mu → (wal.Log.mu | volume lock). No esm server lock is
// ever taken under mu (server calls happen with mu released), and peer
// transports are only called with mu released.
type Node struct {
	cfg Config
	vol disk.Volume
	log *wal.Log

	mu        sync.Mutex
	role      Role
	term      uint64
	votedTerm uint64
	votedFor  string
	leaderID  string
	srv       *esm.Server // non-nil while (or after) leading
	peers     map[string]*peer
	members   map[string]string // id → addr, including self
	lastShip  time.Time         // last accepted ship/vote; the election clock
	closed    bool
	quorumGen chan struct{} // closed and replaced on every quorum/role change

	shipReq chan struct{}
	stopc   chan struct{}
	wg      sync.WaitGroup

	stats struct {
		elections     atomic.Int64
		quorumCommits atomic.Int64
		quorumWaitNs  atomic.Int64
		shipRounds    atomic.Int64
		shipBytes     atomic.Int64
		snapshots     atomic.Int64
	}
}

func newNode(vol disk.Volume, log *wal.Log, cfg Config) *Node {
	n := &Node{
		cfg:       cfg.withDefaults(),
		vol:       vol,
		log:       log,
		peers:     map[string]*peer{},
		members:   map[string]string{cfg.ID: cfg.Addr},
		lastShip:  time.Now(),
		quorumGen: make(chan struct{}),
		shipReq:   make(chan struct{}, 1),
		stopc:     make(chan struct{}),
	}
	n.wg.Add(1)
	go n.shipper()
	if n.cfg.ElectionTimeout > 0 {
		n.wg.Add(1)
		go n.electionLoop()
	}
	return n
}

// NewLeader starts a node leading an existing server (term 1). The server's
// commit path is wired to this node's quorum gate.
func NewLeader(srv *esm.Server, cfg Config) *Node {
	n := newNode(srv.Volume(), srv.Log(), cfg)
	n.mu.Lock()
	n.role = RoleLeader
	n.term = 1
	n.leaderID = cfg.ID
	n.srv = srv
	n.mu.Unlock()
	srv.SetRepl(n)
	return n
}

// NewFollower starts a node as a follower over its own (possibly empty)
// volume and log. It serves no client ops until promoted; state arrives
// from the leader via ship and snapshot frames.
func NewFollower(vol disk.Volume, log *wal.Log, cfg Config) *Node {
	return newNode(vol, log, cfg)
}

// ID returns the node's configured name.
func (n *Node) ID() string { return n.cfg.ID }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// DurableLSN returns the node's local durable log position.
func (n *Node) DurableLSN() wal.LSN { return n.log.FlushedLSN() }

// CurrentServer returns the esm.Server this node fronts — non-nil only
// once the node has led. esm.Serve uses it to attribute transport counters.
func (n *Node) CurrentServer() *esm.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// AddPeer registers another cluster node by explicit transport (in-process
// clusters and tests; TCP clusters use RegisterWith + the leader's Dial).
func (n *Node) AddPeer(id, addr string, tr esm.Transport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[id]; !ok {
		n.peers[id] = &peer{id: id, addr: addr, tr: tr}
	}
	n.members[id] = addr
	select {
	case n.shipReq <- struct{}{}:
	default:
	}
}

// RegisterWith announces this follower to the leader reachable through tr;
// the leader dials back Config.Addr and starts shipping (snapshot first).
func (n *Node) RegisterWith(tr esm.Transport) error {
	resp, err := tr.Call(&esm.Request{
		Op:   esm.OpReplAck,
		Mode: ModeRegister,
		Name: n.cfg.ID + "\x00" + n.cfg.Addr,
	})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Transport returns an in-process transport into this node's Handle.
func (n *Node) Transport() esm.Transport { return nodeTransport{n} }

type nodeTransport struct{ n *Node }

// Call implements esm.Transport.
func (t nodeTransport) Call(req *esm.Request) (*esm.Response, error) { return t.n.Handle(req), nil }

// Close implements esm.Transport.
func (t nodeTransport) Close() error { return nil }

// Close stops the node's goroutines and closes peer transports it owns.
// The volume, log, and server are left open (they outlive the node in
// drills and restarts).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stopc)
	n.signalQuorumLocked()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	n.wg.Wait()
	for _, p := range peers {
		_ = p.tr.Close()
	}
	return nil
}

// Handle implements esm.Handler. Replication ops are answered on every
// role; client ops run on the local server only while leader and are
// redirected (notLeaderError) otherwise, which is what fences a deposed
// leader's clients over to the new one.
func (n *Node) Handle(req *esm.Request) *esm.Response {
	if n.cfg.Fault.Crashed() {
		// The drill killed this node: every op fails, exactly like the
		// esm server's own crashed latch.
		return &esm.Response{Err: faultinject.ErrDown.Error()}
	}
	switch req.Op {
	case esm.OpReplAppend:
		return n.handleAppend(req)
	case esm.OpReplSnapshot:
		return n.handleSnapshot(req)
	case esm.OpReplAck:
		switch req.Mode {
		case ModeStatus:
			return n.handleStatus()
		case ModeVote:
			return n.handleVote(req)
		case ModeRegister:
			return n.handleRegister(req)
		}
		return &esm.Response{Err: fmt.Sprintf("repl: unknown ack mode %d", req.Mode)}
	}
	n.mu.Lock()
	role, srv := n.role, n.srv
	leaderID, leaderAddr := n.leaderID, n.members[n.leaderID]
	n.mu.Unlock()
	if role == RoleLeader && srv != nil {
		return srv.Handle(req)
	}
	// Snapshot sessions are served on every role: the leader answers from
	// its version store, a follower by per-page point-in-time recovery over
	// its installed volume plus shipped WAL (snapread.go). This is what keeps
	// read-only sessions available across a failover.
	switch {
	case req.Op == esm.OpBeginSnapshot:
		return n.handleSnapBegin(req)
	case req.Op == esm.OpEndSnapshot:
		return &esm.Response{} // follower snapshots pin nothing
	case req.Op == esm.OpReadPages && req.N != 0:
		return n.handleSnapRead(req)
	}
	if leaderID == n.cfg.ID {
		leaderID = "" // deposed mid-flight; don't redirect to ourselves
	}
	return &esm.Response{Err: notLeaderError(leaderID, leaderAddr)}
}

// adoptTermLocked moves the node to a newer term, stepping down from any
// leadership or candidacy. The quorum generation is signaled so in-flight
// WaitQuorum calls observe the fence.
func (n *Node) adoptTermLocked(term uint64) {
	n.term = term
	if n.role != RoleFollower {
		n.role = RoleFollower
	}
	n.leaderID = ""
	n.signalQuorumLocked()
}

func (n *Node) signalQuorumLocked() {
	close(n.quorumGen)
	n.quorumGen = make(chan struct{})
}

func (n *Node) kickShipper() {
	select {
	case n.shipReq <- struct{}{}:
	default:
	}
}

// handleAppend applies one shipped WAL chunk (follower side). The response
// always reports the follower's durable LSN in N; Page is 1 when only a
// snapshot can resynchronize this follower (compacted cursor or divergent
// bytes). A stale term is fenced with an error.
func (n *Node) handleAppend(req *esm.Request) *esm.Response {
	p, err := parseShip(req.Data)
	if err != nil {
		return &esm.Response{Err: err.Error()}
	}
	term := req.Tx
	n.mu.Lock()
	if term < n.term {
		e := staleTermError(term, n.term)
		n.mu.Unlock()
		return &esm.Response{Err: e}
	}
	if term > n.term {
		n.adoptTermLocked(term)
	}
	if n.role != RoleFollower {
		n.role = RoleFollower
		n.signalQuorumLocked()
	}
	n.leaderID = req.Name
	n.lastShip = time.Now()
	for _, m := range p.Members {
		n.members[m.ID] = m.Addr
	}
	n.mu.Unlock()

	needSnap := false
	if len(p.Log) > 0 {
		switch err := n.log.AppendRaw(wal.LSN(req.N), p.Log); {
		case err == nil:
			if ferr := n.log.Flush(); ferr != nil {
				return &esm.Response{Err: ferr.Error()}
			}
		case errors.Is(err, wal.ErrCompacted), errors.Is(err, wal.ErrDiverged):
			needSnap = true
		default:
			// Gap (or unparsable chunk): leave durable as-is; the leader
			// backs its cursor up to the LSN we report and reships.
		}
	}
	resp := &esm.Response{N: uint64(n.log.FlushedLSN())}
	if needSnap {
		resp.Page = 1
	}
	return resp
}

// handleSnapshot installs a full state transfer: the log is replaced
// wholesale and every shipped page image overwrites the local volume
// (pages beyond the leader's geometry are zeroed — a rejoining deposed
// leader must not keep divergent-future pages whose LSNs would confuse
// redo).
func (n *Node) handleSnapshot(req *esm.Request) *esm.Response {
	p, err := parseSnap(req.Data, disk.PageSize)
	if err != nil {
		return &esm.Response{Err: err.Error()}
	}
	term := req.Tx
	n.mu.Lock()
	if term < n.term {
		e := staleTermError(term, n.term)
		n.mu.Unlock()
		return &esm.Response{Err: e}
	}
	if term > n.term {
		n.adoptTermLocked(term)
	}
	n.role = RoleFollower
	n.leaderID = req.Name
	n.lastShip = time.Now()
	for _, m := range p.Members {
		n.members[m.ID] = m.Addr
	}
	n.mu.Unlock()

	if err := n.log.LoadSnapshot(p.LogStart, p.Log); err != nil {
		return &esm.Response{Err: err.Error()}
	}
	if n.vol.NumPages() < p.NumPages {
		if err := n.vol.Grow(p.NumPages); err != nil {
			return &esm.Response{Err: err.Error()}
		}
	}
	for _, pg := range p.Pages {
		if err := n.vol.WritePage(disk.PageID(pg.ID), pg.Data); err != nil {
			return &esm.Response{Err: err.Error()}
		}
	}
	if myNum := n.vol.NumPages(); myNum > p.NumPages {
		zero := make([]byte, disk.PageSize)
		for pid := p.NumPages; pid < myNum; pid++ {
			if err := n.vol.WritePage(disk.PageID(pid), zero); err != nil {
				return &esm.Response{Err: err.Error()}
			}
		}
	}
	if err := n.vol.Sync(); err != nil {
		return &esm.Response{Err: err.Error()}
	}
	return &esm.Response{N: uint64(n.log.FlushedLSN())}
}

func (n *Node) handleStatus() *esm.Response {
	n.mu.Lock()
	st := &Status{
		ID:      n.cfg.ID,
		Role:    n.role.String(),
		Term:    n.term,
		Durable: uint64(n.log.FlushedLSN()),
		Leader:  n.leaderID,
	}
	n.mu.Unlock()
	return &esm.Response{N: st.Durable, Data: statusJSON(st)}
}

// handleVote answers a vote request: grant iff the candidate's term is
// current-or-newer, its durable LSN is at least ours (no acked commit, nor
// the catalog records below it, can be lost by electing it), and we have
// not voted for someone else this term. Granting resets the election clock.
func (n *Node) handleVote(req *esm.Request) *esm.Response {
	term, cand, candDurable := req.Tx, req.Name, wal.LSN(req.N)
	n.mu.Lock()
	defer n.mu.Unlock()
	if term > n.term {
		n.adoptTermLocked(term)
	}
	granted := uint64(0)
	if term >= n.term && candDurable >= n.log.FlushedLSN() &&
		(n.votedTerm != term || n.votedFor == cand) {
		n.votedTerm, n.votedFor = term, cand
		n.lastShip = time.Now()
		granted = 1
	}
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, n.term)
	return &esm.Response{N: granted, Data: data}
}

// handleRegister (leader side) admits a follower announced over the wire.
func (n *Node) handleRegister(req *esm.Request) *esm.Response {
	i := -1
	for j := 0; j < len(req.Name); j++ {
		if req.Name[j] == 0 {
			i = j
			break
		}
	}
	if i < 0 {
		return &esm.Response{Err: "repl: malformed register payload"}
	}
	id, addr := req.Name[:i], req.Name[i+1:]
	n.mu.Lock()
	role := n.role
	leaderID, leaderAddr := n.leaderID, n.members[n.leaderID]
	_, known := n.peers[id]
	n.mu.Unlock()
	if role != RoleLeader {
		return &esm.Response{Err: notLeaderError(leaderID, leaderAddr)}
	}
	if known {
		return &esm.Response{}
	}
	if n.cfg.Dial == nil {
		return &esm.Response{Err: "repl: leader cannot dial followers (no Dial configured)"}
	}
	tr, err := n.cfg.Dial(addr)
	if err != nil {
		return &esm.Response{Err: fmt.Sprintf("repl: dialing follower %s at %s: %v", id, addr, err)}
	}
	n.AddPeer(id, addr, tr)
	return &esm.Response{}
}

// WaitQuorum implements esm.QuorumWaiter: it returns once the log is
// durable through lsn on the configured quorum of replicas, and errs if the
// node loses leadership (fenced), closes, or times out first — in all of
// which cases the commit must not be acked.
func (n *Node) WaitQuorum(lsn wal.LSN) error {
	start := time.Now()
	deadline := start.Add(n.cfg.QuorumTimeout)
	n.mu.Lock()
	term := n.term
	for {
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		if n.role != RoleLeader || n.term != term {
			n.mu.Unlock()
			return ErrFenced
		}
		if n.quorumReachedLocked(lsn) {
			break
		}
		gen := n.quorumGen
		n.mu.Unlock()
		n.kickShipper()
		wait := time.Until(deadline)
		if wait <= 0 {
			return ErrQuorumTimeout
		}
		t := time.NewTimer(wait)
		select {
		case <-gen:
		case <-t.C:
			t.Stop()
			return ErrQuorumTimeout
		case <-n.stopc:
			t.Stop()
			return ErrClosed
		}
		t.Stop()
		n.mu.Lock()
	}
	n.mu.Unlock()
	n.stats.quorumCommits.Add(1)
	n.stats.quorumWaitNs.Add(time.Since(start).Nanoseconds())
	return nil
}

// quorumSizeLocked is the replica count (including this node) that must
// hold a commit durable before it acks.
func (n *Node) quorumSizeLocked() int {
	if n.cfg.Quorum > 0 {
		return n.cfg.Quorum
	}
	return len(n.members)/2 + 1
}

func (n *Node) quorumReachedLocked(lsn wal.LSN) bool {
	count := 0
	if n.log.FlushedLSN() > lsn {
		count++
	}
	for _, p := range n.peers {
		if p.match > lsn {
			count++
		}
	}
	return count >= n.quorumSizeLocked()
}

// quorumLSNLocked is the highest LSN durable on a full quorum: sort the
// replicas' durable positions descending and take the quorum-th.
func (n *Node) quorumLSNLocked() wal.LSN {
	lsns := make([]wal.LSN, 0, 1+len(n.peers))
	lsns = append(lsns, n.log.FlushedLSN())
	for _, p := range n.peers {
		lsns = append(lsns, p.match)
	}
	k := n.quorumSizeLocked()
	if k > len(lsns) {
		return wal.NilLSN
	}
	// Selection by repeated max is fine at cluster sizes.
	for i := 0; i < k; i++ {
		maxAt := i
		for j := i + 1; j < len(lsns); j++ {
			if lsns[j] > lsns[maxAt] {
				maxAt = j
			}
		}
		lsns[i], lsns[maxAt] = lsns[maxAt], lsns[i]
	}
	return lsns[k-1]
}

// shipper is the single goroutine that runs replication rounds: it wakes
// on new durable bytes (log notify), on explicit kicks from WaitQuorum,
// and on the heartbeat tick (an empty round keeps follower election
// clocks at bay). One round serves every commit that joined the batch —
// the replication mirror of group commit.
func (n *Node) shipper() {
	defer n.wg.Done()
	notify := make(chan struct{}, 1)
	n.log.NotifyDurable(notify)
	defer n.log.StopNotify(notify)
	hb := time.NewTicker(n.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-notify:
		case <-n.shipReq:
		case <-hb.C:
		}
		n.shipRound()
	}
}

func (n *Node) shipRound() {
	n.mu.Lock()
	if n.closed || n.role != RoleLeader || n.srv == nil {
		n.mu.Unlock()
		return
	}
	term := n.term
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	members := n.membersSnapshotLocked()
	n.mu.Unlock()

	durable := n.log.FlushedLSN()
	if len(peers) > 0 {
		var wg sync.WaitGroup
		for _, p := range peers {
			wg.Add(1)
			go func(p *peer) {
				defer wg.Done()
				n.shipPeer(p, term, durable, members)
			}(p)
		}
		wg.Wait()
		n.stats.shipRounds.Add(1)
	}
	n.mu.Lock()
	n.signalQuorumLocked()
	n.mu.Unlock()
}

// shipPeer brings one follower up to this round's durable target,
// chunk-by-chunk, falling back to a snapshot when the follower's cursor is
// compacted or its bytes diverge.
func (n *Node) shipPeer(p *peer, term uint64, durable wal.LSN, members []Member) {
	if err := n.cfg.Fault.Hit(faultinject.PtReplShip); err != nil {
		// Crash latches the node dead (Handle refuses everything);
		// transient models follower lag / a partition: skip the round.
		return
	}
	const maxChunk = 1 << 20
	lastAck := wal.NilLSN
	for iter := 0; iter < 64; iter++ {
		n.mu.Lock()
		from := p.match
		n.mu.Unlock()
		if from < 1 {
			from = 1
		}
		var chunk []byte
		var err error
		if from < durable {
			budget := int(durable - from)
			if budget > maxChunk {
				budget = maxChunk
			}
			chunk, err = n.log.DurableFrom(from, budget)
			if errors.Is(err, wal.ErrCompacted) {
				n.sendSnapshot(p, term, members)
				return
			}
		}
		payload := shipPayload{LeaderDurable: durable, Log: chunk, Members: members}
		resp, cerr := p.tr.Call(&esm.Request{
			Op:   esm.OpReplAppend,
			Tx:   term,
			N:    uint64(from),
			Name: n.cfg.ID,
			Data: payload.marshal(),
		})
		if cerr != nil || resp.Err != "" {
			if cerr == nil && IsStaleTerm(resp.Err) {
				n.observeFence(term)
			}
			return // unreachable or fenced: retry next round
		}
		ack := wal.LSN(resp.N)
		n.mu.Lock()
		if ack > p.match {
			p.match = ack
		}
		n.mu.Unlock()
		n.stats.shipBytes.Add(int64(len(chunk)))
		if resp.Page == 1 {
			n.sendSnapshot(p, term, members)
			return
		}
		if ack >= durable {
			return // caught up to this round's target
		}
		if ack == lastAck {
			return // no progress; avoid spinning (next round retries)
		}
		lastAck = ack
	}
}

// sendSnapshot performs a full state transfer to one follower.
func (n *Node) sendSnapshot(p *peer, term uint64, members []Member) {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		return
	}
	snap, err := n.buildSnapshot(srv, members)
	if err != nil {
		return
	}
	resp, err := p.tr.Call(&esm.Request{
		Op:   esm.OpReplSnapshot,
		Tx:   term,
		N:    uint64(snap.LogStart),
		Name: n.cfg.ID,
		Data: snap.marshal(disk.PageSize),
	})
	if err != nil || resp.Err != "" {
		if err == nil && IsStaleTerm(resp.Err) {
			n.observeFence(term)
		}
		return
	}
	n.mu.Lock()
	if ack := wal.LSN(resp.N); ack > p.match {
		p.match = ack
	}
	n.mu.Unlock()
	n.stats.snapshots.Add(1)
}

// buildSnapshot captures a fuzzy but consistent cut of the leader: pool
// flushed first (raw large-object pages have no log records to reship),
// then every volume page, then the log — cut last, so it covers the
// pageLSN of anything flushed while pages were being read. Page images the
// log postdates are simply re-redone on the follower at promotion.
func (n *Node) buildSnapshot(srv *esm.Server, members []Member) (*snapPayload, error) {
	if err := srv.FlushPool(); err != nil {
		return nil, err
	}
	num := n.vol.NumPages()
	snap := &snapPayload{NumPages: num, Members: members}
	for pid := uint32(1); pid < num; pid++ {
		buf := make([]byte, disk.PageSize)
		if err := n.vol.ReadPage(disk.PageID(pid), buf); err != nil {
			return nil, err
		}
		snap.Pages = append(snap.Pages, pageImage{ID: pid, Data: buf})
	}
	start := n.log.StartLSN()
	logBytes, err := n.log.DurableFrom(start, 0)
	if err != nil {
		return nil, err
	}
	snap.LogStart = start
	snap.Log = logBytes
	return snap, nil
}

// observeFence is the shipper noticing a follower on a newer term: step
// down immediately (the new term itself arrives with the next ship or
// vote from the new leader).
func (n *Node) observeFence(sawTerm uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader && n.term == sawTerm {
		n.role = RoleFollower
		n.leaderID = ""
		n.signalQuorumLocked()
	}
}

func (n *Node) membersSnapshotLocked() []Member {
	ms := make([]Member, 0, len(n.members))
	for id, addr := range n.members {
		ms = append(ms, Member{ID: id, Addr: addr})
	}
	return ms
}

// Campaign runs one election round: bump the term, vote for ourselves,
// solicit the cluster, and promote on a majority. The vote rule (term +
// highest durable LSN) guarantees the winner's log contains every
// quorum-acked commit, so replaying its local WAL (restart recovery in
// OpenServer) reconstructs all acked state.
func (n *Node) Campaign() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role == RoleLeader {
		n.mu.Unlock()
		return nil
	}
	n.term++
	term := n.term
	n.role = RoleCandidate
	n.votedTerm, n.votedFor = term, n.cfg.ID
	members := n.membersSnapshotLocked()
	n.mu.Unlock()

	durable := n.log.FlushedLSN()
	votes := 1 // our own
	for _, m := range members {
		if m.ID == n.cfg.ID {
			continue
		}
		tr := n.peerTransport(m)
		if tr == nil {
			continue
		}
		resp, err := tr.Call(&esm.Request{
			Op:   esm.OpReplAck,
			Mode: ModeVote,
			Tx:   term,
			N:    uint64(durable),
			Name: n.cfg.ID,
		})
		if err != nil || resp.Err != "" {
			continue // dead or unreachable voter
		}
		if len(resp.Data) >= 8 {
			if voterTerm := binary.LittleEndian.Uint64(resp.Data); voterTerm > term {
				n.mu.Lock()
				if voterTerm > n.term {
					n.adoptTermLocked(voterTerm)
				}
				n.mu.Unlock()
				return fmt.Errorf("repl: campaign for term %d lost to term %d", term, voterTerm)
			}
		}
		if resp.N == 1 {
			votes++
		}
	}
	need := len(members)/2 + 1
	if votes < need {
		n.mu.Lock()
		if n.role == RoleCandidate && n.term == term {
			n.role = RoleFollower
		}
		n.mu.Unlock()
		return fmt.Errorf("repl: campaign for term %d got %d/%d votes", term, votes, need)
	}
	return n.promote(term)
}

// promote opens an esm.Server over the local volume and log — full restart
// recovery replays the WAL (redo winners, undo losers with CLRs) — and
// starts leading. The election guarantee makes this safe: our durable log
// contains every quorum-acked commit; the tail beyond the last quorum LSN
// replays transaction-atomically (commits whose record made it here land
// in full; the rest roll back), which is exactly the single-node crash
// contract.
func (n *Node) promote(term uint64) error {
	srv, err := esm.OpenServer(n.vol, n.log, n.cfg.Server)
	if err != nil {
		n.mu.Lock()
		if n.role == RoleCandidate && n.term == term {
			n.role = RoleFollower
		}
		n.mu.Unlock()
		return fmt.Errorf("repl: promoting %s: %w", n.cfg.ID, err)
	}
	n.mu.Lock()
	if n.term != term || n.role != RoleCandidate {
		n.mu.Unlock()
		return ErrFenced
	}
	n.role = RoleLeader
	n.leaderID = n.cfg.ID
	n.srv = srv
	// Force a full reship (with overlap verification) to every peer: a
	// follower that did not vote for us may hold a divergent tail from the
	// old term, and only shipping from zero lets AppendRaw catch it.
	for _, p := range n.peers {
		p.match = 0
	}
	n.signalQuorumLocked()
	n.mu.Unlock()
	srv.SetRepl(n)
	n.stats.elections.Add(1)
	n.kickShipper()
	return nil
}

// peerTransport finds (or dials) a transport to a member.
func (n *Node) peerTransport(m Member) esm.Transport {
	n.mu.Lock()
	p := n.peers[m.ID]
	n.mu.Unlock()
	if p != nil {
		return p.tr
	}
	if n.cfg.Dial == nil || m.Addr == "" {
		return nil
	}
	tr, err := n.cfg.Dial(m.Addr)
	if err != nil {
		return nil
	}
	n.AddPeer(m.ID, m.Addr, tr)
	return tr
}

// electionLoop watches for leader silence and campaigns. Jitter is
// deterministic per node id so colliding candidacies settle without a
// random source.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	h := fnv.New32a()
	h.Write([]byte(n.cfg.ID))
	jitter := time.Duration(h.Sum32()%1000) * n.cfg.ElectionTimeout / 2000
	timeout := n.cfg.ElectionTimeout + jitter
	tick := time.NewTicker(n.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		idle := time.Since(n.lastShip)
		role := n.role
		clusterKnown := len(n.members) > 1
		n.mu.Unlock()
		if role == RoleFollower && clusterKnown && idle > timeout {
			_ = n.Campaign()
		}
	}
}

// ReplStats implements esm.QuorumWaiter's telemetry half.
func (n *Node) ReplStats() *esm.ReplStats {
	n.mu.Lock()
	durable := n.log.FlushedLSN()
	st := &esm.ReplStats{
		Role:       n.role.String(),
		Term:       n.term,
		Leader:     n.leaderID,
		Quorum:     n.quorumSizeLocked(),
		Followers:  len(n.peers),
		DurableLSN: uint64(durable),
		QuorumLSN:  uint64(n.quorumLSNLocked()),
	}
	for _, p := range n.peers {
		if gap := uint64(durable) - uint64(p.match); p.match <= durable && gap > st.MaxFollowerGap {
			st.MaxFollowerGap = gap
		}
	}
	n.mu.Unlock()
	st.Elections = n.stats.elections.Load()
	st.QuorumCommits = n.stats.quorumCommits.Load()
	st.QuorumWaitNs = n.stats.quorumWaitNs.Load()
	st.ShipRounds = n.stats.shipRounds.Load()
	st.ShipBytes = n.stats.shipBytes.Load()
	st.SnapshotsSent = n.stats.snapshots.Load()
	return st
}
