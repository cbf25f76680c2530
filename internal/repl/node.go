package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
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

	// HeartbeatInterval paces the frames a leader sends a caught-up
	// follower (heartbeats) and the election monitor's clock. Default 250ms.
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

// peer is the leader's view of one other node and its shipper's state.
// match and acked are guarded by Node.mu; chunk, frame and req belong to
// the peer's shipper goroutine alone, which reuses them for every frame.
// Transports are called with the lock released.
type peer struct {
	id    string
	addr  string
	tr    esm.Transport
	match wal.LSN       // highest durable LSN the peer has acked
	acked uint64        // membership version the peer holds; 0 until it acks one
	cut   wal.LSN       // the peer's log starts at or past it, as acked
	down  bool          // the last call to the peer failed
	wake  chan struct{} // capacity 1: the log's durable signal, a membership change, a promotion

	chunk []byte
	frame []byte
	req   esm.Request
}

// quorumWaiter is one WaitQuorum call waiting for lsn to be quorum-held.
// Its one answer is sent on done under Node.mu as it leaves Node.waiters.
// The node keeps waiters no call is using, timer and channel included, so
// a wait allocates nothing once as many calls as ever waited at once did.
type quorumWaiter struct {
	lsn   wal.LSN
	done  chan error // capacity 1
	timer *time.Timer
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
	lastShip  time.Time // last accepted ship/vote; the election clock
	closed    bool

	// members is the membership (id → addr, including self). memberVer
	// counts its changes; memberList is it as a list, built once per
	// version and never modified. A follower records the leader's term
	// and version of the list it last received (heldTerm, heldVer).
	members    map[string]string
	memberVer  uint64
	memberList []Member
	heldTerm   uint64
	heldVer    uint64

	waiters     []*quorumWaiter // WaitQuorum calls not yet answered
	freeWaiters []*quorumWaiter
	lsnScratch  []wal.LSN // quorumLSNLocked's selection buffer

	// cut and cutThrough are the leading term's last checkpoint
	// (Checkpointed): a follower whose match reached cutThrough is sent
	// both and cuts its log at cut. cutChanged, while a checkpoint waits
	// for its followers, is closed and cleared when a peer acks a cut, a
	// call to one fails, or the node stops leading.
	cut, cutThrough wal.LSN
	cutChanged      chan struct{}

	// cutMu orders what rewrites this node's volume and log from below
	// (a follower's cut, a snapshot install: write) against snapshot reads
	// over them (read). floor is the lowest snapshot LSN the node serves.
	cutMu sync.RWMutex
	floor wal.LSN

	stopc chan struct{}
	wg    sync.WaitGroup

	stats struct {
		elections     atomic.Int64
		quorumCommits atomic.Int64
		quorumWaitNs  atomic.Int64
		shipRounds    atomic.Int64
		shippedEnd    atomic.Uint64 // the furthest log end a frame has carried
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
		memberVer: 1,
		lastShip:  time.Now(),
		stopc:     make(chan struct{}),
		floor:     log.StartLSN(),
	}
	if n.floor > 1 {
		// A cut or an install left the log short of its beginning, and
		// which transactions its missing records belong to is not known
		// here: serve only snapshots at the durable end or later.
		n.floor = log.FlushedLSN() - 1
	}
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
// clusters and tests; TCP clusters use RegisterWith + the leader's Dial)
// and starts its shipper.
func (n *Node) AddPeer(id, addr string, tr esm.Transport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[id]; !ok {
		p := &peer{id: id, addr: addr, tr: tr, wake: make(chan struct{}, 1)}
		n.peers[id] = p
		if !n.closed {
			n.wg.Add(1)
			go n.shipper(p)
		}
	}
	if n.setMemberLocked(id, addr) {
		n.wakeShippersLocked()
	}
}

// setMemberLocked records id's address and reports whether that changed
// the membership, which then gets a new version.
func (n *Node) setMemberLocked(id, addr string) bool {
	if cur, ok := n.members[id]; ok && cur == addr {
		return false
	}
	n.members[id] = addr
	n.memberVer++
	n.memberList = nil
	return true
}

// memberListLocked returns the membership as a list, built once per
// version: callers share it and must not modify it.
func (n *Node) memberListLocked() []Member {
	if n.memberList == nil {
		ms := make([]Member, 0, len(n.members))
		for id, addr := range n.members {
			ms = append(ms, Member{ID: id, Addr: addr})
		}
		n.memberList = ms
	}
	return n.memberList
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
	n.failWaitersLocked(ErrClosed)
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
// leadership or candidacy.
func (n *Node) adoptTermLocked(term uint64) {
	n.term = term
	n.stepDownLocked()
	n.leaderID = ""
}

// stepDownLocked makes the node a follower. In-flight WaitQuorum calls
// are answered ErrFenced: this node can no longer ack a commit.
func (n *Node) stepDownLocked() {
	if n.role != RoleFollower {
		n.role = RoleFollower
		n.failWaitersLocked(ErrFenced)
		n.cut, n.cutThrough = 0, 0
		n.signalCutLocked()
	}
}

// followLocked records that this node follows the leader of term: it
// votes for no other candidate in the term. Without it a node that never
// heard from the leader could campaign at the leader's own term and win
// the votes of nodes that follow it: two leaders in one term.
func (n *Node) followLocked(term uint64) {
	if n.votedTerm != term {
		n.votedTerm, n.votedFor = term, n.leaderID
	}
}

func (n *Node) wakeShippersLocked() {
	for _, p := range n.peers {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// handleAppend applies one shipped WAL chunk (follower side). The response
// always reports the follower's durable LSN in N; Page is ackSnapshot when
// only a snapshot can resynchronize this follower (compacted cursor or
// divergent bytes), and Mode is ackNeedMembers while it does not hold the
// frame's membership version, which the leader then sends. The leader's
// id rides (Name) with the member list. A stale term is fenced with an
// error.
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
	n.stepDownLocked()
	if req.Name != "" {
		n.leaderID = req.Name
	}
	n.followLocked(term)
	n.lastShip = time.Now()
	if p.Members != nil {
		for _, m := range p.Members {
			n.setMemberLocked(m.ID, m.Addr)
		}
		n.heldTerm, n.heldVer = term, p.MembersVer
	}
	needMembers := n.heldTerm != term || n.heldVer != p.MembersVer
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
	resp := esm.PooledResponse()
	if p.Through != 0 && n.cutAt(p.Cut, p.Through) {
		resp.Mode = ackCut
	}
	resp.N = uint64(n.log.FlushedLSN())
	if needSnap {
		resp.Page = ackSnapshot
	}
	if needMembers {
		resp.Mode |= ackNeedMembers
	}
	return resp
}

// cutAt is a follower's half of its leader's checkpoint: once its log is
// durable through through, it redoes every record below cut onto its
// volume, syncs the volume, and only then cuts the log there, so that a
// crash at any step leaves a log that still recovers the volume. A
// snapshot at through or later finds every transaction with a record
// below cut resolved, so through-1 becomes the lowest it serves. It reports
// whether the log starts at or past cut.
func (n *Node) cutAt(cut, through wal.LSN) bool {
	if n.log.StartLSN() >= cut {
		return true
	}
	if n.log.FlushedLSN() < through {
		return false // not there yet: a later frame carries the cut again
	}
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	if n.log.StartLSN() >= cut {
		return true
	}
	if err := esm.RedoBefore(n.vol, n.log, cut, through); err != nil {
		return false
	}
	if err := n.vol.Sync(); err != nil {
		return false
	}
	if err := n.cfg.Fault.Hit(faultinject.PtCheckpointBeforeTruncate); err != nil {
		return false
	}
	if err := n.log.TruncateBefore(cut); err != nil {
		return false
	}
	n.floor = max(n.floor, through-1)
	return n.log.StartLSN() >= cut
}

// handleSnapshot installs a full state transfer: every shipped page
// overwrites the local volume (pages beyond the leader's geometry are zeroed
// — a rejoining deposed leader must not keep divergent-future pages whose
// LSNs would confuse redo) and is synced, and only then is the log replaced
// wholesale. So the durable end the node reports reaches the leader's only
// once the volume holds the snapshot's pages: a crash mid-install leaves the
// old log over a volume partly new, which the next install overwrites, never
// a log whose records below LogStart are gone over stale pages.
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
	n.stepDownLocked()
	n.leaderID = req.Name
	n.followLocked(term)
	n.lastShip = time.Now()
	for _, m := range p.Members {
		n.setMemberLocked(m.ID, m.Addr)
	}
	n.heldTerm, n.heldVer = term, p.MembersVer
	n.mu.Unlock()

	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	if n.vol.NumPages() < p.NumPages {
		if err := n.vol.Grow(p.NumPages); err != nil {
			return &esm.Response{Err: err.Error()}
		}
	}
	page := make([]byte, disk.PageSize)
	for _, pg := range p.Pages {
		pg.Data.Apply(page)
		if err := n.vol.WritePage(disk.PageID(pg.ID), page); err != nil {
			return &esm.Response{Err: err.Error()}
		}
	}
	if myNum := n.vol.NumPages(); myNum > p.NumPages {
		clear(page)
		for pid := p.NumPages; pid < myNum; pid++ {
			if err := n.vol.WritePage(disk.PageID(pid), page); err != nil {
				return &esm.Response{Err: err.Error()}
			}
		}
	}
	if err := n.vol.Sync(); err != nil {
		return &esm.Response{Err: err.Error()}
	}
	if err := n.log.LoadSnapshot(p.LogStart, p.Log); err != nil {
		return &esm.Response{Err: err.Error()}
	}
	// The images may hold bytes of transactions whose records lie below
	// LogStart and which ended only before the snapshot was built, when
	// the log ended where it ends now: no earlier snapshot is served.
	n.floor = n.log.FlushedLSN() - 1
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
// which cases the commit must not be acked. It ships nothing itself: every
// follower's shipper already woke when the leader forced lsn, and the ack
// that makes lsn quorum-held answers this call (wakeWaitersLocked), so a
// commit waits for the quorum-th fastest replica.
func (n *Node) WaitQuorum(lsn wal.LSN) error {
	start := time.Now()
	n.mu.Lock()
	switch {
	case n.closed:
		n.mu.Unlock()
		return ErrClosed
	case n.role != RoleLeader:
		n.mu.Unlock()
		return ErrFenced
	case n.quorumReachedLocked(lsn):
		n.mu.Unlock()
		n.noteQuorum(start)
		return nil
	}
	w := n.waiterLocked(lsn)
	n.mu.Unlock()
	w.timer.Reset(n.cfg.QuorumTimeout)
	var err error
	select {
	case err = <-w.done:
	case <-w.timer.C:
		n.mu.Lock()
		if n.dropWaiterLocked(w) {
			err = ErrQuorumTimeout
		} else {
			err = <-w.done // answered, under mu, as the timer fired: never blocks
		}
		n.mu.Unlock()
	}
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	n.mu.Lock()
	n.freeWaiters = append(n.freeWaiters, w)
	n.mu.Unlock()
	if err == nil {
		n.noteQuorum(start)
	}
	return err
}

// Checkpointed implements esm.QuorumWaiter: the leader's checkpoint has
// cut its log at cut, and through was its durable end then. Every follower
// whose match reaches through is sent the pair and cuts its own log there
// (cutAt); the call returns once each follower that held the log at cut
// when it was made has acked the cut or failed a call, or after
// QuorumTimeout. A follower behind or down cuts when it catches up, by
// ship frame or by snapshot.
func (n *Node) Checkpointed(cut, through wal.LSN) {
	n.cutMu.Lock()
	n.floor = max(n.floor, through-1)
	n.cutMu.Unlock()
	n.mu.Lock()
	if n.closed || n.role != RoleLeader || through <= n.cutThrough {
		n.mu.Unlock()
		return
	}
	term := n.term
	n.cut, n.cutThrough = cut, through
	var wait []*peer
	for _, p := range n.peers {
		if p.match >= cut && p.cut < cut && !p.down {
			wait = append(wait, p)
		}
	}
	n.wakeShippersLocked()
	n.mu.Unlock()

	timeout := time.NewTimer(n.cfg.QuorumTimeout)
	defer timeout.Stop()
	for {
		n.mu.Lock()
		waiting := n.term == term && n.role == RoleLeader && slices.ContainsFunc(wait, func(p *peer) bool {
			return p.cut < cut && !p.down
		})
		if !waiting {
			n.mu.Unlock()
			return
		}
		if n.cutChanged == nil {
			n.cutChanged = make(chan struct{})
		}
		changed := n.cutChanged
		n.mu.Unlock()
		select {
		case <-changed:
		case <-timeout.C:
			return
		case <-n.stopc:
			return
		}
	}
}

// cutDueLocked reports whether p is to be sent the leader's cut: its log
// is verified through cutThrough and it has not acked holding the cut.
func (n *Node) cutDueLocked(p *peer) bool {
	return n.cutThrough != 0 && p.match >= n.cutThrough && p.cut < n.cut
}

// peerFailed records that a call to p failed: a checkpoint no longer
// waits for p's cut.
func (n *Node) peerFailed(p *peer) {
	n.mu.Lock()
	p.down = true
	n.signalCutLocked()
	n.mu.Unlock()
}

// signalCutLocked wakes a checkpoint waiting on its followers' cuts.
func (n *Node) signalCutLocked() {
	if n.cutChanged != nil {
		close(n.cutChanged)
		n.cutChanged = nil
	}
}

func (n *Node) noteQuorum(start time.Time) {
	n.stats.quorumCommits.Add(1)
	n.stats.quorumWaitNs.Add(time.Since(start).Nanoseconds())
}

// waiterLocked registers a waiter for lsn, reusing a free one.
func (n *Node) waiterLocked(lsn wal.LSN) *quorumWaiter {
	var w *quorumWaiter
	if k := len(n.freeWaiters); k > 0 {
		w = n.freeWaiters[k-1]
		n.freeWaiters = n.freeWaiters[:k-1]
	} else {
		w = &quorumWaiter{done: make(chan error, 1), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	w.lsn = lsn
	n.waiters = append(n.waiters, w)
	return w
}

// dropWaiterLocked removes w from the waiters, reporting whether it was
// there (no answer was sent to it yet).
func (n *Node) dropWaiterLocked(w *quorumWaiter) bool {
	for i, x := range n.waiters {
		if x == w {
			last := len(n.waiters) - 1
			n.waiters[i] = n.waiters[last]
			n.waiters[last] = nil
			n.waiters = n.waiters[:last]
			return true
		}
	}
	return false
}

// wakeWaitersLocked answers every waiter whose LSN a quorum now holds,
// and no other.
func (n *Node) wakeWaitersLocked() {
	if len(n.waiters) == 0 {
		return
	}
	q := n.quorumLSNLocked()
	for i := 0; i < len(n.waiters); {
		w := n.waiters[i]
		if w.lsn >= q {
			i++
			continue
		}
		w.done <- nil // never blocks: one answer per wait, into capacity 1
		n.dropWaiterLocked(w)
	}
}

// failWaitersLocked answers every waiter with err.
func (n *Node) failWaitersLocked(err error) {
	for i, w := range n.waiters {
		w.done <- err // never blocks, as in wakeWaitersLocked
		n.waiters[i] = nil
	}
	n.waiters = n.waiters[:0]
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
	lsns := append(n.lsnScratch[:0], n.log.FlushedLSN())
	for _, p := range n.peers {
		lsns = append(lsns, p.match)
	}
	n.lsnScratch = lsns
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

// shipper is follower p's one goroutine for the node's life. It ships
// when the log's durable end moves (the log signals p.wake), when the
// membership changes or the node is promoted (both signal p.wake too),
// and on every heartbeat tick, which keeps the follower's election clock
// at bay; it ships only while the node leads.
func (n *Node) shipper(p *peer) {
	defer n.wg.Done()
	n.log.NotifyDurable(p.wake)
	defer n.log.StopNotify(p.wake)
	hb := time.NewTicker(n.cfg.HeartbeatInterval)
	defer hb.Stop()
	beat := true
	for {
		n.shipTo(p, beat)
		select {
		case <-n.stopc:
			return
		case <-p.wake:
			beat = false
		case <-hb.C:
			beat = true
		}
	}
}

// shipTo brings follower p up to the leader's durable end, chunk by chunk,
// falling back to a snapshot when the follower's position is compacted or
// its bytes diverge. A follower already there and holding the membership
// gets a frame only as a heartbeat (beat). A frame carries the member list
// while the follower does not hold the current membership version.
func (n *Node) shipTo(p *peer, beat bool) {
	const maxChunk = 1 << 20
	for iter := 0; iter < 64; iter++ {
		n.mu.Lock()
		if n.closed || n.role != RoleLeader || n.srv == nil {
			n.mu.Unlock()
			return
		}
		term, from, ver := n.term, p.match, n.memberVer
		var members []Member
		if p.acked != ver {
			members = n.memberListLocked()
		}
		var cut, through wal.LSN
		if n.cutDueLocked(p) {
			cut, through = n.cut, n.cutThrough
		}
		n.mu.Unlock()
		if from < 1 {
			from = 1
		}
		durable := n.log.FlushedLSN()
		if from >= durable && members == nil && through == 0 && !beat {
			return // caught up
		}
		if iter == 0 {
			if err := n.cfg.Fault.Hit(faultinject.PtReplShip); err != nil {
				// Crash latches the node dead (Handle refuses everything);
				// transient models follower lag / a partition: skip the pass.
				return
			}
		}
		p.chunk = p.chunk[:0]
		if from < durable {
			budget := int(durable - from)
			if budget > maxChunk {
				budget = maxChunk
			}
			var err error
			if p.chunk, err = n.log.AppendDurable(p.chunk, from, budget); errors.Is(err, wal.ErrCompacted) {
				n.sendSnapshot(p, term)
				return
			}
		}
		payload := shipPayload{LeaderDurable: durable, Log: p.chunk, MembersVer: ver, Members: members, Cut: cut, Through: through}
		p.frame = payload.appendTo(p.frame[:0])
		p.req = esm.Request{Op: esm.OpReplAppend, Tx: term, N: uint64(from), Data: p.frame}
		if members != nil {
			p.req.Name = n.cfg.ID
		}
		resp, err := p.tr.Call(&p.req)
		if err != nil || resp.Err != "" {
			if err == nil && IsStaleTerm(resp.Err) {
				n.observeFence(term)
			}
			resp.Release()
			n.peerFailed(p)
			return // unreachable or fenced: retry on the next wake
		}
		ack := wal.LSN(resp.N)
		snap, needMembers := resp.Page == ackSnapshot, resp.Mode&ackNeedMembers != 0
		cutHeld := through != 0 && resp.Mode&ackCut != 0
		resp.Release()
		n.noteShipped(from+wal.LSN(len(p.chunk)), len(p.chunk))

		n.mu.Lock()
		p.down = false
		if n.term != term || n.role != RoleLeader {
			n.mu.Unlock()
			return
		}
		progress := ack > p.match
		if progress {
			p.match = ack
			n.wakeWaitersLocked()
		}
		switch {
		case needMembers:
			progress = progress || members == nil // the next frame carries the list
			p.acked = 0
		case members != nil:
			p.acked, progress = ver, true
		}
		if cutHeld && cut > p.cut {
			p.cut, progress = cut, true
			n.signalCutLocked()
		}
		done := p.match >= durable && p.acked == n.memberVer && !n.cutDueLocked(p)
		n.mu.Unlock()
		if snap {
			n.sendSnapshot(p, term)
			return
		}
		if done || !progress {
			return // caught up, or stuck: the next wake retries
		}
		beat = false
	}
}

// noteShipped counts a frame's log bytes, and a ship round when the frame
// carried the log to an end no earlier frame reached: one durable advance
// shipped to every follower is one round.
func (n *Node) noteShipped(end wal.LSN, bytes int) {
	if bytes == 0 {
		return
	}
	n.stats.shipBytes.Add(int64(bytes))
	for {
		prev := n.stats.shippedEnd.Load()
		if uint64(end) <= prev {
			return
		}
		if n.stats.shippedEnd.CompareAndSwap(prev, uint64(end)) {
			n.stats.shipRounds.Add(1)
			return
		}
	}
}

// sendSnapshot performs a full state transfer to one follower. A snapshot
// always carries the member list and its version, so the follower's ack
// settles the version as a ship frame's would.
func (n *Node) sendSnapshot(p *peer, term uint64) {
	n.mu.Lock()
	srv := n.srv
	ver, members := n.memberVer, n.memberListLocked()
	n.mu.Unlock()
	if srv == nil {
		return
	}
	frame, start, err := n.buildSnapshot(srv, ver, members)
	if err != nil {
		return
	}
	// Counted as it goes out: the follower may install it, and be seen
	// caught up, before this call returns.
	n.stats.snapshots.Add(1)
	resp, err := p.tr.Call(&esm.Request{
		Op:   esm.OpReplSnapshot,
		Tx:   term,
		N:    uint64(start),
		Name: n.cfg.ID,
		Data: frame,
	})
	if err != nil || resp.Err != "" {
		if err == nil && IsStaleTerm(resp.Err) {
			n.observeFence(term)
		}
		n.peerFailed(p)
		return
	}
	n.mu.Lock()
	p.down = false
	if n.term == term && n.role == RoleLeader {
		p.acked = ver
		if ack := wal.LSN(resp.N); ack > p.match {
			p.match = ack
			n.wakeWaitersLocked()
		}
		// The installed log starts where this one did, at or past its
		// last cut.
		if start > p.cut {
			p.cut = start
			n.signalCutLocked()
		}
	}
	n.mu.Unlock()
	resp.Release()
}

// buildSnapshot captures a fuzzy but consistent cut of the leader as a
// snapshot frame, and returns it with the LSN its log starts at: pool
// flushed first (raw large-object pages have no log records to reship),
// then every volume page, read into one buffer and encoded sparse straight
// into the frame, then the log — cut last, so it covers the pageLSN of
// anything flushed while pages were being read. Page images the log
// postdates are simply re-redone on the follower at promotion.
func (n *Node) buildSnapshot(srv *esm.Server, ver uint64, members []Member) ([]byte, wal.LSN, error) {
	if err := srv.FlushPool(); err != nil {
		return nil, 0, err
	}
	num := n.vol.NumPages()
	pages := int(max(num, 1) - 1)
	// Sized for every page raw, the most the pages can take: the frame is
	// never regrown while they are encoded into it.
	frame := appendSnapHead(make([]byte, 0, 8+pages*(8+disk.PageSize)), num, pages)
	page := make([]byte, disk.PageSize)
	for pid := uint32(1); pid < num; pid++ {
		if err := n.vol.ReadPage(disk.PageID(pid), page); err != nil {
			return nil, 0, err
		}
		frame = appendSnapPage(frame, pid, page)
	}
	start := n.log.StartLSN()
	logBytes, err := n.log.DurableFrom(start, 0)
	if err != nil {
		return nil, 0, err
	}
	return appendSnapTail(frame, start, logBytes, ver, members), start, nil
}

// observeFence is the shipper noticing a follower on a newer term: step
// down immediately (the new term itself arrives with the next ship or
// vote from the new leader).
func (n *Node) observeFence(sawTerm uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader && n.term == sawTerm {
		n.stepDownLocked()
		n.leaderID = ""
	}
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
	members := n.memberListLocked()
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
	// old term, and only shipping from zero lets AppendRaw catch it. The
	// first frame of the term carries the member list.
	for _, p := range n.peers {
		p.match, p.acked, p.cut = 0, 0, 0
	}
	n.wakeShippersLocked()
	n.mu.Unlock()
	srv.SetRepl(n)
	n.stats.elections.Add(1)
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
