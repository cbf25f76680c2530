package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
)

// Endpoint is one cluster node a Director can route to. Tr may be pre-wired
// (in-process clusters) or nil, in which case the Director dials Addr on
// first use via its Dial config.
type Endpoint struct {
	ID   string
	Addr string
	Tr   esm.Transport
}

// DirectorConfig tunes leader discovery.
type DirectorConfig struct {
	// Retries bounds attempts across redirects and failovers; default 32.
	Retries int
	// Backoff is the sleep before each retry, doubled up to a 500ms cap;
	// default 10ms. It is what rides out an election in progress.
	Backoff time.Duration
	// Dial opens a transport to an address (TCP clusters); nil restricts
	// the Director to the pre-wired endpoints.
	Dial func(addr string) (esm.Transport, error)
}

// Director is a cluster-aware esm.Transport: it routes every request to the
// current leader, follows not-leader redirects, and fails over to the next
// endpoint when a node stops answering. Redirects are always retried (the
// request was refused before executing); transport failures are retried
// only for requests with no server-side effects — the same whitelist as the
// client's transient-retry policy — so an in-doubt commit surfaces to the
// caller instead of being silently replayed.
type Director struct {
	cfg DirectorConfig

	mu  sync.Mutex
	eps []*Endpoint
	cur int
}

// NewDirector builds a Director over the given endpoints.
func NewDirector(eps []Endpoint, cfg DirectorConfig) *Director {
	if cfg.Retries <= 0 {
		cfg.Retries = 32
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	d := &Director{cfg: cfg}
	for i := range eps {
		ep := eps[i]
		d.eps = append(d.eps, &ep)
	}
	return d
}

// current returns the transport for the preferred endpoint, dialing lazily.
func (d *Director) current() (esm.Transport, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.eps) == 0 {
		return nil, 0, errors.New("repl: director has no endpoints")
	}
	ep := d.eps[d.cur]
	if ep.Tr == nil {
		if d.cfg.Dial == nil {
			return nil, d.cur, fmt.Errorf("repl: endpoint %s has no transport and no Dial configured", ep.ID)
		}
		tr, err := d.cfg.Dial(ep.Addr)
		if err != nil {
			return nil, d.cur, err
		}
		ep.Tr = tr
	}
	return ep.Tr, d.cur, nil
}

// advance rotates to the next endpoint if idx is still current (a
// concurrent caller may have already moved on).
func (d *Director) advance(idx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.eps) > 0 && d.cur == idx {
		d.cur = (d.cur + 1) % len(d.eps)
	}
}

// point re-targets the Director at the endpoint advertising addr, adding it
// (to be dialed lazily) when unknown and dialing is configured.
func (d *Director) point(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, ep := range d.eps {
		if ep.Addr == addr {
			d.cur = i
			return
		}
	}
	if d.cfg.Dial != nil && addr != "" {
		d.eps = append(d.eps, &Endpoint{ID: addr, Addr: addr})
		d.cur = len(d.eps) - 1
	}
}

// Call implements esm.Transport.
func (d *Director) Call(req *esm.Request) (*esm.Response, error) {
	backoff := d.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt < d.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
		tr, idx, err := d.current()
		if err != nil {
			lastErr = err
			d.advance(idx)
			continue
		}
		resp, err := tr.Call(req)
		if err != nil {
			if !esm.RetryableOp(req.Op) {
				// The request may have executed before the transport died;
				// replaying it could double-apply. Surface as in doubt.
				return nil, err
			}
			lastErr = err
			d.advance(idx)
			continue
		}
		if IsNotLeader(resp.Err) || IsStaleTerm(resp.Err) {
			lastErr = errors.New(resp.Err)
			if addr := leaderAddrFrom(resp.Err); addr != "" {
				d.point(addr)
			} else {
				d.advance(idx)
			}
			continue // refused before executing: always safe to retry
		}
		if resp.Err != "" && esm.IsSnapshotBehind(errors.New(resp.Err)) {
			// This replica hasn't received a commit (or snapshot LSN) the
			// client already saw; another replica may have it. Refused
			// before executing, so always safe to retry.
			lastErr = errors.New(resp.Err)
			d.advance(idx)
			continue
		}
		if resp.Err != "" && faultinject.IsCrash(errors.New(resp.Err)) {
			// Failing over a session-opening Begin is safe: at worst the
			// dead node holds an id nobody uses. So is failing over a
			// commit that begins its own transaction (esm.TxBegin) once
			// the crashed node's latch refused it unrun (IsDown): nothing
			// of it exists anywhere. Any other non-idempotent op, and a
			// beginning commit the crash interrupted mid-flight, may have
			// run — surface it as in doubt.
			unrunBegin := req.Op == esm.OpCommit && req.Tx == esm.TxBegin && faultinject.IsDown(errors.New(resp.Err))
			if req.Op == esm.OpBegin || esm.RetryableOp(req.Op) || unrunBegin {
				lastErr = errors.New(resp.Err)
				d.advance(idx)
				continue
			}
		}
		return resp, nil
	}
	return nil, fmt.Errorf("repl: no leader reachable after %d attempts: %w", d.cfg.Retries, lastErr)
}

// Close implements esm.Transport, closing every endpoint transport the
// Director holds (the Director owns what it dialed; pre-wired in-process
// transports treat Close as a no-op).
func (d *Director) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, ep := range d.eps {
		if ep.Tr != nil {
			if err := ep.Tr.Close(); err != nil && first == nil {
				first = err
			}
			ep.Tr = nil
		}
	}
	return first
}

// Leader probes the cluster for its current leader's status.
func (d *Director) Leader() (*Status, error) {
	resp, err := d.Call(&esm.Request{Op: esm.OpReplAck, Mode: ModeStatus})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return ParseStatus(resp.Data)
}
