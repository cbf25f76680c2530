// Package lock implements the storage manager's lock manager: shared and
// exclusive locks at page and file granularity, lock upgrade, blocking with
// a timeout-based deadlock escape, and release-all at transaction end —
// the services ESM provides in the paper ("locking is provided at the page
// and file levels").
//
// Waiters are granted in strict FIFO order: a new request never overtakes
// the wait queue, so a stream of compatible readers cannot starve a queued
// writer (and vice versa). The only requests allowed to barge are upgrades
// (Shared holder wanting Exclusive), which already hold the resource —
// queueing an upgrade behind an Exclusive waiter would deadlock it against
// its own Shared hold.
//
// Index pages use short latches outside this manager (the paper's "special
// non-2PL protocol for index pages"); see internal/btree.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String names the lock mode.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Kind is the granularity of a lockable resource.
type Kind uint8

// Resource kinds.
const (
	KindPage Kind = iota + 1
	KindFile
)

// Resource names a lockable object.
type Resource struct {
	Kind Kind
	ID   uint64
}

// PageRes builds a page resource.
func PageRes(pid uint32) Resource { return Resource{Kind: KindPage, ID: uint64(pid)} }

// FileRes builds a file resource.
func FileRes(fid uint32) Resource { return Resource{Kind: KindFile, ID: uint64(fid)} }

// ErrDeadlock is returned when a lock wait exceeds the manager's timeout;
// the caller should abort the transaction.
var ErrDeadlock = errors.New("lock: wait timeout (presumed deadlock)")

// waiter is one queued Acquire. ready is closed (under Manager.mu) when
// the waiter leaves the queue: granted, or failed by the expiry of a waiter
// behind it (err is set before the close).
type waiter struct {
	tx       uint64
	mode     Mode
	deadline time.Time
	ready    chan struct{}
	err      error
}

// holder is one transaction's grant on a resource, at its strongest mode.
type holder struct {
	tx   uint64
	mode Mode
}

type entry struct {
	holders []holder  // at most one per transaction
	queue   []*waiter // FIFO wait queue
}

// modeOf returns the mode tx holds on e (0 if none).
func (e *entry) modeOf(tx uint64) Mode {
	for _, h := range e.holders {
		if h.tx == tx {
			return h.mode
		}
	}
	return 0
}

// Manager grants and releases locks. The zero value is not usable; call New.
//
// A transaction locks hundreds of pages and releases them all at once, so
// the bookkeeping is recycled rather than reallocated: an entry leaving the
// table and a finished transaction's resource list go to free lists (under
// mu, like everything else) and are handed to the next taker.
type Manager struct {
	mu      sync.Mutex
	table   map[Resource]*entry
	held    map[uint64][]Resource // tx -> resources it holds, each once
	timeout time.Duration
	grants  int64
	waits   int64

	freeEntries []*entry
	freeHeld    [][]Resource
}

// New creates a Manager with the given wait timeout (0 means a sensible
// default of one second).
func New(timeout time.Duration) *Manager {
	if timeout <= 0 {
		timeout = time.Second
	}
	return &Manager{
		table:   map[Resource]*entry{},
		held:    map[uint64][]Resource{},
		timeout: timeout,
	}
}

func compatible(e *entry, tx uint64, mode Mode) bool {
	for _, h := range e.holders {
		if h.tx == tx {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// entryLocked returns res's table entry, creating it; caller holds m.mu.
func (m *Manager) entryLocked(res Resource) *entry {
	e := m.table[res]
	if e == nil {
		if n := len(m.freeEntries); n > 0 {
			e, m.freeEntries = m.freeEntries[n-1], m.freeEntries[:n-1]
		} else {
			e = &entry{}
		}
		m.table[res] = e
	}
	return e
}

// dropIfIdleLocked removes e from the table once nothing holds or awaits
// res; caller holds m.mu. A queued waiter keeps its entry alive, so the
// pointer a blocked Acquire holds is never one that was recycled.
func (m *Manager) dropIfIdleLocked(res Resource, e *entry) {
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.table, res)
		e.queue = nil
		m.freeEntries = append(m.freeEntries, e)
	}
}

// grantLocked records the grant; caller holds m.mu.
func (m *Manager) grantLocked(e *entry, tx uint64, res Resource, mode Mode) {
	m.grants++
	for i := range e.holders {
		if h := &e.holders[i]; h.tx == tx {
			if h.mode < mode {
				h.mode = mode
			}
			return
		}
	}
	e.holders = append(e.holders, holder{tx, mode})
	list, ok := m.held[tx]
	if !ok {
		if n := len(m.freeHeld); n > 0 {
			list, m.freeHeld = m.freeHeld[n-1], m.freeHeld[:n-1]
		}
	}
	m.held[tx] = append(list, res)
}

// promoteLocked grants queued waiters strictly in FIFO order, stopping at
// the first waiter that cannot be granted — later compatible waiters do
// not barge past it. Caller holds m.mu.
func (m *Manager) promoteLocked(res Resource, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !compatible(e, w.tx, w.mode) {
			break
		}
		e.queue = e.queue[1:]
		m.grantLocked(e, w.tx, res, w.mode)
		close(w.ready)
	}
	m.dropIfIdleLocked(res, e)
}

// Acquire obtains res in the given mode for tx, blocking until it is granted
// or the timeout elapses. Re-acquiring a held lock is a no-op; acquiring
// Exclusive over a held Shared lock upgrades it.
func (m *Manager) Acquire(tx uint64, res Resource, mode Mode) error {
	m.mu.Lock()
	e := m.entryLocked(res)
	held := e.modeOf(tx)
	holds := held != 0
	if held == Exclusive || held == mode {
		m.mu.Unlock()
		return nil // already strong enough
	}
	// Immediate grant: compatible, and either nothing is queued ahead of
	// us (FIFO) or we are an upgrade (which may barge; see package doc).
	if compatible(e, tx, mode) && (holds || len(e.queue) == 0) {
		m.grantLocked(e, tx, res, mode)
		m.mu.Unlock()
		return nil
	}
	m.waits++
	w := &waiter{tx: tx, mode: mode, deadline: time.Now().Add(m.timeout), ready: make(chan struct{})}
	if holds {
		// Upgrades queue at the front: they hold Shared, so anything
		// queued ahead that needs Exclusive can never run first anyway.
		e.queue = append([]*waiter{w}, e.queue...)
	} else {
		e.queue = append(e.queue, w)
	}
	m.mu.Unlock()

	timer := time.NewTimer(m.timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		return w.err
	case <-timer.C:
	}
	return m.expire(res, e, w)
}

// expire handles w's timer firing. Timers of waiters queued on one
// resource may run in any order, so w first fails every waiter ahead of it
// whose deadline has passed, then promotes: a waiter is never failed behind
// one that had already expired. Only if w is still not granted does it
// leave the queue itself.
func (m *Manager) expire(res Resource, e *entry, w *waiter) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-w.ready:
		return w.err // granted, or failed, before we got the lock; e may be recycled
	default:
	}
	now := time.Now()
	for i := 0; e.queue[i] != w; {
		q := e.queue[i]
		if now.Before(q.deadline) {
			i++
			continue
		}
		q.err = timeoutError(q, res)
		close(q.ready)
		e.queue = append(e.queue[:i], e.queue[i+1:]...)
	}
	m.promoteLocked(res, e)
	select {
	case <-w.ready:
		return nil // the promotion granted us
	default:
	}
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	// Our departure may unblock waiters that were queued behind us.
	m.promoteLocked(res, e)
	return timeoutError(w, res)
}

func timeoutError(w *waiter, res Resource) error {
	return fmt.Errorf("%w: tx %d wants %v on %v", ErrDeadlock, w.tx, w.mode, res)
}

// TryAcquire is Acquire without blocking; it reports whether the lock was
// granted. Like Acquire, it respects the FIFO queue: it fails when waiters
// are queued, even if the requested mode is compatible with the holders.
func (m *Manager) TryAcquire(tx uint64, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(res)
	held := e.modeOf(tx)
	if held == Exclusive || held == mode {
		return true
	}
	if !compatible(e, tx, mode) || (held == 0 && len(e.queue) > 0) {
		m.dropIfIdleLocked(res, e)
		return false
	}
	m.grantLocked(e, tx, res, mode)
	return true
}

// Holds reports the mode tx holds on res (0 if none).
func (m *Manager) Holds(tx uint64, res Resource) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.table[res]; e != nil {
		return e.modeOf(tx)
	}
	return 0
}

// ReleaseAll drops every lock held by tx (transaction end) and hands each
// freed resource to its queued waiters in FIFO order.
func (m *Manager) ReleaseAll(tx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list, ok := m.held[tx]
	if !ok {
		return
	}
	for _, res := range list {
		e := m.table[res]
		if e == nil {
			continue
		}
		for i, h := range e.holders {
			if h.tx == tx {
				last := len(e.holders) - 1
				e.holders[i] = e.holders[last]
				e.holders = e.holders[:last]
				break
			}
		}
		m.promoteLocked(res, e)
	}
	delete(m.held, tx)
	m.freeHeld = append(m.freeHeld, list[:0])
}

// Stats reports lifetime grant and wait counts.
func (m *Manager) Stats() (grants, waits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grants, m.waits
}
