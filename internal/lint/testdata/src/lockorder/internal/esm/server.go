// Package esm is a lockorder-fixture mirror of the real page server.
package esm

import (
	"sync"

	"quickstore/internal/buffer"
)

// Server carries the server lock of the documented hierarchy.
type Server struct {
	mu   sync.Mutex
	pool *buffer.LatchPool
}

// lockedHelper re-locks mu; calling it with mu held deadlocks.
func (s *Server) lockedHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// reentrant calls a mu-taking helper with mu already held: the analyzer
// sees it through the static call graph.
func (s *Server) reentrant() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockedHelper()
}

// badLatch takes a pool stripe latch while holding the server lock, which
// the hierarchy forbids in either order.
func (s *Server) badLatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.Acquire(0)
	s.pool.Release(0)
}

// branches takes mu independently in each switch case: the per-branch
// held-set must not leak one case's lock into the next, so no finding.
func (s *Server) branches(op int) {
	switch op {
	case 0:
		s.mu.Lock()
		defer s.mu.Unlock()
	case 1:
		s.mu.Lock()
		defer s.mu.Unlock()
	}
}

// suppressed shows the escape hatch: the violation is acknowledged.
func (s *Server) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//qsvet:ignore lockorder fixture: demonstrating the suppression directive
	s.pool.Acquire(0)
	s.pool.Release(0)
}
