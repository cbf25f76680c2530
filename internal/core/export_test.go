package core

import "quickstore/internal/esm"

// DescChunks returns how many descriptor chunks the session has allocated.
func (s *Store) DescChunks() int { return s.descChunks }

// DescByOID returns the descriptor the physical-address table holds for oid.
func (s *Store) DescByOID(oid esm.OID) *PageDesc { return s.byOID[oid] }

// WalkDescs visits the session's descriptors in address order; fn returning
// false stops the walk.
func (s *Store) WalkDescs(fn func(*PageDesc) bool) { s.tree.Walk(fn) }
