package esm

// LiveTxs counts the server's transaction-table entries, for the tests of
// package esm_test.
func (s *Server) LiveTxs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txs)
}
