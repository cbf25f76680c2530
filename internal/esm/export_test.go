package esm

// LiveTxs counts the server's transaction-table entries, for the tests of
// package esm_test.
func (s *Server) LiveTxs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txs)
}

// FramedBytes is the size of req on a socket: frame header and marshaled
// body, for the tests of package esm_test.
func FramedBytes(req *Request) int { return frameHdrSize + len(req.marshal()) }
