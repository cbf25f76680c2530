package esm

import "quickstore/internal/disk"

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

// PageImage is the server's current image of page pid: its pool frame, or
// the volume's page when no frame holds it, for the tests of package
// esm_test.
func PageImage(s *Server, pid disk.PageID) []byte {
	buf := make([]byte, disk.PageSize)
	if !s.pool.Snapshot(pid, buf) {
		if err := s.vol.ReadPage(pid, buf); err != nil {
			panic(err)
		}
	}
	return buf
}
