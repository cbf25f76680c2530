// Package esm is the staleignore fixture: a module clean under every
// analyzer, carrying one directive that suppresses nothing and one naming
// a check no analyzer is registered under.
package esm

type Server struct {
	count int
}

func (s *Server) Inc() {
	//qsvet:ignore mustcheck left over from a deleted discard; nothing here to suppress
	s.count++
}

func (s *Server) Dec() {
	//qsvet:ignore retiredcheck names a check that no longer exists
	s.count--
}
