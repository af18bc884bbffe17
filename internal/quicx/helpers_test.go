package quicx

// Declarations only this package's tests call: no non-test code uses them.

// FlowCount returns the number of live flows.
func (s *Server) FlowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}
