package appserver

// Declarations only this package's tests call: no non-test code uses them.

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}
