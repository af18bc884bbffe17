package takeover

// Declarations only this package's tests call: no non-test code uses them.

// ListenAndServe binds the pre-specified UNIX path and serves hand-offs
// until Close. It removes a stale socket file first.
func (s *Server) ListenAndServe(path string) error {
	if err := s.Listen(path); err != nil {
		return err
	}
	return s.Serve()
}
