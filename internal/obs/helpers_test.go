package obs

// Declarations only this package's tests call: no non-test code uses them.

// Reset discards all finished spans and zeroes the dropped counter
// (open spans keep running).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.finished = nil
	t.head = 0
	t.dropped = 0
	t.mu.Unlock()
}
