package core

import (
	"time"
)

// Declarations only this package's tests call: no non-test code uses them.

// TakeoverArmed reports whether the serving generation has a takeover
// server bound on the slot path (i.e. the slot is releasable).
func (s *ProxySlot) TakeoverArmed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur != nil && s.armErr == nil
}

// Total is the release's wall-clock duration.
func (r *ReleaseReport) Total() time.Duration { return time.Duration(r.TotalNS) }
