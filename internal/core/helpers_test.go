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

// HealthDelta computes the release-window health delta from the report's
// own counter snapshots (CountersBefore vs CountersAfter). It carries the
// same zero-request guarantees as HealthDeltaBetween.
func (r *ReleaseReport) HealthDelta(requestKeys, errorKeys []string) HealthDelta {
	return HealthDeltaBetween(r.CountersBefore, r.CountersAfter, requestKeys, errorKeys)
}

// Total is the release's wall-clock duration.
func (r *ReleaseReport) Total() time.Duration { return time.Duration(r.TotalNS) }
