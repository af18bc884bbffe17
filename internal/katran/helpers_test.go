package katran

// Declarations only this package's tests call: no non-test code uses them.

// EpochBumps returns how many times Bump ran.
func (t *FlowTable) EpochBumps() uint64 { return t.epochBumps.Load() }

// FlowTable returns the flow table (nil unless Config.FlowCacheSize or
// Config.FlowTableSize enabled it).
func (lb *LB) FlowTable() *FlowTable { return lb.table }

// RemoveBackend deletes a backend entirely.
func (lb *LB) RemoveBackend(name string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if _, ok := lb.backends[name]; !ok {
		return
	}
	delete(lb.backends, name)
	lb.policy.BackendDown(name)
	lb.rebuildLocked()
}

// View returns the current immutable routing snapshot.
func (lb *LB) View() *view { return lb.route.Load() }
