package katran

import "sort"

// Declarations only this package's tests call: no non-test code uses them.

// EntryWrites returns the cumulative count of per-entry mutations. Epoch
// bumps and backend-set publications never move it.
func (t *flowTable) EntryWrites() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.writes
		s.mu.Unlock()
	}
	return n
}

// SetBackends is setBackends by name, sorted.
func (t *flowTable) SetBackends(names []string) {
	live := make([]Backend, len(names))
	for i, n := range names {
		live[i] = Backend{Name: n}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Name < live[j].Name })
	t.setBackends(live)
}

// Bump advances the release generation (see bump) and returns the new
// epoch.
func (t *flowTable) Bump(invalidate bool) uint32 {
	return t.bump(invalidate).epoch
}

// Lookup returns the pinned backend for flow, if the pin's generation is
// still routable and its backend is live.
func (t *flowTable) Lookup(flow uint64) (string, bool) {
	v := t.view.Load()
	slot, ok := t.lookup(v, flow)
	if !ok {
		return "", false
	}
	return v.backends[slot].Name, true
}

// Insert pins flow to backend under the current generation. It reports
// false when backend has no interned slot (unknown to SetBackends).
func (t *flowTable) Insert(flow uint64, backend string) bool {
	v := t.view.Load()
	slot, ok := v.slots[backend]
	if !ok {
		return false
	}
	s, base := t.locate(flow)
	s.mu.Lock()
	s.storeLocked(base, flow, ftMeta(slot, v.epoch))
	s.mu.Unlock()
	return true
}

// EpochBumps returns how many times Bump ran.
func (t *flowTable) EpochBumps() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epochBumps
}

// FlowTable returns the flow table (nil unless Config.FlowCacheSize or
// Config.FlowTableSize enabled it).
func (lb *LB) FlowTable() *flowTable { return lb.table }

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
