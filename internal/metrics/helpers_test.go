package metrics

import (
	"math"
	"sort"
)

// Declarations only this package's tests call: no non-test code uses them.

// Count returns the number of observations. The total is derived from
// the bucket cells (reads are rare; writes stay one increment cheaper).
func (h *AtomicHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Mean returns the mean observation, or 0 with no data.
func (h *AtomicHistogram) Mean() float64 { return h.Snapshot().mean() }

// Merge adds o's observations into h. Both histograms must share the
// same bucket bounds; merging incompatible schemes is an error, not a
// silent reshape.
func (h *AtomicHistogram) Merge(o *AtomicHistogram) error {
	if h == nil || o == nil {
		return nil
	}
	if err := compatibleBounds(h.bounds, o.bounds); err != nil {
		return err
	}
	for i := range o.buckets {
		n := o.buckets[i].Load()
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
	sum := o.sum()
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sum returns the sum of all observations.
func (h *AtomicHistogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
