package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// AtomicHistogram is a fixed-boundary bucket histogram whose Observe is a
// couple of atomic adds — no mutex, no sample array, no sort. It trades
// exact quantiles for O(1), allocation-free recording, which is what a
// data plane observing millions of flows needs.
//
// Buckets are defined by ascending upper bounds; an implicit +Inf
// bucket catches the overflow. Two histograms with identical bounds can
// be merged, which is how the operator aggregates per-node latency
// distributions fleet-wide.
type AtomicHistogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf overflow bucket
	buckets []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultLatencyBuckets spans 100µs to ~52s in log-spaced (×2) steps —
// wide enough for a localhost RTT and a wedged upstream alike. Values
// are in seconds, matching Observe(time.Since(t0).Seconds()).
var DefaultLatencyBuckets = ExpBuckets(100e-6, 2, 20)

// ExpBuckets returns n log-spaced upper bounds: start, start*growth,
// start*growth², … It panics on a non-positive start, growth <= 1, or
// n <= 0 — bucket schemes are compile-time decisions, not runtime data.
func ExpBuckets(start, growth float64, n int) []float64 {
	if !(start > 0) || !(growth > 1) || n <= 0 {
		panic("metrics: ExpBuckets needs start > 0, growth > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= growth
	}
	return out
}

// NewAtomicHistogram returns a histogram over the given ascending upper
// bounds. Bounds must be finite and strictly increasing; nil/empty
// bounds fall back to DefaultLatencyBuckets.
func NewAtomicHistogram(bounds []float64) *AtomicHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: atomic histogram bounds must be finite")
		}
		if i > 0 && b <= own[i-1] {
			panic("metrics: atomic histogram bounds must be strictly increasing")
		}
	}
	return &AtomicHistogram{
		bounds:  own,
		buckets: make([]atomic.Int64, len(own)+1),
	}
}

// Observe records one sample. Non-finite values (NaN, ±Inf) are
// dropped so a poisoned input can never corrupt the sum or quantiles.
// Observe is allocation-free and safe for unbounded concurrency.
func (h *AtomicHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// Binary search for the first bound >= v: the bounds slice is small
	// (tens of entries) and immutable, so this stays branch-predictable
	// and allocation-free where sort.SearchFloat64s would cost a closure.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

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

// Sum returns the sum of all observations.
func (h *AtomicHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation, or 0 with no data.
func (h *AtomicHistogram) Mean() float64 { return h.Snapshot().Mean() }

// Quantile estimates the q-quantile from bucket counts.
func (h *AtomicHistogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Bounds returns a copy of the bucket upper bounds.
func (h *AtomicHistogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

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
	sum := o.Sum()
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// Snapshot captures the bucket counts. Under concurrent Observes the
// buckets are read one by one, so the snapshot is monotone (never
// misses an earlier observation it reports a later one without) but
// not a single atomic cut — fine for telemetry, documented for tests.
func (h *AtomicHistogram) Snapshot() AtomicSnapshot {
	if h == nil {
		return AtomicSnapshot{}
	}
	s := AtomicSnapshot{
		Bounds: make([]float64, len(h.bounds)),
		Counts: make([]int64, len(h.buckets)),
	}
	copy(s.Bounds, h.bounds)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// AtomicSnapshot is a plain copy of an AtomicHistogram: per-bucket
// counts (the last entry is the +Inf overflow bucket), total count, and
// sum. It is the unit of cross-node aggregation: snapshots scraped from
// different nodes merge bucket-wise, and quantiles are estimated from
// the merged counts.
type AtomicSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

func compatibleBounds(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("metrics: histogram bounds differ (%d vs %d buckets)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("metrics: histogram bounds differ at bucket %d (%g vs %g)", i, a[i], b[i])
		}
	}
	return nil
}

// Merge adds o's counts into s. An empty snapshot (no bounds) adopts
// o's bucket scheme, so a zero AtomicSnapshot is a valid merge seed.
func (s *AtomicSnapshot) Merge(o AtomicSnapshot) error {
	if o.Count == 0 && len(o.Bounds) == 0 {
		return nil
	}
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = append([]int64(nil), o.Counts...)
		s.Count = o.Count
		s.Sum = o.Sum
		return nil
	}
	if err := compatibleBounds(s.Bounds, o.Bounds); err != nil {
		return err
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// Sub returns the windowed delta s - base: the observations recorded
// between the two snapshots of the same (cumulative) histogram. Cells
// that would go negative — a racing snapshot, or a restarted histogram
// — clamp to zero rather than poisoning downstream rates.
func (s AtomicSnapshot) Sub(base AtomicSnapshot) AtomicSnapshot {
	if len(base.Counts) != len(s.Counts) {
		return s
	}
	out := AtomicSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum - base.Sum,
	}
	for i := range s.Counts {
		d := s.Counts[i] - base.Counts[i]
		if d < 0 {
			d = 0
		}
		out.Counts[i] = d
		out.Count += d
	}
	if out.Count == 0 {
		out.Sum = 0
	}
	return out
}

// Mean returns the mean observation, or 0 with no data.
func (s AtomicSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket containing the target rank. The
// overflow bucket reports the largest finite bound — an estimator
// can't interpolate toward +Inf. Returns 0 with no data.
func (s AtomicSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: the best honest answer is the largest
			// finite boundary.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}
