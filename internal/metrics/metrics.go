// Package metrics implements the lightweight auditing primitives that the
// Zero Downtime Release evaluation relies on: counters, gauges, histograms
// with quantile estimation, and time-bucketed timelines.
//
// The paper (§6, "Evaluation Metrics") describes a monitoring system that
// collects per-instance signals in real time — HTTP status codes sent, TCP
// RSTs, number of MQTT connections, CPU utilization, requests per second —
// and aggregates them into the timelines and distributions shown in the
// figures. This package is that substrate: every other package in the
// repository emits into a Registry, and the experiment harness reads the
// aggregates back out.
//
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are ignored so that the
// counter remains monotone; use a Gauge for values that go down.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up or down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records observations and reports quantiles. It keeps all
// samples (bounded by maxSamples with reservoir-style decimation) which is
// appropriate for experiment-scale data volumes.
type Histogram struct {
	mu         sync.Mutex
	samples    []float64 // retained samples, always in arrival order
	sortCache  []float64 // sorted copy of samples; nil when stale
	count      int64
	sum        float64
	min, max   float64
	maxSamples int
}

// NewHistogram returns a histogram bounded to maxSamples retained samples.
// If maxSamples <= 0 a default of 1<<16 is used.
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 1 << 16
	}
	return &Histogram{maxSamples: maxSamples, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records a sample. Non-finite values (NaN, ±Inf) are dropped:
// a single NaN would otherwise poison the running sum — and with it
// every Mean and Prometheus _sum line until process restart — and an
// Inf pins Min/Max forever. Dropping keeps snapshots finite by
// construction.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) >= h.maxSamples {
		// Decimate: drop every other sample *in arrival order*. Samples
		// are never reordered in place (quantiles sort a cached copy), so
		// the survivors stay an unbiased stride over time rather than a
		// stride over the sorted values, which would thin one tail.
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
	}
	h.samples = append(h.samples, v)
	h.sortCache = nil
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean of all observations, or 0 with no data.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with no data.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no data.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) over retained samples using
// linear interpolation. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if h.sortCache == nil {
		h.sortCache = append(make([]float64, 0, n), h.samples...)
		sort.Float64s(h.sortCache)
	}
	if q <= 0 {
		return h.sortCache[0]
	}
	if q >= 1 {
		return h.sortCache[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.sortCache[lo]
	}
	frac := pos - float64(lo)
	return h.sortCache[lo]*(1-frac) + h.sortCache[hi]*frac
}

// Quantiles returns several quantiles at once under a single lock.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.quantileLocked(q)
	}
	return out
}

// Snapshot summarises the histogram.
type Snapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot returns a consistent summary of the histogram.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
		s.Min, s.Max = h.min, h.max
	}
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// Timeline accumulates values into fixed-width time buckets relative to a
// start instant. It is how the paper's timeline figures (capacity, RPS,
// MQTT connections, CPU, publish messages) are assembled.
type Timeline struct {
	mu     sync.Mutex
	start  time.Time
	width  time.Duration
	sums   []float64
	counts []int64
}

// NewTimeline creates a timeline with the given bucket width, starting at
// start. Observations before start are clamped into bucket 0.
func NewTimeline(start time.Time, width time.Duration) *Timeline {
	if width <= 0 {
		panic("metrics: timeline bucket width must be positive")
	}
	return &Timeline{start: start, width: width}
}

// maxTimelineBuckets bounds memory: observations beyond the cap clamp
// into the final bucket rather than allocating without limit.
const maxTimelineBuckets = 1 << 20

func (t *Timeline) bucketFor(at time.Time) int {
	d := at.Sub(t.start)
	if d < 0 {
		return 0
	}
	b := int(d / t.width)
	if b >= maxTimelineBuckets {
		return maxTimelineBuckets - 1
	}
	return b
}

// ObserveAt adds v into the bucket containing at.
func (t *Timeline) ObserveAt(at time.Time, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucketFor(at)
	for len(t.sums) <= b {
		t.sums = append(t.sums, 0)
		t.counts = append(t.counts, 0)
	}
	t.sums[b] += v
	t.counts[b]++
}

// Sums returns a copy of the per-bucket sums.
func (t *Timeline) Sums() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.sums))
	copy(out, t.sums)
	return out
}

// Means returns a copy of the per-bucket means (0 for empty buckets).
func (t *Timeline) Means() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.sums))
	for i := range t.sums {
		if t.counts[i] > 0 {
			out[i] = t.sums[i] / float64(t.counts[i])
		}
	}
	return out
}

// Counts returns a copy of the per-bucket observation counts.
func (t *Timeline) Counts() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.counts))
	copy(out, t.counts)
	return out
}

// BucketWidth returns the configured bucket width.
func (t *Timeline) BucketWidth() time.Duration { return t.width }

// Start returns the timeline origin.
func (t *Timeline) Start() time.Time { return t.start }

// Registry is a named collection of metrics. Names are free-form; by
// convention they are dotted paths like "proxy.http.status.500".
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	atomicHists map[string]*AtomicHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		histograms:  make(map[string]*Histogram),
		atomicHists: make(map[string]*AtomicHistogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(0)
		r.histograms[name] = h
	}
	return h
}

// AtomicHistogram returns the named atomic (bucketed) histogram,
// creating it over bounds if needed. Empty bounds mean
// DefaultLatencyBuckets. Callers on a hot path should look the
// histogram up once and hold the pointer; the map access takes the
// registry lock.
func (r *Registry) AtomicHistogram(name string, bounds ...float64) *AtomicHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.atomicHists[name]
	if !ok {
		h = NewAtomicHistogram(bounds)
		r.atomicHists[name] = h
	}
	return h
}

// CodeCounters is a family of counters named prefix + decimal code —
// "edge.http.status." + 200 — for callers that bump one per request: the
// counter of a code is looked up by name the first time the code is seen
// and held in that code's slot afterwards, so the hot path neither formats
// a name nor takes the registry lock.
type CodeCounters struct {
	reg    *Registry
	prefix string
	slots  [1000]atomic.Pointer[Counter]
}

// CodeCounters returns a counter family over prefix. Counters are created
// in the registry, under the same names Counter(prefix+code) would use,
// only when their code is first counted.
func (r *Registry) CodeCounters(prefix string) *CodeCounters {
	return &CodeCounters{reg: r, prefix: prefix}
}

// Inc adds one to code's counter.
func (cc *CodeCounters) Inc(code int) {
	if code < 0 || code >= len(cc.slots) {
		cc.reg.Counter(cc.prefix + strconv.Itoa(code)).Inc()
		return
	}
	c := cc.slots[code].Load()
	if c == nil {
		c = cc.reg.Counter(cc.prefix + strconv.Itoa(code))
		cc.slots[code].Store(c)
	}
	c.Inc()
}

// CounterValue returns the value of the named counter, or 0 if it was never
// created. It never creates the counter.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// GaugeValue returns the value of the named gauge, or 0 if absent.
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g.Value()
	}
	return 0
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

// RegistrySnapshot is a plain copy of every metric in a Registry at one
// instant, shared by Dump, the Prometheus renderer, and release reports.
type RegistrySnapshot struct {
	Counters         map[string]int64          `json:"counters"`
	Gauges           map[string]int64          `json:"gauges"`
	Histograms       map[string]Snapshot       `json:"histograms"`
	AtomicHistograms map[string]AtomicSnapshot `json:"atomic_histograms,omitempty"`
}

// Snapshot captures every counter, gauge, and histogram in the registry.
// The returned maps are never nil.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	snap := RegistrySnapshot{
		Counters:         make(map[string]int64, len(r.counters)),
		Gauges:           make(map[string]int64, len(r.gauges)),
		Histograms:       make(map[string]Snapshot, len(r.histograms)),
		AtomicHistograms: make(map[string]AtomicSnapshot, len(r.atomicHists)),
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	ahists := make(map[string]*AtomicHistogram, len(r.atomicHists))
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		hists[n] = h
	}
	for n, h := range r.atomicHists {
		ahists[n] = h
	}
	r.mu.Unlock()
	for n, h := range hists {
		snap.Histograms[n] = h.Snapshot()
	}
	for n, h := range ahists {
		snap.AtomicHistograms[n] = h.Snapshot()
	}
	return snap
}

// Dump renders all counters, gauges, and histogram summaries as sorted
// text lines — useful for debugging test failures and the STATS probe.
func (r *Registry) Dump() string {
	snap := r.Snapshot()
	var rows []string
	for n, v := range snap.Counters {
		rows = append(rows, fmt.Sprintf("counter %s %d", n, v))
	}
	for n, v := range snap.Gauges {
		rows = append(rows, fmt.Sprintf("gauge %s %d", n, v))
	}
	for n, s := range snap.Histograms {
		rows = append(rows, fmt.Sprintf("histogram %s count=%d mean=%g p50=%g p99=%g",
			n, s.Count, s.Mean, s.P50, s.P99))
	}
	for n, s := range snap.AtomicHistograms {
		rows = append(rows, fmt.Sprintf("atomic-histogram %s count=%d mean=%g p50=%g p99=%g",
			n, s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99)))
	}
	sort.Strings(rows)
	out := ""
	for _, row := range rows {
		out += row + "\n"
	}
	return out
}
