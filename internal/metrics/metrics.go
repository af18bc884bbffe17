// Package metrics implements the lightweight auditing primitives that the
// Zero Downtime Release evaluation relies on: counters, gauges and
// fixed-bucket histograms with quantile estimation.
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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

// Registry is a named collection of metrics. Names are free-form; by
// convention they are dotted paths like "proxy.http.status.500".
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	atomicHists map[string]*AtomicHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
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
	AtomicHistograms map[string]AtomicSnapshot `json:"atomic_histograms,omitempty"`
}

// Snapshot captures every counter, gauge, and histogram in the registry.
// The returned maps are never nil.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	snap := RegistrySnapshot{
		Counters:         make(map[string]int64, len(r.counters)),
		Gauges:           make(map[string]int64, len(r.gauges)),
		AtomicHistograms: make(map[string]AtomicSnapshot, len(r.atomicHists)),
	}
	ahists := make(map[string]*AtomicHistogram, len(r.atomicHists))
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.atomicHists {
		ahists[n] = h
	}
	r.mu.Unlock()
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
