package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("new counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter after negative add = %d, want 3", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P999 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-50.5) > 1 {
		t.Fatalf("p50 = %v, want ~50.5", p50)
	}
	if p0 := h.Quantile(0); p0 != 1 {
		t.Fatalf("q0 = %v, want 1", p0)
	}
	if p1 := h.Quantile(1); p1 != 100 {
		t.Fatalf("q1 = %v, want 100", p1)
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	// Property: quantiles are non-decreasing in q for any data.
	f := func(data []float64) bool {
		h := NewHistogram(0)
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		qs := h.Quantiles(0, 0.25, 0.5, 0.75, 0.9, 0.99, 1)
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramDecimation(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 10_000; i++ {
		h.Observe(float64(i % 100))
	}
	if got := h.Count(); got != 10_000 {
		t.Fatalf("count survived decimation = %d, want 10000", got)
	}
	// Quantiles stay in range even after decimation.
	if p50 := h.Quantile(0.5); p50 < 0 || p50 > 99 {
		t.Fatalf("p50 out of data range: %v", p50)
	}
}

func TestTimelineBuckets(t *testing.T) {
	start := time.Unix(1000, 0)
	tl := NewTimeline(start, time.Second)
	tl.ObserveAt(start, 1)
	tl.ObserveAt(start.Add(500*time.Millisecond), 2)
	tl.ObserveAt(start.Add(2*time.Second), 10)
	tl.ObserveAt(start.Add(-time.Hour), 100) // clamped to bucket 0
	sums := tl.Sums()
	if len(sums) != 3 {
		t.Fatalf("buckets = %d, want 3", len(sums))
	}
	if sums[0] != 103 || sums[1] != 0 || sums[2] != 10 {
		t.Fatalf("sums = %v", sums)
	}
	means := tl.Means()
	if means[1] != 0 {
		t.Fatalf("empty bucket mean = %v, want 0", means[1])
	}
	counts := tl.Counts()
	if counts[0] != 3 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTimelinePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bucket width")
		}
	}()
	NewTimeline(time.Now(), 0)
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c1.Inc()
	c2 := r.Counter("a.b")
	if c2.Value() != 1 {
		t.Fatal("registry returned a different counter for the same name")
	}
	if r.CounterValue("a.b") != 1 {
		t.Fatal("CounterValue mismatch")
	}
	if r.CounterValue("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	g := r.Gauge("g")
	g.Set(7)
	if r.GaugeValue("g") != 7 {
		t.Fatal("GaugeValue mismatch")
	}
	h := r.Histogram("h")
	h.Observe(1)
	if r.Histogram("h").Count() != 1 {
		t.Fatal("registry returned a different histogram")
	}
}

func TestRegistryCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Counter("aa")
	r.Counter("mm")
	names := r.CounterNames()
	want := []string{"aa", "mm", "zz"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(2)
	r.Gauge("y").Set(-1)
	out := r.Dump()
	if out != "counter x 2\ngauge y -1\n" {
		t.Fatalf("dump = %q", out)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("shared"); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
	}
}

func TestTimelineFarFutureClamped(t *testing.T) {
	start := time.Unix(0, 0)
	tl := NewTimeline(start, time.Millisecond)
	tl.ObserveAt(start.AddDate(100, 0, 0), 1) // a century later
	if got := len(tl.Sums()); got > 1<<20 {
		t.Fatalf("timeline allocated %d buckets; cap broken", got)
	}
}

// TestCodeCounters: the family counts under exactly the names a by-name
// lookup would use, creates a name only when its code is first counted,
// and stays correct for codes outside its slots and under concurrency.
func TestCodeCounters(t *testing.T) {
	reg := NewRegistry()
	cc := reg.CodeCounters("edge.http.status.")
	if names := reg.CounterNames(); len(names) != 0 {
		t.Fatalf("counters created before any code was counted: %v", names)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cc.Inc(200)
			}
		}()
	}
	wg.Wait()
	cc.Inc(503)
	cc.Inc(-1)
	cc.Inc(1000)
	reg.Counter("edge.http.status.200").Inc() // the same counter, by name
	for name, want := range map[string]int64{
		"edge.http.status.200": 4001, "edge.http.status.503": 1,
		"edge.http.status.-1": 1, "edge.http.status.1000": 1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := len(reg.CounterNames()); n != 4 {
		t.Errorf("%d counters registered, want 4: %v", n, reg.CounterNames())
	}
	cc.Inc(200) // warm slot
	if avg := testing.AllocsPerRun(100, func() { cc.Inc(200) }); avg != 0 {
		t.Errorf("Inc on a seen code allocates %.1f objects", avg)
	}
}
