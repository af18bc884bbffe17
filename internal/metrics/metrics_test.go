package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
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

func TestAtomicHistogramQuantilesMonotone(t *testing.T) {
	// Property: quantiles are non-decreasing in q for any data.
	f := func(data []float64) bool {
		h := NewAtomicHistogram(ExpBuckets(1e-3, 4, 16))
		for _, v := range data {
			h.Observe(v)
		}
		s, last := h.Snapshot(), math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got := s.Quantile(q)
			if got < last {
				return false
			}
			last = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
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
	h := r.AtomicHistogram("h")
	h.Observe(1)
	if r.AtomicHistogram("h").Count() != 1 {
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
				r.AtomicHistogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("shared"); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
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
