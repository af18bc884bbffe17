package katran

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// silentProber never produces load samples on its own, so tests drive
// the probe pools deterministically through AddSample.
type silentProber struct{}

func (silentProber) Probe(string, time.Duration) error { return nil }
func (silentProber) Load(string, time.Duration) (LoadSample, error) {
	return LoadSample{}, errors.New("silent")
}

// quietPrequal returns a policyPrequal whose async probe loops fire once
// and then sleep for an hour — every sample in the pools comes from
// AddSample.
func quietPrequal(cfg PrequalConfig) *policyPrequal {
	cfg.Prober = silentProber{}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	return newPolicyPrequal(cfg, nil)
}

// prequalLB builds an LB (no pinning layers: every Steer exercises the
// policy) over the named backends, all healthy.
func prequalLB(t *testing.T, p *policyPrequal, names ...string) *LB {
	t.Helper()
	lb := New("lb", Config{Policy: p}, nil)
	t.Cleanup(lb.Close)
	for _, n := range names {
		lb.AddBackend(Backend{Name: n, Addr: n + ":80"}, true)
	}
	return lb
}

func fresh(rif int, lat time.Duration) LoadSample {
	return LoadSample{RIF: rif, Latency: lat, Phase: PhaseServing}
}

func TestPrequalPrefersProbedColdBackend(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 3, hotQuantile: 0.34})
	lb := prequalLB(t, p, "a", "b", "c")
	// b is the coldest by latency among the cold set {a, b}; c is hot
	// (RIF 100 is above the 0.34-quantile threshold of {1, 2, 100}).
	p.AddSample("a", fresh(1, 5*time.Millisecond))
	p.AddSample("b", fresh(2, 1*time.Millisecond))
	p.AddSample("c", fresh(100, time.Microsecond))

	b, err := lb.Steer(77)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "b" {
		t.Fatalf("pick = %s, want b (coldest by latency among cold)", b.Name)
	}
	if p.cPickCold.Value() == 0 {
		t.Fatal("cold pick must count on katran.prequal.pick_cold")
	}
}

// TestPrequalReuseBudgetExhaustion pins the paper's probe-reuse rule: a
// sample steers at most ReuseBudget decisions, then is discarded; a
// backend whose samples are all spent steers like an unprobed one.
func TestPrequalReuseBudgetExhaustion(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 2, ReuseBudget: 2})
	lb := prequalLB(t, p, "a", "b")
	p.AddSample("a", fresh(0, time.Microsecond))
	// b has no samples: a (probed) must win until its budget runs dry.

	for i := 0; i < 2; i++ {
		b, err := lb.Steer(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != "a" {
			t.Fatalf("pick %d = %s, want probed backend a", i, b.Name)
		}
	}
	// Third decision: a's only sample is spent — no probe data anywhere,
	// so the pick falls back to Maglev placement.
	view := lb.View()
	want, _ := view.pickMaglev(99)
	b, err := lb.Steer(99)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != want.Name {
		t.Fatalf("post-exhaustion pick = %s, want maglev fallback %s", b.Name, want.Name)
	}
	if p.cReuseOut.Value() == 0 {
		t.Fatal("spent sample must count on katran.prequal.probe_reuse_exhausted")
	}
	if p.cPickFall.Value() == 0 {
		t.Fatal("fallback must count on katran.prequal.pick_fallback")
	}
}

// TestPrequalExpiryPartitionedBackend pins the expiry rule: a partitioned
// backend stops producing samples, its pool ages out, and stale probes
// must not keep steering traffic at it — even if the last thing it said
// was "I am the coldest backend alive".
func TestPrequalExpiryPartitionedBackend(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 2, MaxAge: 30 * time.Millisecond, ReuseBudget: 1 << 20})
	lb := prequalLB(t, p, "part", "alive")
	// The partitioned backend advertised a perfect score before it went
	// dark; the live one is visibly loaded.
	p.AddSample("part", fresh(0, time.Microsecond))
	p.AddSample("alive", fresh(50, 20*time.Millisecond))

	time.Sleep(60 * time.Millisecond) // both samples expire
	p.AddSample("alive", fresh(50, 20*time.Millisecond))

	for i := 0; i < 16; i++ {
		b, err := lb.Steer(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != "alive" {
			t.Fatalf("pick %d = %s: stale probe kept steering to a partitioned backend", i, b.Name)
		}
	}
	if p.cExpired.Value() == 0 {
		t.Fatal("expired samples must count on katran.prequal.probe_expired")
	}
}

func TestPrequalAvoidsDrainingBackend(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 2, ReuseBudget: 1 << 20, MaxAge: time.Hour})
	lb := prequalLB(t, p, "old", "new")
	// The draining generation is objectively less loaded — placement
	// balancing would keep feeding it. The drain advertisement must
	// dominate the load signal.
	p.AddSample("old", LoadSample{RIF: 0, Latency: time.Microsecond, Phase: PhaseDraining, Generation: 1})
	p.AddSample("new", LoadSample{RIF: 80, Latency: 10 * time.Millisecond, Phase: PhaseServing, Generation: 2})

	for i := 0; i < 32; i++ {
		b, err := lb.Steer(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != "new" {
			t.Fatalf("pick %d = %s: fresh flow steered onto the draining generation", i, b.Name)
		}
	}
	if p.cAvoided.Value() == 0 {
		t.Fatal("avoided drains must count on katran.prequal.drain_avoided")
	}
	// committed-awaiting-ready advertises the same way.
	p.AddSample("old", LoadSample{Phase: PhaseCommitted, Generation: 1})
	if b, _ := lb.Steer(1000); b.Name != "new" {
		t.Fatal("committed-awaiting-ready must be deprioritized like draining")
	}
}

// TestPrequalAllCandidatesDraining pins the never-fail rule: when every
// candidate advertises a release in flight (fleet-wide rollout), the
// policy still picks the best of them — a live request is never errored
// while healthy backends exist.
func TestPrequalAllCandidatesDraining(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 2, ReuseBudget: 1 << 20, MaxAge: time.Hour})
	lb := prequalLB(t, p, "d1", "d2")
	p.AddSample("d1", LoadSample{RIF: 10, Latency: 5 * time.Millisecond, Phase: PhaseDraining})
	p.AddSample("d2", LoadSample{RIF: 10, Latency: 1 * time.Millisecond, Phase: PhaseDraining})

	for i := 0; i < 16; i++ {
		b, err := lb.Steer(uint64(i))
		if err != nil {
			t.Fatalf("all-draining steer errored: %v", err)
		}
		if b.Name == "" {
			t.Fatal("all-draining steer returned empty backend")
		}
	}
}

func TestPrequalNoBackends(t *testing.T) {
	p := quietPrequal(PrequalConfig{})
	lb := prequalLB(t, p) // no backends
	if _, err := lb.Steer(1); !errors.Is(err, errNoBackends) {
		t.Fatalf("steer with no backends = %v, want ErrNoBackends", err)
	}
}

// TestPrequalBackendDownDropsPool pins pool hygiene: a backend leaving
// the ring takes its samples with it, and a re-admitted backend starts
// with an empty pool.
func TestPrequalBackendDownDropsPool(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 2, ReuseBudget: 1 << 20, MaxAge: time.Hour})
	lb := prequalLB(t, p, "a", "b")
	p.AddSample("a", fresh(0, time.Microsecond))
	lb.SetHealth("a", false)
	lb.SetHealth("a", true)
	p.AddSample("b", fresh(9, time.Millisecond))

	// a's pre-eviction sample must be gone: b is now the only probed
	// backend and wins every pick.
	for i := 0; i < 16; i++ {
		b, err := lb.Steer(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != "b" {
			t.Fatalf("pick %d = %s: sample survived backend eviction", i, b.Name)
		}
	}
}

// Direct unit coverage of the hot/cold lexicographic rule.
func TestPrequalLexicographicRule(t *testing.T) {
	hot := 10
	cold1 := estimate{b: Backend{Name: "cold1"}, known: true, rif: 5, latency: 2 * time.Millisecond}
	cold2 := estimate{b: Backend{Name: "cold2"}, known: true, rif: 8, latency: 1 * time.Millisecond}
	hot1 := estimate{b: Backend{Name: "hot1"}, known: true, rif: 20, latency: time.Microsecond}
	hot2 := estimate{b: Backend{Name: "hot2"}, known: true, rif: 30, latency: time.Microsecond}
	unknown := estimate{b: Backend{Name: "unknown"}}
	drainCold := estimate{b: Backend{Name: "drain"}, known: true, draining: true, rif: 0, latency: time.Microsecond}

	cases := []struct {
		name string
		a, b estimate
		want bool
	}{
		{"serving beats draining even at worse load", hot2, drainCold, true},
		{"draining loses to serving", drainCold, cold1, false},
		{"unknown beats known-draining", unknown, drainCold, true},
		{"probed beats unprobed", cold1, unknown, true},
		{"cold beats hot", cold2, hot1, true},
		{"among cold, lower latency wins", cold2, cold1, true},
		{"among hot, lower RIF wins", hot1, hot2, true},
	}
	for _, c := range cases {
		if got := better(c.a, c.b, hot); got != c.want {
			t.Errorf("%s: better(%s, %s) = %v, want %v", c.name, c.a.b.Name, c.b.b.Name, got, c.want)
		}
	}
}

func TestPrequalHotThreshold(t *testing.T) {
	p := quietPrequal(PrequalConfig{hotQuantile: 0.84})
	defer p.Close()
	if got := p.hotThreshold(nil); got != 0 {
		t.Fatalf("empty threshold = %d", got)
	}
	// 16 rifs 0..15: the 0.84 quantile index is 13.
	rifs := make([]int, 16)
	for i := range rifs {
		rifs[i] = i
	}
	if got := p.hotThreshold(rifs); got != 13 {
		t.Fatalf("threshold = %d, want 13", got)
	}
}

// TestPrequalConcurrentSteering exercises Pick, AddSample and health
// transitions concurrently; run under -race in CI.
func TestPrequalConcurrentSteering(t *testing.T) {
	p := quietPrequal(PrequalConfig{PowerD: 3, ReuseBudget: 4, MaxAge: 50 * time.Millisecond})
	lb := prequalLB(t, p, "a", "b", "c", "d")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := lb.Steer(seed*1e6 + i); err != nil {
					t.Errorf("steer: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		names := []string{"a", "b", "c", "d"}
		for i := 0; i < 200; i++ {
			n := names[i%len(names)]
			p.AddSample(n, fresh(i%30, time.Duration(i%900)*time.Microsecond))
			if i%17 == 0 {
				lb.SetHealth(n, false)
				lb.SetHealth(n, true)
			}
			time.Sleep(100 * time.Microsecond)
		}
		close(stop)
	}()
	wg.Wait()
}

func BenchmarkSteerPolicyMaglev(b *testing.B) {
	lb := New("lb", Config{FlowCacheSize: 1024, FlowTableSize: 4096}, nil)
	defer lb.Close()
	for _, n := range []string{"a", "b", "c", "d"} {
		lb.AddBackend(Backend{Name: n, Addr: n + ":80"}, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Steer(uint64(i) % 8192); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteerPolicyPrequal(b *testing.B) {
	p := quietPrequal(PrequalConfig{PowerD: 3, ReuseBudget: 1 << 30, MaxAge: time.Hour})
	lb := New("lb", Config{Policy: p}, nil)
	defer lb.Close()
	for _, n := range []string{"a", "b", "c", "d"} {
		lb.AddBackend(Backend{Name: n, Addr: n + ":80"}, true)
		p.AddSample(n, fresh(len(n), time.Millisecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Steer(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
