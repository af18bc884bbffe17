package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"zdr/bench/gen"
	"zdr/bench/rig"
	"zdr/bench/stats"
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// BENCHMARK.json stays inside the limits it is accepted by.
func TestSpecLimits(t *testing.T) {
	s := loadTestSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" || !pathRE.MatchString(s.Paths[0]) {
		t.Errorf("paths %v", s.Paths)
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command %v", s.Command)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if i >= len(gen.Workloads) || gen.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and not in the generator", i, w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// emitted checks that a run printed exactly the declared metrics, each
// once and with the declared unit.
func emitted(t *testing.T, rep *report, declared []metricSpec) {
	t.Helper()
	got := map[string]int{}
	for _, m := range rep.Metrics {
		got[m.Name]++
	}
	for _, d := range declared {
		if got[d.Name] != 1 {
			t.Errorf("%s trace %d: %s emitted %d times", rep.Workload, rep.Trace, d.Name, got[d.Name])
		}
		delete(got, d.Name)
		for _, m := range rep.Metrics {
			if m.Name == d.Name && m.Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", rep.Workload, d.Name, m.Unit, d.Unit)
			}
		}
	}
	for name := range got {
		t.Errorf("%s trace %d: %s is emitted and not declared", rep.Workload, rep.Trace, name)
	}
	if rep.Failed != 0 || !rep.Correct() || rep.Attempted < 1 {
		t.Errorf("%s trace %d: attempted %d, failed %d, hung %v", rep.Workload, rep.Trace, rep.Attempted, rep.Failed, rep.Hung)
	}
}

// Every workload runs both ways in quick mode, which asserts structure
// and never speed: every declared name comes out exactly once, with its
// unit, and no operation fails.
func TestQuickRuns(t *testing.T) {
	s := loadTestSpec(t)
	c := config{root: "..", seed: 5, quick: true}
	for _, wl := range gen.Workloads {
		rep, err := runEndToEnd(c, wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		emitted(t, rep, s.EndToEnd)
		for _, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.Name, m.Name, m.Value)
			}
		}
		if rep, err = runLayers(c, wl); err != nil {
			t.Fatalf("%s per layer: %v", wl.Name, err)
		}
		emitted(t, rep, s.PerLayer)
		if v, _ := rep.Metrics.Get("trace.residual_frac"); v > 0.02 && strings.HasPrefix(wl.Name, "http") {
			t.Logf("%s: trace.residual_frac %v above 0.02 (quick mode: reported, not asserted)", wl.Name, v)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sat_rps", Better: "higher", Bound: 0.08}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 100, 140, 80, 120, 100, 70, 130, 90, 110}
	for _, c := range []struct {
		m      metricSpec
		change []float64
		want   string
	}{
		{lower, scale(1.05), "within bound"},
		{lower, scale(1.20), "WORSE"},
		{lower, scale(0.80), "better"},
		{higher, scale(0.80), "WORSE"},
		{higher, scale(1.20), "better"},
		{lower, noisy, "unresolved"},
		{metricSpec{Name: "x", Better: "lower"}, scale(2), ""},
	} {
		if got, _ := verdict(c.m, base, c.change); got != c.want {
			t.Errorf("%s x%v: verdict %q, want %q", c.m.Name, c.change[0]/base[0], got, c.want)
		}
	}
}

// paced is a paced stretch of n verified operations of latency lat with
// every hundredth one ten times slower, and a control window over its
// second quarter.
func paced(n int, lat time.Duration) gen.Result {
	r := gen.Result{Ops: n, Restarts: []gen.Restart{{Slot: "control", Called: time.Second / 4, Returned: time.Second/2 - rig.DrainWait}}}
	for i := 0; i < n; i++ {
		l := lat
		if i%100 == 99 {
			l *= 10
		}
		r.Samples = append(r.Samples, stats.Sample{Due: time.Second * time.Duration(i) / time.Duration(n), Lat: l, OK: true})
	}
	return r
}

// A run's figures are stated at reference speed, p99_us is the median of
// the paced stretches' own p99s, so that one wrecked stretch does not set
// it, and a release workload's plain latencies leave the restart windows
// out.
func TestSummaryOfCycles(t *testing.T) {
	ms := &measurement{wl: gen.Workload{StubRPS: 1000}}
	for _, lat := range []time.Duration{100, 100, 5000, 100, 100} {
		cy := cycle{paced: paced(1000, lat*time.Microsecond)}
		cy.stub = gen.Result{Ops: 50, Elapsed: 100 * time.Millisecond} // half the reference rate
		cy.sat = gen.Result{Ops: 200, Elapsed: 100 * time.Millisecond, CPU: 200 * time.Millisecond}
		ms.cycles = append(ms.cycles, cy)
		ms.stub.Add(cy.stub)
		ms.sat.Add(cy.sat)
	}
	if got := ms.speed(); got != 0.5 {
		t.Fatalf("speed = %v, want 0.5", got)
	}
	var m stats.Metrics
	ms.endToEnd(&m)
	ms.unbounded(&m)
	for name, want := range map[string]float64{
		"sat_rps":        4000, // 2000 op/s measured at half speed
		"cpu_ns_per_op":  500000,
		"p50_us":         50,   // 100 us at half speed
		"p99_us":         50,   // four stretches of five have 100 us at their p99
		"p95_us":         2500, // over everything: a fifth of the operations took 5000 us
		"release_p99_us": 500,  // 3 of the 250 operations under each window are the slow ones
	} {
		if got, _ := m.Get(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// In a release workload the quarter of each stretch under the window
	// is left out of the plain figures.
	ms.wl.Release = true
	if n := len(ms.pooled()); n != 5*750 {
		t.Errorf("steady operations = %d, want 3750", n)
	}
}
