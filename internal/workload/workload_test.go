package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformish(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 10)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("digit %d count %d far from uniform", d, c)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	var sum, sumSq float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := r.normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal moments off: mean=%v var=%v", mean, variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(13)
	var vals []float64
	for i := 0; i < 50_000; i++ {
		vals = append(vals, r.logNormal(math.Log(100), 0.5))
	}
	med := Percentile(vals, 0.5)
	if med < 90 || med > 110 {
		t.Fatalf("lognormal median = %v, want ~100", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(17)
	over := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		v := r.pareto(1, 1.0)
		if v < 1 {
			t.Fatalf("pareto below xm: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X>10) = (1/10)^1 = 0.1 for alpha=1.
	frac := float64(over) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("pareto tail fraction = %v, want ~0.1", frac)
	}
}

func TestReleasesPerWeekShape(t *testing.T) {
	r := NewRNG(23)
	var l7, app []float64
	for i := 0; i < 10_000; i++ {
		l7 = append(l7, float64(ReleasesPerWeek(r, TierL7LB)))
		app = append(app, float64(ReleasesPerWeek(r, TierAppServer)))
	}
	l7med, appMed := Percentile(l7, 0.5), Percentile(app, 0.5)
	if l7med < 2 || l7med > 6 {
		t.Fatalf("L7LB median releases/week = %v, want ~3", l7med)
	}
	if appMed < 80 || appMed > 130 {
		t.Fatalf("AppServer median releases/week = %v, want ~100", appMed)
	}
	if appMed < 10*l7med {
		t.Fatalf("app tier should release an order of magnitude more often (l7=%v app=%v)", l7med, appMed)
	}
}

func TestSampleCauseMix(t *testing.T) {
	r := NewRNG(29)
	counts := map[ReleaseCause]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[SampleCause(r)]++
	}
	binFrac := float64(counts[CauseBinary]) / n
	if binFrac < 0.44 || binFrac > 0.50 {
		t.Fatalf("binary fraction = %v, want ~0.47 (Fig 2b)", binFrac)
	}
	if counts[causeConfig] == 0 || counts[causeExperiment] == 0 || counts[CauseRollback] == 0 {
		t.Fatal("cause mix missing categories")
	}
	for c := CauseBinary; c <= CauseRollback; c++ {
		if c.String() == "" {
			t.Fatal("cause name empty")
		}
	}
}

func TestCommitsPerReleaseRange(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 10_000; i++ {
		n := CommitsPerRelease(r)
		if n < 10 || n > 100 {
			t.Fatalf("commits = %d out of [10,100] (Fig 2c)", n)
		}
	}
}

func TestRestartHourDistributions(t *testing.T) {
	r := NewRNG(37)
	peak := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		h := RestartHour(r, TierL7LB)
		if h < 0 || h > 23 {
			t.Fatalf("hour = %d", h)
		}
		if h >= 12 && h < 18 {
			peak++
		}
	}
	if frac := float64(peak) / n; frac < 0.6 {
		t.Fatalf("only %v of proxygen releases in peak hours, want most (Fig 15)", frac)
	}
	counts := make([]int, 24)
	for i := 0; i < n; i++ {
		counts[RestartHour(r, TierAppServer)]++
	}
	for h, c := range counts {
		if c < n/24-n/60 || c > n/24+n/60 {
			t.Fatalf("app server hour %d count %d not flat (Fig 15)", h, c)
		}
	}
}

func TestDiurnalLoadShape(t *testing.T) {
	peak := DiurnalLoad(16)
	trough := DiurnalLoad(4)
	if peak <= trough {
		t.Fatalf("peak %v <= trough %v", peak, trough)
	}
	if math.Abs(peak-1.0) > 1e-9 {
		t.Fatalf("peak = %v, want 1.0", peak)
	}
	for h := 0.0; h < 24; h += 0.5 {
		v := DiurnalLoad(h)
		if v <= 0 || v > 1 {
			t.Fatalf("DiurnalLoad(%v) = %v out of (0,1]", h, v)
		}
	}
}

func TestPostSizeTailOutlivesDrain(t *testing.T) {
	r := NewRNG(41)
	var sizes []float64
	for i := 0; i < 200_000; i++ {
		sizes = append(sizes, float64(PostSizeBytes(r)))
	}
	med := Percentile(sizes, 0.5)
	p999 := Percentile(sizes, 0.999)
	if med > 1<<20 {
		t.Fatalf("median POST %v too large", med)
	}
	// §2.5: the p99.9 must be dramatically larger than the median — large
	// enough to outlive a 10-15s app server drain on a slow uplink.
	if p999 < 20*med {
		t.Fatalf("p999/median = %v, tail not heavy enough", p999/med)
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	v := []float64{5, 1, 3, 2, 4}
	if Percentile(v, 0) != 1 || Percentile(v, 1) != 5 || Percentile(v, 0.5) != 3 {
		t.Fatalf("percentiles wrong: %v %v %v", Percentile(v, 0), Percentile(v, 0.5), Percentile(v, 1))
	}
	// The input must not be mutated.
	if v[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(data []float64, a, b float64) bool {
		for _, d := range data {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return true
			}
		}
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(data, pa) <= Percentile(data, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
