package stats

import (
	"math"
	"testing"
	"time"
)

// flat returns n verified samples of latency lat due evenly over
// [from, from+span).
func flat(n int, from, span, lat time.Duration) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Due: from + span*time.Duration(i)/time.Duration(n), Lat: lat, OK: true}
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
}

// Two restarts: samples due inside [call, return+drain) belong to the
// release tail and to nothing else.
func TestReleaseWindowSelection(t *testing.T) {
	windows := []Interval{{From: time.Second, To: 2 * time.Second}, {From: 4 * time.Second, To: 5 * time.Second}}
	var samples []Sample
	samples = append(samples, flat(600, 0, 6*time.Second, 100*time.Microsecond)...) // steady everywhere
	samples = append(samples, flat(10, time.Second, time.Second, 3*time.Millisecond)...)
	samples = append(samples, flat(10, 4*time.Second, time.Second, 5*time.Millisecond)...)
	rel, n, in := ReleaseTail(samples, windows, 0.99)
	if n != 2 || in != 220 || rel != 4000 {
		t.Errorf("ReleaseTail = %v us over %d windows holding %d, want 4000 (median of 3000 and 5000), 2, 220", rel, n, in)
	}
	outside := func(s Sample) bool { return !InAny(windows, s.Due) }
	steady := Latencies(samples, outside)
	p99, cnt := Quantile(steady, 0.99), len(steady)
	if p99 != 100 || cnt != 400 {
		t.Errorf("outside windows p99 = %v us over %d, want 100 over 400", p99, cnt)
	}
	if !windows[0].Contains(time.Second) || windows[0].Contains(2*time.Second) {
		t.Error("a window holds its start and not its end")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{10, 20, 40})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	if got := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}
