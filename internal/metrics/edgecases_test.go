package metrics

import (
	"math"
	"testing"
)

// TestAtomicHistogramEdgeCases pins the histogram's behaviour on the
// inputs that used to be able to poison a snapshot: no data at all, and
// NaN/Inf observations (dropped at Observe).
func TestAtomicHistogramEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		observe   []float64
		wantCount int64
		wantMean  float64
	}{
		{name: "empty", observe: nil},
		{name: "nan only", observe: []float64{math.NaN()}},
		{name: "inf only", observe: []float64{math.Inf(1), math.Inf(-1)}},
		{name: "nan mixed with data", observe: []float64{1, math.NaN(), 3}, wantCount: 2, wantMean: 2},
		{name: "inf mixed with data", observe: []float64{math.Inf(1), 5, math.Inf(-1)}, wantCount: 1, wantMean: 5},
		{name: "single sample", observe: []float64{7}, wantCount: 1, wantMean: 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewAtomicHistogram([]float64{1, 10, 100})
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Count(); got != tc.wantCount {
				t.Fatalf("Count = %d, want %d", got, tc.wantCount)
			}
			if got := h.Mean(); math.Abs(got-tc.wantMean) > 1e-9 {
				t.Fatalf("Mean = %g, want %g", got, tc.wantMean)
			}
			if got, want := h.sum(), tc.wantMean*float64(tc.wantCount); math.Abs(got-want) > 1e-9 {
				t.Fatalf("Sum = %g, want %g", got, want)
			}
			s := h.Snapshot()
			for name, v := range map[string]float64{
				"sum": s.Sum, "mean": s.mean(), "p0": s.Quantile(0), "p50": s.Quantile(0.5),
				"p99": s.Quantile(0.99), "p100": s.Quantile(1),
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("snapshot %s = %g: non-finite leaked into the snapshot", name, v)
				}
			}
		})
	}
}
