// Package stats holds the estimators the benchmark reports: nearest-rank
// quantiles, release-window selection, and the quartile spread the
// contract in BENCHMARK.json is checked with.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample is one paced operation: when it was due (offset from the start
// of the phase), how long it took measured from that instant, and
// whether its reply verified.
type Sample struct {
	Due time.Duration
	Lat time.Duration
	OK  bool
}

// Quantile is the nearest-rank quantile of an ascending slice: the
// smallest value with at least q of the samples at or below it. It
// returns 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median is the middle value (mean of the two middle values for an even
// count). The input need not be sorted and is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Latencies returns the ascending latencies, in microseconds, of the
// verified samples that keep selects (nil keeps all).
func Latencies(samples []Sample, keep func(Sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.OK && (keep == nil || keep(s)) {
			out = append(out, float64(s.Lat)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// Interval is a span of the paced phase, as offsets from its start.
type Interval struct{ From, To time.Duration }

// Contains reports whether d falls inside the interval.
func (iv Interval) Contains(d time.Duration) bool { return d >= iv.From && d < iv.To }

// InAny reports whether d falls inside any of the intervals.
func InAny(ivs []Interval, d time.Duration) bool {
	for _, iv := range ivs {
		if iv.Contains(d) {
			return true
		}
	}
	return false
}

// ReleaseTail is the q-quantile of the verified samples due inside each
// interval, then the median over the intervals. Intervals with no
// verified sample are left out.
func ReleaseTail(samples []Sample, ivs []Interval, q float64) (us float64, windows, n int) {
	var tails []float64
	for _, iv := range ivs {
		l := Latencies(samples, func(s Sample) bool { return iv.Contains(s.Due) })
		if len(l) == 0 {
			continue
		}
		tails = append(tails, Quantile(l, q))
		n += len(l)
	}
	return Median(tails), len(tails), n
}

// Quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver checks spreads with. It needs at
// least two values.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise measure bounds are set
// against.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Metrics is an ordered set of reported numbers.
type Metrics []Metric

// Add appends a metric.
func (m *Metrics) Add(name string, value float64, unit string) {
	*m = append(*m, Metric{name, value, unit})
}

// Get returns the named metric's value.
func (m Metrics) Get(name string) (float64, bool) {
	for _, x := range m {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}
