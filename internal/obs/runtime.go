package obs

import (
	"math"
	runtimemetrics "runtime/metrics"
	"time"

	"zdr/internal/metrics"
)

// Runtime gauge names published by StartRuntimeStats.
const (
	gaugeGoroutines      = "runtime.goroutines"
	gaugeHeapBytes       = "runtime.heap_bytes"
	gaugeGCPauseP99Ns    = "runtime.gc_pause_p99_ns"
	gaugeSchedLatP99Ns   = "runtime.sched_latency_p99_ns"
	runtimeSampleDefault = time.Second
)

// runtimeSamples are the runtime/metrics series the sampler reads. The
// two histograms are cumulative since process start, which is the right
// shape for a p99 gauge: it answers "what has the tail looked like",
// matching how the paper's release engineers watch a host during a
// rollout rather than a windowed SLO query.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// StartRuntimeStats samples the Go runtime into reg every interval
// (default 1s): goroutine count, live heap bytes, and the p99 of GC
// pause and scheduler latency (nanoseconds, from runtime/metrics
// histograms). Daemons start it behind their -profile flag alongside
// the pprof endpoints. The returned stop function is idempotent.
func StartRuntimeStats(reg *metrics.Registry, interval time.Duration) (stop func()) {
	if reg == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = runtimeSampleDefault
	}
	samples := make([]runtimemetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	sampleOnce := func() {
		runtimemetrics.Read(samples)
		for _, s := range samples {
			switch s.Name {
			case "/sched/goroutines:goroutines":
				reg.Gauge(gaugeGoroutines).Set(asInt64(s.Value))
			case "/memory/classes/heap/objects:bytes":
				reg.Gauge(gaugeHeapBytes).Set(asInt64(s.Value))
			case "/gc/pauses:seconds":
				reg.Gauge(gaugeGCPauseP99Ns).Set(histP99Ns(s.Value))
			case "/sched/latencies:seconds":
				reg.Gauge(gaugeSchedLatP99Ns).Set(histP99Ns(s.Value))
			}
		}
	}
	sampleOnce()
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sampleOnce()
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
		}
	}
}

func asInt64(v runtimemetrics.Value) int64 {
	if v.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	u := v.Uint64()
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// histP99Ns estimates the 0.99 quantile of a runtime/metrics seconds
// histogram and returns it in nanoseconds.
func histP99Ns(v runtimemetrics.Value) int64 {
	if v.Kind() != runtimemetrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	if h == nil {
		return 0
	}
	q := runtimeHistQuantile(h, 0.99)
	if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
		return 0
	}
	return int64(q * 1e9)
}

// runtimeHistQuantile reads the q-quantile from a runtime/metrics
// histogram: Counts[i] covers [Buckets[i], Buckets[i+1]). The answer is
// the upper boundary of the bucket holding the target rank (a finite
// conservative bound; ±Inf edges fall back to the nearest finite one).
func runtimeHistQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 || len(h.Buckets) < 2 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				return h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
