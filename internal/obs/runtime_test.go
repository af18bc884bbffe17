package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zdr/internal/metrics"
)

func TestRenderPrometheusAtomicHistogramBuckets(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.AtomicHistogram("edge.http.latency", 0.001, 0.01, 0.1)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // overflow bucket

	body := renderPrometheus(reg.Snapshot())
	samples := checkPromText(t, body)

	if !strings.Contains(body, "# TYPE zdr_edge_http_latency histogram\n") {
		t.Fatalf("missing histogram TYPE line:\n%s", body)
	}
	// Buckets are cumulative and end at +Inf.
	for label, want := range map[string]float64{
		`zdr_edge_http_latency_bucket{le="0.001"}`: 1,
		`zdr_edge_http_latency_bucket{le="0.01"}`:  1,
		`zdr_edge_http_latency_bucket{le="0.1"}`:   2,
		`zdr_edge_http_latency_bucket{le="+Inf"}`:  3,
		`zdr_edge_http_latency_count`:              3,
	} {
		if samples[label] != want {
			t.Fatalf("%s = %v, want %v\n%s", label, samples[label], want, body)
		}
	}
	if s := samples["zdr_edge_http_latency_sum"]; s < 5.05 || s > 5.06 {
		t.Fatalf("sum = %v", s)
	}
}

func TestAdminPprofGatedByProfile(t *testing.T) {
	get := func(a *Admin, path string) int {
		srv := httptest.NewServer(a.handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(&Admin{Service: "test"}, "/debug/pprof/"); code != 404 {
		t.Fatalf("pprof served without Profile: %d", code)
	}
	if code := get(&Admin{Service: "test", Profile: true}, "/debug/pprof/"); code != 200 {
		t.Fatalf("pprof index with Profile: %d", code)
	}
	if code := get(&Admin{Service: "test", Profile: true}, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline with Profile: %d", code)
	}
}

func TestStartRuntimeStats(t *testing.T) {
	reg := metrics.NewRegistry()
	stop := StartRuntimeStats(reg, 10*time.Millisecond)
	defer stop()
	// The first sample is synchronous, so the gauges exist immediately.
	if g := reg.GaugeValue(gaugeGoroutines); g <= 0 {
		t.Fatalf("goroutines gauge = %d", g)
	}
	if g := reg.GaugeValue(gaugeHeapBytes); g <= 0 {
		t.Fatalf("heap bytes gauge = %d", g)
	}
	// Pause/latency p99 gauges must exist and be non-negative (they can
	// legitimately be 0 early in a process's life).
	for _, name := range []string{gaugeGCPauseP99Ns, gaugeSchedLatP99Ns} {
		if g := reg.GaugeValue(name); g < 0 {
			t.Fatalf("%s = %d", name, g)
		}
	}
	stop()
	stop() // idempotent
}

func TestStartRuntimeStatsNilRegistry(t *testing.T) {
	stop := StartRuntimeStats(nil, 0)
	stop()
}
