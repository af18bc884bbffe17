package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zdr/internal/metrics"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"proxy.http.status.200": "zdr_proxy_http_status_200",
		"core.restarts":         "zdr_core_restarts",
		"weird-name/with:colon": "zdr_weird_name_with:colon",
	} {
		if got := promName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promLine matches one sample line of the text exposition format:
// a metric name, an optional label set, and a float value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (\S+)$`)

// promTypeLine matches a # TYPE comment.
var promTypeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)

// checkPromText validates every line of a text exposition body and
// returns the parsed samples (full name incl. labels -> value).
func checkPromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if m := promTypeLine.FindStringSubmatch(line); m != nil {
			if typed[m[1]] {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			typed[m[1]] = true
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d is not valid exposition text: %q", i+1, line)
			continue
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, m[4], err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestRenderPrometheusValidExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("proxy.takeovers").Add(3)
	reg.Counter("edge.http.errors.upstream") // zero-valued
	reg.Gauge("origin.mqtt.relays").Set(-2)
	h := reg.AtomicHistogram("edge.http.latency_us", 25, 50, 75, 100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	body := renderPrometheus(reg.Snapshot())
	samples := checkPromText(t, body)

	if got := samples["zdr_proxy_takeovers"]; got != 3 {
		t.Errorf("zdr_proxy_takeovers = %v, want 3", got)
	}
	if got := samples["zdr_origin_mqtt_relays"]; got != -2 {
		t.Errorf("zdr_origin_mqtt_relays = %v, want -2", got)
	}
	if got := samples["zdr_edge_http_latency_us_count"]; got != 100 {
		t.Errorf("_count = %v, want 100", got)
	}
	if got := samples["zdr_edge_http_latency_us_sum"]; got != 5050 {
		t.Errorf("_sum = %v, want 5050", got)
	}
	b50 := samples[`zdr_edge_http_latency_us_bucket{le="50"}`]
	bInf := samples[`zdr_edge_http_latency_us_bucket{le="+Inf"}`]
	if b50 != 50 || bInf != 100 {
		t.Errorf("buckets not cumulative: le=50 %v (want 50), le=+Inf %v (want 100)", b50, bInf)
	}
	// Rendering is deterministic.
	if again := renderPrometheus(reg.Snapshot()); again != body {
		t.Error("RenderPrometheus output is not stable across identical snapshots")
	}
}

func TestAdminMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("core.restarts").Add(7)
	a := &Admin{Service: "test", Registry: reg}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	samples := checkPromText(t, string(body))
	if samples["zdr_core_restarts"] != 7 {
		t.Fatalf("zdr_core_restarts = %v", samples["zdr_core_restarts"])
	}
}

func TestAdminHealthzFlipsWithDraining(t *testing.T) {
	draining := false
	a := &Admin{Service: "test", Draining: func() bool { return draining }}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(); code != 200 || body != "ok\n" {
		t.Fatalf("healthy: %d %q", code, body)
	}
	draining = true
	if code, body := get(); code != 503 || body != "draining\n" {
		t.Fatalf("draining: %d %q", code, body)
	}
	draining = false
	if code, _ := get(); code != 200 {
		t.Fatalf("recovered: %d", code)
	}
}

func TestAdminDebugRelease(t *testing.T) {
	tr := NewTracer("test")
	open := tr.StartSpan("proxy.drain", SpanContext{})
	defer open.End()
	a := &Admin{
		Service: "test",
		Tracer:  tr,
		ReleaseState: func() ReleaseState {
			return ReleaseState{
				Service:  "test",
				Draining: true,
				Slots: []SlotState{{
					Name: "edge", Generation: 2, TakeoverArmed: true, Takeovers: 1,
				}},
			}
		},
	}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/release")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state ReleaseState
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if !state.Draining || len(state.Slots) != 1 || state.Slots[0].Generation != 2 {
		t.Fatalf("state = %+v", state)
	}
	// The tracer's open span is folded in when the callback leaves
	// InFlightSpans empty.
	if len(state.InFlightSpans) != 1 || state.InFlightSpans[0].Name != "proxy.drain" {
		t.Fatalf("in-flight spans = %+v", state.InFlightSpans)
	}
}

func TestAdminServerStartServes(t *testing.T) {
	a := &Admin{Service: "test", Registry: metrics.NewRegistry()}
	srv, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestAdminDebugPages: Debug entries mount one JSON page each under
// /debug/<name> — how daemons expose subsystem state (e.g. the release
// orchestrator's /debug/rollout) without obs knowing the types.
func TestAdminDebugPages(t *testing.T) {
	calls := 0
	a := &Admin{
		Service: "test",
		Debug: map[string]func() any{
			"rollout": func() any {
				calls++
				return map[string]any{"state": "running", "batch": calls}
			},
		},
	}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	get := func() map[string]any {
		resp, err := http.Get(srv.URL + "/debug/rollout")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := get(); out["state"] != "running" || out["batch"] != float64(1) {
		t.Fatalf("first fetch = %v", out)
	}
	// Each request re-invokes the callback: the page is live state, not a
	// snapshot taken at mount time.
	if out := get(); out["batch"] != float64(2) {
		t.Fatalf("second fetch = %v, want batch 2", out)
	}
}
