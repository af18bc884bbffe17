// Telemetry chaos: the acceptance scenario for the disruption-accounting
// pipeline. A 24-node fleet with per-node fault injectors and disruption
// ledgers is rolled out (gated) under live load while the injectors
// abort connections at random. Afterwards the fleet-merged
// TelemetryReport must reconcile EXACTLY: every injected fault appears
// as one attributed ledger event, nothing is unattributed, and the
// merged atomic histograms carry the fleet's latency distribution.
package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/proxy"
)

// newTelemetrySimFleet wires the full telemetry surface onto each node:
// a disruption ledger shared across generations and an accept-path
// fault injector whose observer feeds the ledger.
func newTelemetrySimFleet(t *testing.T, n int, maxHold time.Duration) (*Topology, []*simNode) {
	t.Helper()
	leds := make([]*disrupt.Ledger, n)
	injs := make([]*faults.Injector, n)
	for i := range leds {
		leds[i] = disrupt.New(fmt.Sprintf("edge-%02d", i), 512)
		injs[i] = faults.NewInjector(faults.Scenario{
			Seed:        uint64(i + 1),
			AbortRate:   0.15,
			AbortMinOps: 1,
		})
	}
	f, sims := newSimFleet(t, n, maxHold, func(i int, cfg *proxy.Config) {
		cfg.AcceptFaults, cfg.Ledger = injs[i], leds[i]
		cfg.StaticContent = map[string][]byte{"/hello": []byte("hello")}
	})
	for i, s := range sims {
		s.led, s.inj = leds[i], injs[i]
		f.Edges[i].Disruption = leds[i].Report
	}
	return f, sims
}

// TestFleetChaosTelemetryAttribution rolls a good build across 24 nodes
// while every node's accept path randomly aborts connections, then
// demands exact books: injected == attributed, unattributed == 0.
func TestFleetChaosTelemetryAttribution(t *testing.T) {
	f, sims := newTelemetrySimFleet(t, 24, 10*time.Second)
	nodes := f.Edges

	f.Load(func(int, int, error) {}) // aborts are expected; outcome irrelevant
	time.Sleep(150 * time.Millisecond)

	// The gate must tolerate the injected chaos (it is background noise on
	// old AND new generation alike) while the telemetry channel watches.
	cfg := Config{
		Name:          "telemetry-chaos",
		CanarySize:    2,
		HealthWindow:  300 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Gate: GateConfig{
			MaxErrorRateDelta:   0.9,
			MaxProbeFailureRate: 0.95,
			MaxDisruptionRate:   0.9,
		},
	}
	o, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("rollout: %v (status %+v)", err, o.Status())
	}
	st := o.Status()
	if st.State != StateDone {
		t.Fatalf("rollout state %q (reason %q), want done", st.State, st.Reason)
	}

	// Live batch telemetry was collected for every batch, from scrapes.
	if len(st.Telemetry) == 0 {
		t.Fatal("no batch telemetry collected")
	}
	var batchRequests int64
	for _, bt := range st.Telemetry {
		if bt.ScrapedNodes != len(bt.Nodes) {
			t.Fatalf("batch %d scraped %d of %d nodes: %+v", bt.Batch, bt.ScrapedNodes, len(bt.Nodes), bt)
		}
		batchRequests += bt.Requests
	}
	if batchRequests == 0 {
		t.Fatal("batch telemetry windows saw no traffic")
	}

	// Join in-flight handlers so every late fault is recorded before the
	// books are audited.
	f.Close()

	var injected int64
	for _, s := range sims {
		injected += int64(s.inj.InjectedTotal())
	}
	if injected == 0 {
		t.Fatal("chaos injected nothing; test is vacuous")
	}

	tele := &Telemetry{Nodes: nodes}
	rep := tele.Scrape()
	if rep.ScrapedNodes != len(sims) {
		t.Fatalf("scraped %d of %d nodes", rep.ScrapedNodes, len(sims))
	}
	if rep.Requests == 0 || rep.Latency.Count == 0 || rep.LatencyP99 <= 0 {
		t.Fatalf("fleet report missing traffic: requests=%d latency count=%d p99=%v",
			rep.Requests, rep.Latency.Count, rep.LatencyP99)
	}
	// The books: every injected fault is one attributed ledger event.
	if got := rep.Disruption.ByKind["fault"]; got != injected {
		t.Fatalf("ledger fault events = %d, injectors fired %d", got, injected)
	}
	if rep.Disruption.Unattributed != 0 {
		t.Fatalf("unattributed terminal events: %d", rep.Disruption.Unattributed)
	}
	var attributed int64
	for _, c := range rep.CausePhase {
		if strings.HasPrefix(c.Cause, "injected:") {
			attributed += c.Count
		}
	}
	if attributed != injected {
		t.Fatalf("cause-phase cells attribute %d of %d injected faults: %+v",
			attributed, injected, rep.CausePhase)
	}

	// The cross-generation phase stamp: after a promoted rollout every
	// ledger must sit at serving/2, not stuck on the old generation's
	// drain.
	for _, s := range sims {
		if phase, gen := s.led.Phase(); phase != "serving" || gen != 2 {
			t.Fatalf("%s ledger phase %s/%d after promote, want serving/2", s.name, phase, gen)
		}
	}
}
