package proxy

import (
	"testing"
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
)

// steeringTopology builds nOrigins origins and one edge steering across
// them with the given policy, probing fast enough for tests.
func steeringTopology(t *testing.T, nOrigins int, policy string) *topology {
	t.Helper()
	tp := startTopology(t, 1, nOrigins)

	originAddrs := make([]string, 0, nOrigins)
	healthAddrs := make([]string, 0, nOrigins)
	for _, o := range tp.origins {
		originAddrs = append(originAddrs, o.Addr(VIPTunnel))
		healthAddrs = append(healthAddrs, o.Addr(VIPHealth))
	}
	e := New(Config{
		Name:         "edge-steer",
		Role:         RoleEdge,
		Origins:      originAddrs,
		OriginHealth: healthAddrs,
		Steering:     policy,
		DrainPeriod:  200 * time.Millisecond,
		steeringPrequal: katran.PrequalConfig{
			ProbeInterval: 10 * time.Millisecond,
			ProbeTimeout:  300 * time.Millisecond,
			Seed:          42,
		},
		// Keep active HC slow: the test must show the DRAIN ADVERTISEMENT
		// (heard on the persistent load-probe channel) steering flows
		// away, not health-check eviction.
		steeringHCInterval: 10 * time.Second,
	}, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	tp.edge = e
	return tp
}

// TestLoadProbeAnswersPhase pins the LOAD wire protocol end to end: a
// proxy answers load probes on a persistent connection and advertises
// its release phase the moment draining starts — even though its
// listeners have already stopped accepting.
func TestLoadProbeAnswersPhase(t *testing.T) {
	o := New(Config{
		Name:        "origin-load",
		Role:        RoleOrigin,
		AppServers:  []string{"127.0.0.1:1"},
		DrainPeriod: time.Second,
		Generation:  7,
	}, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	// Capture the address up front: after the drain closes the accept
	// loops the VIP unbinds and Addr answers "".
	healthAddr := o.Addr(VIPHealth)

	p := &katran.HCProber{}
	defer p.Close()
	s, err := p.Load(healthAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != katran.PhaseServing || s.Generation != 7 {
		t.Fatalf("serving sample = %+v", s)
	}

	o.StartDraining()
	// Same persistent channel: a fresh dial would now be refused, but the
	// established probe connection hears the phase flip instantly.
	s, err = p.Load(healthAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatalf("draining instance advertised %+v", s)
	}
	// And the one-shot health probe now fails (accept is closed), which
	// is exactly why the persistent channel is the faster drain signal.
	if err := p.Probe(healthAddr, 300*time.Millisecond); err == nil {
		t.Fatal("health probe to a draining instance should fail")
	}
}

func TestEdgeSteeringMaglevServes(t *testing.T) {
	tp := steeringTopology(t, 2, "maglev")
	for i := 0; i < 8; i++ {
		resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if tp.edge.Metrics().CounterValue("edge.steer.picks") == 0 {
		t.Fatal("maglev steering recorded no picks")
	}
}

// TestEdgeSteeringPrequalAvoidsDrainingOrigin is the tentpole behaviour
// at the proxy tier: when an origin starts a release, its drain
// advertisement reaches the edge over the load-probe channel within one
// probe interval and new requests bleed off it — before any health
// check could have evicted it.
func TestEdgeSteeringPrequalAvoidsDrainingOrigin(t *testing.T) {
	tp := steeringTopology(t, 3, "prequal")
	edge := tp.edge

	// Warm up: probes populate the pools, requests flow.
	time.Sleep(80 * time.Millisecond)
	for i := 0; i < 12; i++ {
		resp := doRequest(t, edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
		if resp.StatusCode != 200 {
			t.Fatalf("warmup %d: status %d", i, resp.StatusCode)
		}
	}

	victim := tp.origins[1]
	victim.StartDraining()
	time.Sleep(80 * time.Millisecond) // several probe intervals: the advertisement lands

	before := victim.Metrics().CounterValue("origin.http.requests")
	for i := 0; i < 24; i++ {
		resp := doRequest(t, edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
		if resp.StatusCode != 200 {
			t.Fatalf("post-drain %d: status %d", i, resp.StatusCode)
		}
	}
	if got := victim.Metrics().CounterValue("origin.http.requests") - before; got != 0 {
		t.Fatalf("%d new requests landed on the draining origin", got)
	}
	if edge.Metrics().CounterValue("katran.prequal.drain_avoided") == 0 {
		t.Fatal("drain advertisement never influenced a pick")
	}
	// The active health checker was too slow to matter by design: the
	// avoidance above came from the drain advertisement alone.
	if edge.Metrics().CounterValue("katran.health.down") != 0 {
		t.Fatal("victim was health-evicted; test did not exercise the advertisement path")
	}
}
