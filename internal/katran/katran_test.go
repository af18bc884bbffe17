package katran

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func newLB(t *testing.T, cfg Config, backends ...string) *LB {
	t.Helper()
	lb := New("test-lb", cfg, nil)
	for _, b := range backends {
		lb.AddBackend(Backend{Name: b, Addr: b + ":443"}, true)
	}
	t.Cleanup(lb.Close)
	return lb
}

func TestSteerNoBackends(t *testing.T) {
	lb := newLB(t, Config{})
	if _, err := lb.Steer(1); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v", err)
	}
}

func TestSteerConsistent(t *testing.T) {
	lb := newLB(t, Config{}, "p1", "p2", "p3", "p4")
	for flow := uint64(0); flow < 100; flow++ {
		a, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := lb.Steer(flow)
		if a.Name != b.Name {
			t.Fatalf("flow %d flapped %s -> %s", flow, a.Name, b.Name)
		}
	}
}

func TestSteerSpreadsLoad(t *testing.T) {
	lb := newLB(t, Config{}, "p1", "p2", "p3", "p4")
	counts := map[string]int{}
	for flow := uint64(0); flow < 4000; flow++ {
		b, err := lb.Steer(flow * 0x9e3779b97f4a7c15)
		if err != nil {
			t.Fatal(err)
		}
		counts[b.Name]++
	}
	for name, n := range counts {
		if n < 500 || n > 1500 {
			t.Fatalf("backend %s got %d of 4000 flows", name, n)
		}
	}
}

func TestUnhealthyBackendRemovedFromRing(t *testing.T) {
	lb := newLB(t, Config{}, "p1", "p2", "p3")
	lb.SetHealth("p2", false)
	if got := lb.HealthyBackends(); len(got) != 2 {
		t.Fatalf("healthy = %v", got)
	}
	for flow := uint64(0); flow < 500; flow++ {
		b, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name == "p2" {
			t.Fatal("steered to unhealthy backend")
		}
	}
}

// TestLRUCacheAbsorbsHealthFlap is the §5.1 scenario: a momentary health
// flap must not move established flows when the flow cache is enabled.
func TestLRUCacheAbsorbsHealthFlap(t *testing.T) {
	lb := newLB(t, Config{FlowCacheSize: 4096}, "p1", "p2", "p3", "p4")
	// Establish flows.
	before := map[uint64]string{}
	for flow := uint64(0); flow < 1000; flow++ {
		b, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		before[flow] = b.Name
	}
	// Flap: p3 momentarily unhealthy, then back.
	lb.SetHealth("p3", false)
	lb.SetHealth("p3", true)
	moved := 0
	for flow := uint64(0); flow < 1000; flow++ {
		b, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != before[flow] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d flows moved across a momentary flap despite the LRU cache", moved)
	}
}

// TestWithoutCacheFlapMovesFlows is the ablation baseline: without the
// cache, flows owned by the flapped backend get re-picked mid-flap.
func TestWithoutCacheFlapMovesFlows(t *testing.T) {
	lb := newLB(t, Config{}, "p1", "p2", "p3", "p4")
	owned := []uint64{}
	for flow := uint64(0); flow < 1000; flow++ {
		b, _ := lb.Steer(flow)
		if b.Name == "p3" {
			owned = append(owned, flow)
		}
	}
	if len(owned) == 0 {
		t.Fatal("p3 owns no flows?")
	}
	lb.SetHealth("p3", false)
	moved := 0
	for _, flow := range owned {
		b, _ := lb.Steer(flow)
		if b.Name != "p3" {
			moved++
		}
	}
	if moved != len(owned) {
		t.Fatalf("only %d/%d of the dead backend's flows moved", moved, len(owned))
	}
}

// TestCachedFlowFailsOverWhenBackendDies: the cache must not pin flows to
// a dead backend.
func TestCachedFlowFailsOverWhenBackendDies(t *testing.T) {
	lb := newLB(t, Config{FlowCacheSize: 128}, "p1", "p2")
	var victimFlow uint64
	var victim string
	for flow := uint64(0); flow < 100; flow++ {
		b, _ := lb.Steer(flow)
		victimFlow, victim = flow, b.Name
		break
	}
	lb.SetHealth(victim, false)
	b, err := lb.Steer(victimFlow)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name == victim {
		t.Fatal("cache pinned a flow to a dead backend")
	}
}

// TestECMPConsistency: multiple Katran instances with the same backend
// view steer every flow identically (the property ECMP relies on, §2.1).
func TestECMPConsistency(t *testing.T) {
	mk := func() *LB { return newLB(t, Config{}, "p1", "p2", "p3", "p4", "p5") }
	a, b, c := mk(), mk(), mk()
	for flow := uint64(0); flow < 2000; flow++ {
		x, _ := a.Steer(flow)
		y, _ := b.Steer(flow)
		z, _ := c.Steer(flow)
		if x.Name != y.Name || y.Name != z.Name {
			t.Fatalf("flow %d steered inconsistently: %s %s %s", flow, x.Name, y.Name, z.Name)
		}
	}
}

// healthServer answers the HC protocol; answer is swappable at runtime.
type healthServer struct {
	ln     net.Listener
	answer func() string
}

func startHealthServer(t *testing.T, answer func() string) *healthServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &healthServer{ln: ln, answer: answer}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if line, err := br.ReadString('\n'); err != nil || line != "HC\n" {
					return
				}
				fmt.Fprintf(conn, "%s\n", hs.answer())
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return hs
}

func TestHCProberAgainstRealServer(t *testing.T) {
	healthy := true
	hs := startHealthServer(t, func() string {
		if healthy {
			return "OK"
		}
		return "DRAIN"
	})
	addr := hs.ln.Addr().String()
	probe := (&HCProber{}).Probe
	if err := probe(addr, time.Second); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
	healthy = false
	if err := probe(addr, time.Second); err == nil {
		t.Fatal("DRAIN answer should probe unhealthy")
	}
	hs.ln.Close()
	if err := probe(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dead listener should probe unhealthy")
	}
}

func TestHealthCheckLoopEvictsAndReadmits(t *testing.T) {
	state := "OK"
	hs := startHealthServer(t, func() string { return state })
	lb := New("lb", Config{UnhealthyAfter: 2, HealthyAfter: 2}, nil)
	defer lb.Close()
	lb.AddBackend(Backend{Name: "p1", Addr: "ignored", HealthAddr: hs.ln.Addr().String()}, false)

	lb.ProbeOnce()
	if len(lb.HealthyBackends()) != 0 {
		t.Fatal("admitted after 1 probe with HealthyAfter=2")
	}
	lb.ProbeOnce()
	if len(lb.HealthyBackends()) != 1 {
		t.Fatal("not admitted after 2 good probes")
	}
	state = "DRAIN"
	lb.ProbeOnce()
	if len(lb.HealthyBackends()) != 1 {
		t.Fatal("evicted after only 1 failure with UnhealthyAfter=2")
	}
	lb.ProbeOnce()
	if len(lb.HealthyBackends()) != 0 {
		t.Fatal("not evicted after 2 failures")
	}
	if lb.Metrics().CounterValue("katran.health.down") != 1 {
		t.Fatal("down transition not counted")
	}
}

func TestStartHealthChecksRuns(t *testing.T) {
	hs := startHealthServer(t, func() string { return "OK" })
	lb := New("lb", Config{}, nil)
	lb.AddBackend(Backend{Name: "p1", Addr: "x", HealthAddr: hs.ln.Addr().String()}, false)
	lb.StartHealthChecks(20 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(lb.HealthyBackends()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never admitted the backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	lb.Close()
}

func BenchmarkSteerCached(b *testing.B) {
	lb := New("bench", Config{FlowCacheSize: 1 << 16}, nil)
	for i := 0; i < 64; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("p%d", i), Addr: "x"}, true)
	}
	lb.Steer(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.Steer(12345)
	}
}

func BenchmarkSteerUncached(b *testing.B) {
	lb := New("bench", Config{}, nil)
	for i := 0; i < 64; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("p%d", i), Addr: "x"}, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.Steer(uint64(i))
	}
}
