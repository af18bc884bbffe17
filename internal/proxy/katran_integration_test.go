package proxy

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
)

// newEdgeFleet starts n static-content edges and a Katran LB probing them.
func newEdgeFleet(t *testing.T, n int) ([]*Proxy, *katran.LB) {
	t.Helper()
	lb := katran.New("l4", katran.Config{
		ProbeTimeout:  300 * time.Millisecond,
		FlowCacheSize: 1 << 14,
	}, nil)
	t.Cleanup(lb.Close)
	var edges []*Proxy
	for i := 0; i < n; i++ {
		e := New(Config{
			Name:          fmt.Sprintf("edge-%d", i),
			Role:          RoleEdge,
			Origins:       []string{"127.0.0.1:1"},
			DrainPeriod:   300 * time.Millisecond,
			StaticContent: map[string][]byte{"/s": []byte("static")},
		}, nil)
		if err := e.Listen(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		edges = append(edges, e)
		lb.AddBackend(katran.Backend{
			Name:       e.Name(),
			Addr:       e.Addr(VIPWeb),
			HealthAddr: e.Addr(VIPHealth),
		}, false)
	}
	lb.ProbeOnce() // admit everyone
	if got := len(lb.HealthyBackends()); got != n {
		t.Fatalf("only %d/%d edges admitted", got, n)
	}
	return edges, lb
}

func steerAndGet(t *testing.T, lb *katran.LB, flow uint64) (string, error) {
	t.Helper()
	b, err := lb.Steer(flow)
	if err != nil {
		return "", err
	}
	conn, err := net.DialTimeout("tcp", b.Addr, 2*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/s", nil, 0)); err != nil {
		return "", err
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return "", err
	}
	if _, err := http1.ReadFullBody(resp.Body); err != nil {
		return "", err
	}
	return resp.Header.Get("Via"), nil
}

// TestKatranEvictsHardRestartingEdge: the §2.3 behaviour — a draining
// instance fails health checks and leaves the routing ring; its flows are
// re-steered to survivors.
func TestKatranEvictsHardRestartingEdge(t *testing.T) {
	edges, lb := newEdgeFleet(t, 3)

	// Find a flow owned by edge-1.
	var victim uint64
	found := false
	for f := uint64(0); f < 1000 && !found; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name == "edge-1" {
			victim, found = f, true
		}
	}
	if !found {
		t.Fatal("edge-1 owns no flows")
	}
	if via, err := steerAndGet(t, lb, victim); err != nil || via != "edge-1" {
		t.Fatalf("pre-restart: via=%q err=%v", via, err)
	}

	// HardRestart: drain makes health answer DRAIN / connection refused.
	edges[1].StartDraining()
	lb.ProbeOnce()
	if got := len(lb.HealthyBackends()); got != 2 {
		t.Fatalf("healthy = %d, want 2 after eviction", got)
	}
	via, err := steerAndGet(t, lb, victim)
	if err != nil {
		t.Fatalf("flow not re-steered after eviction: %v", err)
	}
	if via == "edge-1" {
		t.Fatal("flow still steered to the draining edge")
	}
}

// TestKatranNeverNoticesZDRRestart: the headline L4 property — the restart
// is invisible to the health checker, the instance never leaves the ring,
// and its flows keep landing on the same (new-generation) backend.
func TestKatranNeverNoticesZDRRestart(t *testing.T) {
	edges, lb := newEdgeFleet(t, 3)
	path := filepath.Join(t.TempDir(), "edge1.sock")
	if err := edges[1].ServeTakeover(path); err != nil {
		t.Fatal(err)
	}

	var victim uint64
	found := false
	for f := uint64(0); f < 1000 && !found; f++ {
		b, _ := lb.Steer(f)
		if b.Name == "edge-1" {
			victim, found = f, true
		}
	}
	if !found {
		t.Fatal("edge-1 owns no flows")
	}

	// New generation takes over while the LB keeps probing.
	next := New(Config{
		Name:          "edge-1-gen2",
		Role:          RoleEdge,
		Origins:       []string{"127.0.0.1:1"},
		DrainPeriod:   300 * time.Millisecond,
		StaticContent: map[string][]byte{"/s": []byte("static")},
	}, nil)
	if _, err := next.TakeoverFrom(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(next.Close)

	// Probe repeatedly through the restart window: never evicted.
	for i := 0; i < 5; i++ {
		lb.ProbeOnce()
		if got := len(lb.HealthyBackends()); got != 3 {
			t.Fatalf("probe %d: healthy = %d — Katran noticed the ZDR restart", i, got)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The victim flow keeps hitting the same backend slot, now served by
	// the new generation.
	via, err := steerAndGet(t, lb, victim)
	if err != nil {
		t.Fatal(err)
	}
	if via != "edge-1-gen2" {
		t.Fatalf("flow served by %q, want the new generation on the same VIP", via)
	}
	if lb.Metrics().CounterValue("katran.health.down") != 0 {
		t.Fatal("health-down transition recorded during a ZDR restart")
	}
}
