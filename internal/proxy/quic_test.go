package proxy

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zdr/internal/quicx"
	"zdr/internal/racetest"
)

func startQUICEdge(t *testing.T, name string) *Proxy {
	t.Helper()
	p := New(Config{
		Name:        name,
		Role:        RoleEdge,
		Origins:     []string{"127.0.0.1:1"},
		EnableQUIC:  true,
		DrainPeriod: 300 * time.Millisecond,
		StaticContent: map[string][]byte{
			"/video/seg1": []byte("segment-one-bytes"),
		},
	}, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestEdgeQUICVIPServes(t *testing.T) {
	edge := startQUICEdge(t, "edge-q")
	addr := edge.Addr(VIPQUIC)
	if addr == "" {
		t.Fatal("QUIC VIP not bound")
	}
	c, err := quicx.Dial(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Open([]byte("/video/seg1"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "edge-q|segment-one-bytes" {
		t.Fatalf("reply = %q", reply)
	}
	reply, err = c.Send([]byte("/nope"), 2*time.Second)
	if err != nil || string(reply) != "edge-q|404" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
}

// TestQUICHandlerAllocatesNothing: hit and 404 both answer from replies
// built at New.
func TestQUICHandlerAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	p := New(Config{
		Name:          "edge-q",
		Role:          RoleEdge,
		StaticContent: map[string][]byte{"/video/seg1": []byte("segment-one-bytes")},
	}, nil)
	defer p.Close()
	for target, want := range map[string]string{
		"/video/seg1": "edge-q|segment-one-bytes",
		"/nope":       "edge-q|404",
	} {
		payload := []byte(target)
		if got := p.quicHandler(7, payload); string(got) != want {
			t.Fatalf("quicHandler(%q) = %q, want %q", target, got, want)
		}
		if n := testing.AllocsPerRun(1000, func() { p.quicHandler(7, payload) }); n != 0 {
			t.Errorf("quicHandler(%q): %v allocs, want 0", target, n)
		}
	}
}

// TestEdgeQUICSurvivesTakeover is the §4.1 UDP story at the proxy level:
// a flow opened on generation 1 keeps being served by generation 1 during
// its drain (user-space routing via the forward address carried in the
// takeover manifest), while new flows land on generation 2 — all on one
// UDP socket that never closes.
func TestEdgeQUICSurvivesTakeover(t *testing.T) {
	gen1 := startQUICEdge(t, "edge-gen1")
	addr := gen1.Addr(VIPQUIC)
	path := filepath.Join(t.TempDir(), "edge-quic.sock")
	if err := gen1.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}

	// Open a flow on generation 1.
	c1, err := quicx.Dial(addr, 101)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if reply, err := c1.Open([]byte("/video/seg1"), 2*time.Second); err != nil || !strings.HasPrefix(string(reply), "edge-gen1|") {
		t.Fatalf("gen1 open: %q %v", reply, err)
	}

	// Generation 2 takes over (manifest carries the forward address).
	gen2 := New(Config{
		Name:        "edge-gen2",
		Role:        RoleEdge,
		Origins:     []string{"127.0.0.1:1"},
		EnableQUIC:  true,
		DrainPeriod: 300 * time.Millisecond,
		StaticContent: map[string][]byte{
			"/video/seg1": []byte("segment-one-bytes"),
		},
	}, nil)
	if _, err := gen2.TakeoverFrom(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gen2.Close)

	// Wait until gen1 is draining (OnDrainStart fires asynchronously).
	deadline := time.Now().Add(2 * time.Second)
	for !gen1.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("gen1 never started draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The old flow must still be answered by generation 1.
	served := false
	for i := 0; i < 20; i++ {
		reply, err := c1.Send([]byte("/video/seg1"), 500*time.Millisecond)
		if err == nil {
			if !strings.HasPrefix(string(reply), "edge-gen1|") {
				t.Fatalf("old flow served by %q, want gen1", reply)
			}
			served = true
			break
		}
	}
	if !served {
		t.Fatal("old flow starved during drain")
	}

	// A new flow must land on generation 2.
	c2, err := quicx.Dial(addr, 202)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	served = false
	for i := 0; i < 20; i++ {
		reply, err := c2.Open([]byte("/video/seg1"), 500*time.Millisecond)
		if err == nil {
			if !strings.HasPrefix(string(reply), "edge-gen2|") {
				t.Fatalf("new flow served by %q, want gen2", reply)
			}
			served = true
			break
		}
	}
	if !served {
		t.Fatal("new flow never served by gen2")
	}

	// Nothing was mis-routed on either side.
	if n := gen1.Metrics().CounterValue("quicx.misrouted") + gen2.Metrics().CounterValue("quicx.misrouted"); n != 0 {
		t.Fatalf("%d packets misrouted across the takeover", n)
	}
	if gen2.Metrics().CounterValue("quicx.forwarded") == 0 {
		t.Fatal("user-space forwarding never engaged")
	}
}
