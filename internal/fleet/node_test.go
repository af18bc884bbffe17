package fleet

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/core"
	"zdr/internal/netx"
	"zdr/internal/proxy"
)

// TestTopologyCloseLeavesNothing: the whole topology under load, every
// node restarted once and one Edge rebound, leaves no descriptor and no
// goroutine behind once Close returns. The proxies drain for the default
// 2 s, so a Close that did not wait out the restarts' drains would leave
// the replaced generations running past the deadline.
func TestTopologyCloseLeavesNothing(t *testing.T) {
	fds0, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	goroutines0 := runtime.NumGoroutine()

	top, err := NewTopology(Spec{Broker: true, Apps: 2, Origins: 2, Edges: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ok atomic.Int64
	top.Load(func(_, code int, err error) {
		if err == nil && code == 200 {
			ok.Add(1)
		}
	})
	time.Sleep(50 * time.Millisecond)
	for _, n := range slices.Concat(top.Apps, top.Origins, top.Edges) {
		if err := n.Target.Restart(); err != nil {
			t.Fatalf("restart %s: %v", n.Name, err)
		}
	}
	if err := top.Edges[0].Rebind(true, 0); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	// The rebound node is a fresh process: it and its slot count from 1.
	if gen, name := top.Edges[0].Proxy.State().Generation, top.Edges[0].Proxy.Current().Name(); gen != 1 || name != "edge-00-g1" {
		t.Fatalf("after rebind: slot generation %d, serving %s", gen, name)
	}
	time.Sleep(50 * time.Millisecond)
	top.Close()
	if ok.Load() == 0 {
		t.Fatal("no request through the topology succeeded")
	}

	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		fds, _ := netx.OpenFDCount()
		if fds <= fds0 && runtime.NumGoroutine() <= goroutines0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("1 s after Close: %d descriptors and %d goroutines, at start %d and %d",
				fds, runtime.NumGoroutine(), fds0, goroutines0)
		}
	}
}

// TestStartNodeAgainReleasesIt: starting a running Origin again, as a
// second zdr-node process would, takes its sockets over under load with
// no failed request, and its state file then records generation 2. The
// Origin's health VIP is pinned in the spec.
func TestStartNodeAgainReleasesIt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	health := ln.Addr().String()
	ln.Close()
	spec := Spec{Dir: t.TempDir(), Apps: 1, Origins: 1, Edges: 1, Drain: 100 * time.Millisecond,
		Addrs: map[string]map[string]string{"origin-00": {proxy.VIPHealth: health}}}
	top, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	if st, _ := readState(spec.Dir, "origin-00"); st.Addrs[proxy.VIPHealth] != health {
		t.Fatalf("origin-00 recorded %v; its health VIP is pinned to %s", st.Addrs, health)
	}
	var ok, failed atomic.Int64
	top.Load(func(_, code int, err error) {
		if err != nil || code != 200 {
			failed.Add(1)
			return
		}
		ok.Add(1)
	})
	time.Sleep(50 * time.Millisecond)
	n, err := StartNode(spec, "origin-00")
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	if n.Proxy.State().Takeovers != 1 || !top.Origins[0].Draining() {
		t.Fatalf("no hand-off: %+v", n.Proxy.State())
	}
	time.Sleep(50 * time.Millisecond)
	top.Close()
	if failed.Load() != 0 || ok.Load() == 0 {
		t.Fatalf("across the release: %d requests failed, %d served", failed.Load(), ok.Load())
	}
	if got, want := n.Addr(proxy.VIPTunnel), top.Origins[0].Addr(proxy.VIPTunnel); got != want || n.Addr(proxy.VIPHealth) != health {
		t.Fatalf("the second start serves the tunnel on %s (the first on %s), health on %s", got, want, n.Addr(proxy.VIPHealth))
	}
	if st, err := readState(spec.Dir, "origin-00"); err != nil || st.Gen != 2 {
		t.Fatalf("state file after the release: %+v, %v; want generation 2", st, err)
	}
}

// TestStartNodeUnarmedKeepsServing: when the released Origin cannot arm
// its takeover path after taking the sockets over (something squats on
// the path), StartNode still returns the node, serving, with
// core.ErrTakeoverNotArmed, and records generation 2: the old generation
// drains, so closing the new one would leave the VIPs dark.
func TestStartNodeUnarmedKeepsServing(t *testing.T) {
	spec := Spec{Dir: t.TempDir(), Apps: 1, Origins: 1, Edges: 1, Drain: 100 * time.Millisecond}
	top, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	path := filepath.Join(spec.Dir, "origin-00.sock")
	again := spec
	again.Build = func(_ int, cfg *proxy.Config) {
		cfg.ReadyGate = func() error {
			// After COMMIT: a non-empty directory replaces the socket file.
			return errors.Join(os.Remove(path), os.MkdirAll(filepath.Join(path, "squat"), 0o700))
		}
	}
	n, err := StartNode(again, "origin-00")
	if !errors.Is(err, core.ErrTakeoverNotArmed) || n == nil {
		t.Fatalf("StartNode on an unbindable path after a take-over: %v, %v; want a node and ErrTakeoverNotArmed", n, err)
	}
	defer n.close()
	if n.Proxy.State().Takeovers != 1 || n.Draining() || !top.Origins[0].Draining() {
		t.Fatalf("no hand-off: %+v", n.Proxy.State())
	}
	if code, err := GetStatus(top.Edges[0].Addr(proxy.VIPWeb), "/hello", 2*time.Second); err != nil || code != 200 {
		t.Fatalf("GET through the Edge after the unarmed release: %d, %v", code, err)
	}
	if st, err := readState(spec.Dir, "origin-00"); err != nil || st.Gen != 2 {
		t.Fatalf("state file after the unarmed release: %+v, %v; want generation 2", st, err)
	}
}
