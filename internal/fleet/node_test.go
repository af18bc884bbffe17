package fleet

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/netx"
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
