package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"zdr/internal/proxy"
	"zdr/internal/quicx"
	"zdr/internal/racetest"
)

// liveHeap is HeapAlloc once everything collectable — sync.Pool victims
// included, which take two cycles — has been collected.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func edgeSlot(t *testing.T, enableQUIC bool) *ProxySlot {
	gen := 0
	slot := &ProxySlot{
		SlotName:  "edge-slot",
		Path:      filepath.Join(t.TempDir(), "edge.sock"),
		DrainWait: 10 * time.Millisecond,
		Build: func() *proxy.Proxy {
			gen++
			return proxy.New(proxy.Config{
				Name:          fmt.Sprintf("edge-g%d", gen),
				Role:          proxy.RoleEdge,
				Origins:       []string{"127.0.0.1:1"}, // unused: static only
				EnableQUIC:    enableQUIC,
				StaticContent: map[string][]byte{"/s": []byte("static")},
			}, nil)
		},
	}
	if err := slot.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slot.Close)
	return slot
}

// TestRestartHeapAllocation: a generation retains nothing. Ten restarts
// of a QUIC-enabled Edge, each drain finished, leave the live heap where
// it was; and what the datagram rings add to a resting Edge — a receive
// ring for the VIP's read loop, a send ring for its replies — is under
// 512 KiB a VIP socket, where two 64-slot rings of 64 KiB buffers in each
// direction were 16 MiB.
func TestRestartHeapAllocation(t *testing.T) {
	racetest.SkipAllocs(t)
	base := liveHeap()
	plain := edgeSlot(t, false)
	withoutRings := liveHeap() - base
	plain.Close()

	base = liveHeap()
	slot := edgeSlot(t, true)
	withRings := liveHeap() - base
	if rings := withRings - withoutRings; rings > 512<<10 {
		t.Errorf("a resting Edge with a QUIC VIP holds %d KiB more than one without, want <= 512 KiB", rings>>10)
	}

	flow := func() {
		t.Helper()
		c, err := quicx.Dial(slot.Current().Addr(proxy.VIPQUIC), 7)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if reply, err := c.Open([]byte("/s"), 2*time.Second); err != nil {
			t.Fatalf("reply %q, %v", reply, err)
		}
	}
	restart := func() {
		t.Helper()
		if err := slot.Restart(); err != nil {
			t.Fatal(err)
		}
		slot.WaitDrains()
		flow()
	}
	restart() // whatever only a first restart builds is built
	before := liveHeap()
	for i := 0; i < 10; i++ {
		restart()
	}
	if grown := liveHeap() - before; grown > 1<<20 {
		t.Errorf("ten restarts left %d KiB more live heap, want <= 1 MiB", grown>>10)
	}
}
