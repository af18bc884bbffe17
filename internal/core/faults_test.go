package core

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/faults"
	"zdr/internal/http1"
	"zdr/internal/proxy"
)

// startHTTPLoad hammers the web VIP with GETs until stop is closed,
// recording ok/failed counts. Request failures do not stop the loop —
// the tests assert failed == 0 at the end.
func startHTTPLoad(addr string, stop chan struct{}, ok, failed *atomic.Int64) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				failed.Add(1)
				continue
			}
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/s", nil, 0)); err != nil {
				failed.Add(1)
				conn.Close()
				continue
			}
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil || resp.StatusCode != 200 {
				failed.Add(1)
				conn.Close()
				continue
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			ok.Add(1)
		}
	}()
	return done
}

// TestProxySlotSurvivesReceiverCrashMidHandoff is the release-path abort
// scenario end to end: during live HTTP load, a "new generation" dials
// the takeover path, receives part of the handoff, and dies before the
// ACK. The slot must roll back — same generation, not draining, zero
// failed client requests — and a subsequent real Restart must succeed.
func TestProxySlotSurvivesReceiverCrashMidHandoff(t *testing.T) {
	gen := 0
	path := filepath.Join(t.TempDir(), "edge.sock")
	slot := &ProxySlot{
		SlotName: "edge-slot",
		Path:     path,
		Build: func() *proxy.Proxy {
			gen++
			return proxy.New(proxy.Config{
				Name:          fmt.Sprintf("edge-g%d", gen),
				Role:          proxy.RoleEdge,
				Origins:       []string{"127.0.0.1:1"}, // unused: static only
				DrainPeriod:   100 * time.Millisecond,
				StaticContent: map[string][]byte{"/s": []byte("static")},
			}, nil)
		},
	}
	if err := slot.Start(); err != nil {
		t.Fatal(err)
	}
	defer slot.Close()
	gen1 := slot.Current()
	addr := gen1.Addr(proxy.VIPWeb)

	stop := make(chan struct{})
	var ok, failed atomic.Int64
	done := startHTTPLoad(addr, stop, &ok, &failed)
	time.Sleep(50 * time.Millisecond)

	// The crashing receiver: take the manifest bytes, die before ACK.
	crash, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	crash.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	if _, err := crash.Read(buf); err != nil {
		t.Fatalf("fake receiver read: %v", err)
	}
	crash.Close()

	// The abort is visible on the old generation's metrics; wait for it.
	deadline := time.Now().Add(3 * time.Second)
	for gen1.Metrics().CounterValue("proxy.takeover_aborts") == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if gen1.Metrics().CounterValue("proxy.takeover_aborts") == 0 {
		t.Fatal("aborted handoff not counted")
	}

	// Rollback: same generation serving, not draining.
	if slot.Current() != gen1 || slot.State().Generation != 1 {
		t.Fatalf("slot promoted after an aborted handoff (gen %d)", slot.State().Generation)
	}
	if gen1.Draining() {
		t.Fatal("old generation started draining despite the abort")
	}

	// The real release then goes through against the still-armed server.
	if err := slot.Restart(); err != nil {
		t.Fatalf("restart after aborted handoff: %v", err)
	}
	if slot.State().Generation != 2 {
		t.Fatalf("generation = %d, want 2", slot.State().Generation)
	}
	time.Sleep(150 * time.Millisecond)

	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d client requests failed across the aborted + real release (%d ok)", f, ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("load loop never completed a request")
	}
}

// TestProxySlotRearmFailureSurfaced covers the promoted-but-unreachable
// fix: when the new generation cannot re-arm the takeover server, the
// restart still promotes (the new generation owns the sockets — rolling
// it back would kill the VIPs), the inconsistency is surfaced as
// ErrTakeoverNotArmed, and the next Restart re-arms before its hand-off.
func TestProxySlotRearmFailureSurfaced(t *testing.T) {
	gen := 0
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "edge.sock")
	slot := &ProxySlot{
		SlotName:     "edge-slot",
		Path:         goodPath,
		rearmBackoff: faults.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 3},
		Build: func() *proxy.Proxy {
			gen++
			return proxy.New(proxy.Config{
				Name:          fmt.Sprintf("edge-g%d", gen),
				Role:          proxy.RoleEdge,
				Origins:       []string{"127.0.0.1:1"},
				DrainPeriod:   50 * time.Millisecond,
				StaticContent: map[string][]byte{"/s": []byte("static")},
			}, nil)
		},
	}
	if err := slot.Start(); err != nil {
		t.Fatal(err)
	}
	defer slot.Close()
	if !slot.TakeoverArmed() {
		t.Fatal("fresh slot reports unarmed takeover server")
	}
	addr := slot.Current().Addr(proxy.VIPWeb)

	// Drive Restart's internals with the failure injected between the
	// hand-off and the re-arm: the hand-off goes through gen-1's armed
	// server at goodPath, then the slot path turns un-bindable before
	// promote tries to arm gen 2's server on it.
	next := slot.Build()
	if _, err := next.TakeoverFrom(goodPath); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	slot.Path = filepath.Join(dir, "no-such-dir", "edge.sock")
	err := slot.promote(next)
	if !errors.Is(err, ErrTakeoverNotArmed) {
		t.Fatalf("promote error = %v, want ErrTakeoverNotArmed", err)
	}
	if slot.State().Generation != 2 || slot.Current() != next {
		t.Fatalf("generation %d not promoted despite owning the sockets", slot.State().Generation)
	}
	if slot.TakeoverArmed() {
		t.Fatal("slot reports armed after a failed re-arm")
	}
	// The promoted generation serves traffic even while unarmed.
	conn, dialErr := net.DialTimeout("tcp", addr, 2*time.Second)
	if dialErr != nil {
		t.Fatalf("promoted generation not serving: %v", dialErr)
	}
	conn.Close()

	// While the path stays unbindable, the next release re-arms first,
	// fails, and builds no generation: the unarmed one keeps serving.
	built := gen
	if err := slot.Restart(); !errors.Is(err, ErrTakeoverNotArmed) {
		t.Fatalf("release on an unbindable path: %v, want ErrTakeoverNotArmed", err)
	}
	if gen != built || slot.Current() != next {
		t.Fatalf("release on an unbindable path built gen %d, serving gen %d", gen, slot.State().Generation)
	}

	// Repair: restore a bindable path; a plain release re-arms and
	// goes through.
	slot.Path = goodPath
	if err := slot.Restart(); err != nil {
		t.Fatalf("release after the path healed: %v", err)
	}
	if !slot.TakeoverArmed() {
		t.Fatal("slot unarmed after the release that re-armed it")
	}
	if slot.State().Generation != 3 {
		t.Fatalf("generation = %d, want 3", slot.State().Generation)
	}
}
