package core

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/http1"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// TestProxySlotGenerations drives two successive zero-downtime restarts of
// a real Edge proxy under continuous load: three generations, one socket,
// zero failed requests.
func TestProxySlotGenerations(t *testing.T) {
	gen := 0
	slot := &ProxySlot{
		SlotName: "edge-slot",
		Path:     filepath.Join(t.TempDir(), "edge.sock"),
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
	addr := slot.Current().Addr(proxy.VIPWeb)

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	var served atomic.Int64
	go func() {
		defer close(loadErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				loadErr <- err
				return
			}
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/s", nil, 0)); err != nil {
				loadErr <- err
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil || resp.StatusCode != 200 {
				loadErr <- fmt.Errorf("resp=%v err=%v", resp, err)
				conn.Close()
				return
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			served.Add(1)
		}
	}()
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 2; i++ {
		if err := slot.Restart(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		time.Sleep(150 * time.Millisecond)
	}
	if slot.Generation() != 3 {
		t.Fatalf("generation = %d, want 3", slot.Generation())
	}
	close(stop)
	if err, ok := <-loadErr; ok && err != nil {
		t.Fatalf("load failed across generations: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no request served: the restarts ran without load")
	}
	if slot.Current().Addr(proxy.VIPWeb) != addr {
		t.Fatal("VIP address changed across takeover — socket was rebound")
	}
}

// TestAppServerSlotRestart replaces an app-server generation on the same
// address.
func TestAppServerSlotRestart(t *testing.T) {
	gen := 0
	slot := &AppServerSlot{
		SlotName: "as-slot",
		Build: func() *appserver.Server {
			gen++
			return appserver.New(appserver.Config{
				Name:        fmt.Sprintf("as-g%d", gen),
				DrainPeriod: 20 * time.Millisecond,
			}, nil)
		},
	}
	if err := slot.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer slot.Close()
	addr := slot.Addr()

	get := func() string {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		http1.WriteRequest(conn, http1.NewRequest("GET", "/", nil, 0))
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := http1.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		http1.ReadFullBody(resp.Body)
		return resp.Header.Get("X-Served-By")
	}
	if got := get(); got != "as-g1" {
		t.Fatalf("generation 1 served by %q", got)
	}
	if err := slot.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != "as-g2" {
		t.Fatalf("generation 2 served by %q", got)
	}
	if slot.Addr() != addr {
		t.Fatal("address changed across app server restart")
	}
}

func TestSlotDoubleStartErrors(t *testing.T) {
	slot := &AppServerSlot{SlotName: "x", Build: func() *appserver.Server {
		return appserver.New(appserver.Config{Name: "a"}, nil)
	}}
	if err := slot.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer slot.Close()
	if err := slot.Start("127.0.0.1:0"); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestRestartBeforeStartErrors(t *testing.T) {
	ps := &ProxySlot{SlotName: "p", Build: func() *proxy.Proxy { return nil }}
	if err := ps.Restart(); err == nil {
		t.Fatal("restart before start accepted")
	}
	as := &AppServerSlot{SlotName: "a", Build: func() *appserver.Server { return nil }}
	if err := as.Restart(); err == nil {
		t.Fatal("restart before start accepted")
	}
}

// TestProxySlotRestartFresh exercises the §5.1 remediation path: the next
// generation binds brand-new sockets on the same addresses (SO_REUSEPORT
// coexistence) instead of inheriting FDs — no downtime for TCP service.
func TestProxySlotRestartFresh(t *testing.T) {
	gen := 0
	build := func(addrs map[string]string) *proxy.Proxy {
		gen++
		return proxy.New(proxy.Config{
			Name:          fmt.Sprintf("edge-fresh-g%d", gen),
			Role:          proxy.RoleEdge,
			Origins:       []string{"127.0.0.1:1"},
			DrainPeriod:   100 * time.Millisecond,
			StaticContent: map[string][]byte{"/s": []byte("static")},
			VIPAddrs:      addrs,
			Trace:         obs.NewTracer(fmt.Sprintf("edge-fresh-g%d", gen)),
		}, nil)
	}
	slot := &ProxySlot{
		SlotName: "edge-fresh",
		Path:     filepath.Join(t.TempDir(), "fresh.sock"),
		Build:    func() *proxy.Proxy { return build(nil) },
	}
	if err := slot.Start(); err != nil {
		t.Fatal(err)
	}
	defer slot.Close()
	addr := slot.Current().Addr(proxy.VIPWeb)

	get := func() (string, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
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
		http1.ReadFullBody(resp.Body)
		return resp.Header.Get("Via"), nil
	}

	if via, err := get(); err != nil || via != "edge-fresh-g1" {
		t.Fatalf("gen1: via=%q err=%v", via, err)
	}
	old := slot.Current()
	if err := slot.RestartFresh(build); err != nil {
		t.Fatal(err)
	}
	// The old generation's drain is the slot's like a takeover's: once
	// WaitDrains returns, it has terminated and its proxy.drain span ended.
	slot.WaitDrains()
	if spans := old.ReleaseState().InFlightSpans; len(spans) != 0 {
		t.Fatalf("old generation still draining after WaitDrains: %+v", spans)
	}
	if slot.Generation() != 2 {
		t.Fatalf("generation = %d", slot.Generation())
	}
	if slot.Current().Addr(proxy.VIPWeb) != addr {
		t.Fatal("fresh restart changed the VIP address")
	}
	// New connections now land on generation 2 (the old accept loops are
	// stopped); every request must succeed throughout.
	deadline := time.Now().Add(3 * time.Second)
	for {
		via, err := get()
		if err != nil {
			t.Fatalf("request failed during fresh restart: %v", err)
		}
		if via == "edge-fresh-g2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation 2 never took over new connections (still %q)", via)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A further normal takeover restart still works after a fresh one.
	if err := slot.Restart(); err != nil {
		t.Fatalf("takeover restart after fresh restart: %v", err)
	}
	if via, err := get(); err != nil || via != "edge-fresh-g3" {
		t.Fatalf("gen3: via=%q err=%v", via, err)
	}
}
