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

	finish := getLoop(addr)
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 2; i++ {
		if err := slot.Restart(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		time.Sleep(150 * time.Millisecond)
	}
	if slot.State().Generation != 3 {
		t.Fatalf("generation = %d, want 3", slot.State().Generation)
	}
	if served, err := finish(); err != nil || served == 0 {
		t.Fatalf("load across generations: %d served, %v", served, err)
	}
	if slot.Current().Addr(proxy.VIPWeb) != addr {
		t.Fatal("VIP address changed across takeover — socket was rebound")
	}
}

// getLoop GETs /s from addr back to back, each on a connection of its
// own, until the returned finish is called; finish reports how many were
// served and the first failure, which ends the loop.
func getLoop(addr string) (finish func() (int64, error)) {
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
	return func() (int64, error) {
		close(stop)
		return served.Load(), <-loadErr
	}
}

// staticEdge is an Edge generation that serves /s itself.
func staticEdge(name string) *proxy.Proxy {
	return proxy.New(proxy.Config{
		Name:          name,
		Role:          proxy.RoleEdge,
		Origins:       []string{"127.0.0.1:1"}, // unused: static only
		DrainPeriod:   100 * time.Millisecond,
		StaticContent: map[string][]byte{"/s": []byte("static")},
	}, nil)
}

// TestStartTakesOverALiveGeneration: Start on a path a live generation
// serves (another process's, here another slot's) takes its sockets over
// with no failed GET, and Start on a stale socket file listens.
func TestStartTakesOverALiveGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edge.sock")
	slot := func(name string) *ProxySlot {
		return &ProxySlot{SlotName: name, Path: path, Build: func() *proxy.Proxy { return staticEdge(name) }}
	}
	first := slot("first")
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	addr := first.Current().Addr(proxy.VIPWeb)
	finish := getLoop(addr)
	time.Sleep(50 * time.Millisecond)
	second := slot("second")
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if served, err := finish(); err != nil || served == 0 {
		t.Fatalf("load across the take-over: %d served, %v", served, err)
	}
	st := second.State()
	if st.Takeovers != 1 || st.Generation != 1 || !st.TakeoverArmed || !first.Current().Draining() {
		t.Fatalf("second start: %+v; first draining %v", st, first.Current().Draining())
	}
	if second.Current().Addr(proxy.VIPWeb) != addr {
		t.Fatal("the web VIP moved: the second start bound a socket of its own")
	}
	second.Close()

	// A socket file nobody listens on, as a crashed process leaves it.
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	ln.SetUnlinkOnClose(false)
	ln.Close()
	third := slot("third")
	if err := third.Start(); err != nil {
		t.Fatalf("start on a stale socket file: %v", err)
	}
	defer third.Close()
	if st := third.State(); st.Takeovers != 0 || !st.TakeoverArmed || third.Current().Addr(proxy.VIPWeb) == addr {
		t.Fatalf("start on a stale socket file did not listen: %+v", st)
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
