package proxy

import (
	"bufio"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"zdr/internal/http1"
	"zdr/internal/netx"
	"zdr/internal/racetest"
)

// inUse returns the process's heap and stacks in use after a collection,
// once the goroutines have stopped coming and going: what an earlier test
// left winding down is not counted, nor freed during the count.
func inUse() int64 {
	for n := -1; n != runtime.NumGoroutine(); time.Sleep(20 * time.Millisecond) {
		n = runtime.NumGoroutine()
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties what the first left in the pools' victim caches
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse + ms.StackInuse)
}

// getOn sends a GET for the Edge's cached content on an open connection and
// returns the reply's Via.
func getOn(t *testing.T, c net.Conn) string {
	t.Helper()
	if _, err := http1.WriteRequest(c, http1.NewRequest("GET", "/static/logo", nil, 0)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(c))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET on %v: %+v, %v", c.LocalAddr(), resp, err)
	}
	if _, err := http1.ReadFullBody(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Via")
}

// TestWebConnSize pins what every connection accepted at the web VIP
// pays: a webConn, its reader and its body pump's WaitGroup included,
// fills the 640-byte size class and no more.
func TestWebConnSize(t *testing.T) {
	if n := unsafe.Sizeof(webConn{}); n > 640 {
		t.Errorf("a webConn is %d bytes, want <= 640", n)
	} else {
		t.Logf("a webConn is %d bytes", n)
	}
}

// TestIdleWebConnHoldsNoBuffer is the idle tier at the Edge's web VIP: a
// thousand keep-alive connections are each served one GET and fall silent,
// and the heap and stacks of the whole process — the proxies and the
// test's own clients — grow by at most 8 KB a connection: a handler waiting
// for its connection's next request holds no reader and no buffer. Every
// connection then serves a second GET.
func TestIdleWebConnHoldsNoBuffer(t *testing.T) {
	racetest.SkipAllocs(t)
	const conns, perConn = 1000, 8 << 10
	tp := startTopology(t, 0, 1)
	before := inUse()
	clients := make([]net.Conn, conns)
	for i := range clients {
		c, err := net.DialTimeout("tcp", tp.edge.Addr(VIPWeb), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		getOn(t, c)
	}
	if held := (inUse() - before) / conns; held > perConn {
		t.Fatalf("an idle keep-alive connection holds %d B of heap and stack, want at most %d", held, perConn)
	} else {
		t.Logf("%d B of heap and stack per idle keep-alive connection", held)
	}
	for _, c := range clients {
		getOn(t, c)
	}
}

// TestEdgeTakeoverServesIdleKeepAlives: keep-alive connections idle on an
// Edge that hands its listeners to a new generation are served by the
// draining one until it terminates; connections that arrive after the
// hand-off land on the new one; and the old generation's terminate closes
// its connections, leaving no more descriptors open than before they were.
func TestEdgeTakeoverServesIdleKeepAlives(t *testing.T) {
	tp := startTopology(t, 1, 1)
	path := filepath.Join(t.TempDir(), "edge-takeover.sock")
	if err := tp.edge.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}
	addr := tp.edge.Addr(VIPWeb)
	baseline, err := netx.OpenFDCount()
	if err != nil {
		t.Skip(err)
	}

	oldClients := make([]net.Conn, 16)
	for i := range oldClients {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		oldClients[i] = c
		if via := getOn(t, c); via != "edge-0" {
			t.Fatalf("old conn %d served by %q", i, via)
		}
	}

	newEdge := New(Config{
		Name:          "edge-0-new",
		Role:          RoleEdge,
		Origins:       tp.edge.cfg.Origins,
		DrainPeriod:   200 * time.Millisecond,
		StaticContent: tp.edge.cfg.StaticContent,
	}, nil)
	if _, err := newEdge.TakeoverFrom(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(newEdge.Close)

	for i, c := range oldClients {
		if via := getOn(t, c); via != "edge-0" {
			t.Fatalf("old conn %d served by %q while its generation drains", i, via)
		}
	}
	newClients := make([]net.Conn, 8)
	for i := range newClients {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		newClients[i] = c
		if via := getOn(t, c); via != "edge-0-new" {
			t.Fatalf("new conn %d served by %q", i, via)
		}
	}

	tp.edge.Shutdown()
	for i, c := range oldClients {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("old conn %d still open after its generation terminated: %v", i, err)
		}
		c.Close()
	}
	for _, c := range newClients {
		c.Close()
	}
	waitFor(t, "the descriptors to be back at the baseline", func() bool {
		n, _ := netx.OpenFDCount()
		return n <= baseline
	})
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if via := getOn(t, c); via != "edge-0-new" {
		t.Fatalf("served by %q after the old generation terminated", via)
	}
}
