package proxy

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/http1"
	"zdr/internal/racetest"
)

// startPath stands up app server → Origin → Edge on loopback with the
// given handler and returns the Edge's web address.
func startPath(t testing.TB, handler func(*http1.Request, []byte) *http1.Response) string {
	return startPathEdge(t, Config{}, handler)
}

// startPathEdge is startPath with the Edge's configuration, to which it
// adds name, role and the Origin.
func startPathEdge(t testing.TB, edge Config, handler func(*http1.Request, []byte) *http1.Response) string {
	t.Helper()
	as := appserver.New(appserver.Config{Name: "as-0", Handler: handler}, nil)
	asAddr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)
	o, _ := startOrigin(t, Config{AppServers: []string{asAddr}})
	edge.Name, edge.Role, edge.Origins = "edge-0", RoleEdge, []string{o.Addr(VIPTunnel)}
	e := New(edge, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e.Addr(VIPWeb)
}

// TestRepeatedResponseFieldsReachTheClient: a field the app server sends
// twice crosses the Origin, the tunnel and the Edge twice, in order; the
// hop-by-hop Connection does not cross at all.
func TestRepeatedResponseFieldsReachTheClient(t *testing.T) {
	web := startPath(t, func(*http1.Request, []byte) *http1.Response {
		resp := http1.NewResponse(200, strings.NewReader("ok"), 2)
		resp.Header.Add("Set-Cookie", "a=1")
		resp.Header.Add("X-Between", "x")
		resp.Header.Add("set-cookie", "b=2")
		resp.Header.Add("connection", "keep-alive")
		return resp
	})
	resp := doRequest(t, web, http1.NewRequest("GET", "/login", nil, 0))
	var cookies []string
	for i := 0; i < resp.Header.Len(); i++ {
		if name, v := resp.Header.At(i); strings.EqualFold(name, "Set-Cookie") {
			cookies = append(cookies, v)
		}
	}
	if len(cookies) != 2 || cookies[0] != "a=1" || cookies[1] != "b=2" {
		t.Fatalf("client saw Set-Cookie %q, want [a=1 b=2]", cookies)
	}
	if resp.Header.Get("X-Between") != "x" || resp.Header.Get("Via") != "edge-0" || resp.Header.Get("X-Served-By") != "as-0" {
		t.Fatalf("fields lost on the way: %+v", resp.Header)
	}
	if resp.Header.Has("Connection") {
		t.Fatal("the app server's Connection field reached the client")
	}
}

// smallGET stands the path up and returns http_small's operation: one GET
// of 64 bytes on a kept-alive connection through Edge, tunnel, Origin and
// app server.
func smallGET(t *testing.T) func() {
	payload := bytes.Repeat([]byte("x"), 64)
	body := bytes.NewReader(nil)
	web := startPath(t, func(*http1.Request, []byte) *http1.Response {
		body.Reset(payload) // one request at a time
		return http1.NewResponse(200, body, int64(len(payload)))
	})
	conn, err := net.DialTimeout("tcp", web, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	request := []byte("GET /dyn/64 HTTP/1.1\r\nHost: bench\r\n\r\n")
	br := bufio.NewReader(conn)
	return func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		resp, err := http1.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("response %+v, %v", resp, err)
		}
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != int64(len(payload)) {
			t.Fatalf("body %d bytes, %v", n, err)
		}
	}
}

// TestSmallRequestAllocations is http_small's budget as a test: one GET on
// a kept-alive connection through Edge, tunnel, Origin and app server,
// every allocation in the process counted, this client's and the
// handler's included. Both hops' Streams are released and reused.
func TestSmallRequestAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	get := smallGET(t)
	for i := 0; i < 20; i++ { // connections, pools and timers are made once
		get()
	}
	if n := testing.AllocsPerRun(500, get); n > 9 {
		t.Errorf("one keep-alive GET through Edge, Origin and app server: %v allocs process-wide, want <= 9", n)
	}
}

// TestSmallRequestBytesAllocated is the same budget in bytes.
func TestSmallRequestBytesAllocated(t *testing.T) {
	racetest.SkipAllocs(t)
	get := smallGET(t)
	for i := 0; i < 20; i++ {
		get()
	}
	const n = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1500 {
		t.Errorf("one keep-alive GET through Edge, Origin and app server: %d bytes allocated process-wide, want <= 1500", per)
	}
}

// largePOST stands the path up and returns http_post_1m's operation: one
// POST of 1 MiB on a kept-alive connection through Edge, tunnel, Origin
// and app server, echoed back.
func largePOST(t *testing.T) func() {
	web := startPath(t, nil)
	conn, err := net.DialTimeout("tcp", web, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	const size = 1 << 20
	request := append([]byte("POST /echo HTTP/1.1\r\nHost: bench\r\nContent-Length: 1048576\r\n\r\n"),
		bytes.Repeat([]byte("p"), size)...)
	br := bufio.NewReader(conn)
	return func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		resp, err := http1.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("response %+v, %v", resp, err)
		}
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != size {
			t.Fatalf("echo %d bytes, %v", n, err)
		}
	}
}

// TestLargePostAllocations is http_post_1m's budget as a test: one 1 MiB
// POST echoed on a kept-alive connection, every allocation in the process
// counted. No goroutine watches the upload for an early answer at the
// Origin, and the Edge joins its body pump without a channel.
func TestLargePostAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	post := largePOST(t)
	for i := 0; i < 20; i++ {
		post()
	}
	if n := testing.AllocsPerRun(100, post); n > 14 {
		t.Errorf("one keep-alive 1 MiB POST through Edge, Origin and app server: %v allocs process-wide, want <= 14", n)
	}
}

// TestLargePostBytesAllocated is the same budget in bytes, the fewest of
// five rounds: now and then a round pays for one 256 KiB message scratch
// that sync.Pool holds in another processor's private slot, 5 KB an
// operation over fifty, which no change to the path makes or saves.
func TestLargePostBytesAllocated(t *testing.T) {
	racetest.SkipAllocs(t)
	post := largePOST(t)
	for i := 0; i < 20; i++ {
		post()
	}
	const rounds, n = 5, 50
	least := uint64(math.MaxUint64)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if least > 2000 {
		t.Errorf("one keep-alive 1 MiB POST through Edge, Origin and app server: %d bytes allocated process-wide, want <= 2000", least)
	}
}
