package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/obs"
)

// seenRequest is what an app server's handler copied out of a request.
type seenRequest struct {
	method, target, trace string
	length                int64
	fields                int
	body                  string
}

// TestPipelinedRequestsDoNotAlias: an Edge connection reads every request
// into the one Request it keeps. Two arrive back to back in one write —
// the first with twelve fields, which spill the Header's own room, a trace
// context and a body; the second with two fields and none of that — and
// the app server is forwarded each as it was sent: nothing of the first
// is left for the second to show. The connection is served by its own
// goroutine, which parks in a WakeReader between the two reads.
func TestPipelinedRequestsDoNotAlias(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) {
		var mu sync.Mutex
		var seen []seenRequest
		web := startPathEdge(t, Config{}, func(req *http1.Request, body []byte) *http1.Response {
			mu.Lock()
			seen = append(seen, seenRequest{req.Method, req.Target, req.Header.Get(obs.TraceHeader), req.ContentLength, req.Header.Len(), string(body)})
			mu.Unlock()
			return http1.NewResponse(200, strings.NewReader("ok"), 2)
		})
		conn, err := net.DialTimeout("tcp", web, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		first := "POST /first HTTP/1.1\r\nHost: a\r\n" + obs.TraceHeader + ": 1-2-3\r\nContent-Length: 5\r\n"
		for i := 0; i < 9; i++ {
			first += fmt.Sprintf("X-Filler-%d: %d\r\n", i, i)
		}
		first += "\r\nhello"
		second := "GET /second HTTP/1.1\r\nHost: b\r\nAccept: */*\r\n\r\n"
		if _, err := io.WriteString(conn, first+second); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		for i := 0; i < 2; i++ {
			resp, err := http1.ReadResponse(br)
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("response %d: %+v, %v", i, resp, err)
			}
			if body, err := http1.ReadFullBody(resp.Body); err != nil || string(body) != "ok" {
				t.Fatalf("response %d: body %q, %v", i, body, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != 2 {
			t.Fatalf("the app server saw %d requests, want 2", len(seen))
		}
		if got, want := seen[0], (seenRequest{"POST", "/first", "1-2-3", 5, 2, "hello"}); got != want {
			t.Errorf("first request reached the app server as %+v, want %+v", got, want)
		}
		if got, want := seen[1], (seenRequest{"GET", "/second", "", 0, 1, ""}); got != want {
			t.Errorf("second request reached the app server as %+v, want %+v", got, want)
		}
	})
}

// TestUpstreamConnResponseSlot: an upstreamConn reads every response into
// the one Response it keeps. A 379 with fields beyond the Header's own
// room and a chunked body, then a plain 200: the second shows nothing of
// the first, and what was taken from the first stays as it was.
func TestUpstreamConnResponseSlot(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	handBack := "HTTP/1.1 379 PartialPOST\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n"
	for i := 0; i < 10; i++ {
		handBack += fmt.Sprintf("X-Echo-%d: v%d\r\n", i, i)
	}
	handBack += "\r\n7\r\npartial\r\n0\r\n\r\n"
	go io.WriteString(server, handBack+"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Served-By: as-0\r\n\r\nok")

	uc := newUpstreamConn(client, "pipe")
	r := &uc.resp
	if rep := uc.readReply(); rep.err != nil || !http1.IsPartialPostReplay(r) || r.Header.Len() != 12 {
		t.Fatalf("first reply: %+v, %+v", rep, r)
	}
	kept, msg := r.Header.Get("X-Echo-9"), r.StatusMessage
	if body, err := http1.ReadFullBodySized(r.Body, r.ContentLength); err != nil || string(body) != "partial" {
		t.Fatalf("first body %q, %v", body, err)
	}
	if rep := uc.readReply(); rep.err != nil {
		t.Fatalf("second reply: %+v", rep)
	}
	if r.StatusCode != 200 || r.StatusMessage != "OK" || http1.IsPartialPostReplay(r) || r.ContentLength != 2 {
		t.Errorf("second reply is %d %q, length %d", r.StatusCode, r.StatusMessage, r.ContentLength)
	}
	if r.Header.Len() != 2 || r.Header.Has("X-Echo-9") || r.Header.Has("Connection") || r.Header.Has("Transfer-Encoding") {
		t.Errorf("second reply's fields: %+v", r.Header)
	}
	if body, err := http1.ReadFullBody(r.Body); err != nil || string(body) != "ok" {
		t.Errorf("second body %q, %v", body, err)
	}
	if kept != "v9" || msg != "PartialPOST" {
		t.Errorf("strings kept from the first reply changed: %q, %q", kept, msg)
	}
}

// holdingApp is an app server that holds every request until released and
// counts those it holds.
func holdingApp(t *testing.T) (addr string, held *atomic.Int64, release func()) {
	t.Helper()
	held = new(atomic.Int64)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	as := appserver.New(appserver.Config{Name: "as-hold", Handler: func(*http1.Request, []byte) *http1.Response {
		held.Add(1)
		<-gate
		return http1.NewResponse(200, strings.NewReader("ok"), 2)
	}}, nil)
	addr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); as.Close() })
	return addr, held, release
}

// onlySession returns the Origin's one tunnel session.
func onlySession(t *testing.T, o *Proxy) *originSession {
	t.Helper()
	var found *originSession
	waitFor(t, "the Origin to have its tunnel session", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		sessions := ownersOf[*originSession](o)
		for _, os := range sessions {
			found = os
		}
		return len(sessions) == 1
	})
	return found
}

// acceptorGoroutines counts the goroutines in acceptStreams: a session's
// acceptors, waiting or serving a stream.
func acceptorGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return bytes.Count(buf[:n], []byte("(*originSession).acceptStreams("))
}

// TestTunnelAcceptors: a tunnel session's streams are served by acceptors
// that are reused. Sixty-four streams opened at once are all with the app
// server at the same time, while the first of them is still held there —
// no stream waits for another's handler — with one more acceptor waiting
// for a sixty-fifth; once they are answered the session is back to
// tunnelIdleAcceptors goroutines within a second; and when the session
// ends every one of them is gone.
func TestTunnelAcceptors(t *testing.T) {
	app, held, release := holdingApp(t)
	if n := acceptorGoroutines(); n != 0 {
		t.Fatalf("%d acceptors before there is a session", n)
	}
	o, tc := startOrigin(t, Config{AppServers: []string{app}})
	os := onlySession(t, o)

	const burst = 64
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			code, body, err := tc.do("GET", "/held", nil)
			if err == nil && (code != 200 || string(body) != "ok") {
				err = fmt.Errorf("status %d, body %q", code, body)
			}
			errs <- err
		}()
	}
	waitFor(t, "all 64 requests to be with the app server at once", func() bool { return held.Load() == burst })
	waitFor(t, "an acceptor to wait beside the 64 that serve", func() bool { return os.idle.Load() == 1 })
	if n := acceptorGoroutines(); n != burst+1 {
		t.Errorf("%d acceptors for %d streams being served, want one more than streams", n, burst)
	}
	release()
	for i := 0; i < burst; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	answered := time.Now()
	waitFor(t, "the burst's acceptors to exit", func() bool { return acceptorGoroutines() == tunnelIdleAcceptors })
	if d := time.Since(answered); d > time.Second {
		t.Errorf("the session took %v to be back at %d acceptors", d, tunnelIdleAcceptors)
	}
	if n := os.idle.Load(); n != tunnelIdleAcceptors {
		t.Errorf("%d acceptors wait on an idle session, want %d", n, tunnelIdleAcceptors)
	}

	tc.sess.Close()
	waitFor(t, "every acceptor to exit with its session", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return len(ownersOf[*originSession](o)) == 0 && acceptorGoroutines() == 0
	})
}

// TestDrainEndsAcceptorsBesideARelay: an Origin that drains and terminates
// with an MQTT relay still open — an acceptor held for as long as the
// relay lives — is left by every acceptor: Shutdown waits for them.
func TestDrainEndsAcceptorsBesideARelay(t *testing.T) {
	tp := startTopology(t, 1, 1)
	c := dialMQTT(t, tp, "user-7")
	if err := c.Subscribe(5*time.Second, "notif/user-7"); err != nil {
		t.Fatal(err)
	}
	if resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/x", nil, 0)); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	o := tp.origins[0]
	os := onlySession(t, o)
	if got := o.Metrics().GaugeValue("origin.mqtt.active"); got != 1 {
		t.Fatalf("origin.mqtt.active = %d, want 1", got)
	}
	done := make(chan struct{})
	go func() {
		o.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return: an acceptor outlived its session")
	}
	if n, idle := acceptorGoroutines(), os.idle.Load(); n != 0 || idle != 0 {
		t.Errorf("%d acceptors, %d of them waiting, on a session that ended", n, idle)
	}
	if got := o.Metrics().GaugeValue("origin.mqtt.active"); got != 0 {
		t.Errorf("origin.mqtt.active = %d after the Origin terminated", got)
	}
}

// TestOriginAnnouncesAtAccept: the first bytes an Origin sends on a new
// tunnel connection, before any request, are one SETTINGS frame that
// limits nothing and carries the window announcement — what makes the
// Edge keep to a stream window from its first upload on.
func TestOriginAnnouncesAtAccept(t *testing.T) {
	o := New(Config{Name: "origin", Role: RoleOrigin}, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	conn, err := net.DialTimeout("tcp", o.Addr(VIPTunnel), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := h2t.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != h2t.FrameSettings || f.Flags&h2t.FlagWindow == 0 || !bytes.Equal(f.Payload, []byte{0, 0, 0, 0}) {
		t.Fatalf("first frame of a tunnel session: %+v", f)
	}
}
