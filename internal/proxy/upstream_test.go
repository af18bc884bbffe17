package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/bufpool"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/netx"
)

// sinkServer accepts connections and holds them open, handing each to the
// test: the far end of pool-level checks.
type sinkServer struct {
	ln    net.Listener
	conns chan net.Conn
}

func newSinkServer(t *testing.T) *sinkServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sinkServer{ln: ln, conns: make(chan net.Conn, 64)} // more than any test here dials
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns <- c
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case c := <-s.conns:
				c.Close()
			default:
				return
			}
		}
	})
	return s
}

func (s *sinkServer) addr() string { return s.ln.Addr().String() }

// accepted returns the server side of the next accepted connection.
func (s *sinkServer) accepted(t *testing.T) net.Conn {
	t.Helper()
	select {
	case c := <-s.conns:
		t.Cleanup(func() { c.Close() })
		return c
	case <-time.After(2 * time.Second):
		t.Fatal("no connection accepted")
		return nil
	}
}

func newTestPool() (*upstreamPool, *metrics.Registry) {
	reg := metrics.NewRegistry()
	dial := func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
	return newUpstreamPool(dial, reg), reg
}

// peerSawClose reports whether the server side of a connection reads EOF
// (or a reset) within a second: the pool closed its end.
func peerSawClose(c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(time.Second))
	_, err := c.Read(make([]byte, 1))
	return err != nil && !isNetTimeout(err)
}

func isNetTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func mustGet(t *testing.T, up *upstreamPool, addr string) *upstreamConn {
	t.Helper()
	uc, err := up.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	return uc
}

func TestUpstreamPoolLIFOAndCounters(t *testing.T) {
	srv := newSinkServer(t)
	up, reg := newTestPool()
	defer up.close()

	a, b := mustGet(t, up, srv.addr()), mustGet(t, up, srv.addr())
	if a.reused || b.reused {
		t.Fatal("fresh dials marked reused")
	}
	up.put(a)
	up.put(b)
	if got := reg.GaugeValue("origin.upstream.idle"); got != 2 {
		t.Fatalf("idle gauge = %d, want 2", got)
	}
	if got := up.idleCounts()[srv.addr()]; got != 2 {
		t.Fatalf("idleCounts = %d, want 2", got)
	}
	first, second := mustGet(t, up, srv.addr()), mustGet(t, up, srv.addr())
	if first != b || second != a {
		t.Fatal("checkout is not most-recently-used first")
	}
	if !first.reused || !second.reused {
		t.Fatal("idle checkouts not marked reused")
	}
	if d, r := reg.CounterValue("origin.upstream.dials"), reg.CounterValue("origin.upstream.reuses"); d != 2 || r != 2 {
		t.Fatalf("dials = %d reuses = %d, want 2 and 2", d, r)
	}
	if got := reg.GaugeValue("origin.upstream.idle"); got != 0 {
		t.Fatalf("idle gauge = %d after checkouts, want 0", got)
	}
}

func TestUpstreamPoolIdleCap(t *testing.T) {
	srv := newSinkServer(t)
	up, reg := newTestPool()
	defer up.close()

	var all []*upstreamConn
	for i := 0; i < upstreamMaxIdle+2; i++ {
		all = append(all, mustGet(t, up, srv.addr()))
	}
	for _, uc := range all {
		up.put(uc)
	}
	if got := up.idleCounts()[srv.addr()]; got != upstreamMaxIdle {
		t.Fatalf("idle = %d, want the cap %d", got, upstreamMaxIdle)
	}
	if got := reg.CounterValue("origin.upstream.discarded"); got != 2 {
		t.Fatalf("discarded = %d, want 2", got)
	}
	// Connections are accepted in dial order: the first upstreamMaxIdle
	// were kept, the two returned last were closed.
	var peers []net.Conn
	for range all {
		peers = append(peers, srv.accepted(t))
	}
	for _, peer := range peers[upstreamMaxIdle:] {
		if !peerSawClose(peer) {
			t.Fatal("a connection returned beyond the cap was left open")
		}
	}
	peers[0].SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := peers[0].Read(make([]byte, 1)); !isNetTimeout(err) {
		t.Fatalf("a kept connection is not open and quiet: %v", err)
	}
}

// TestUpstreamPoolPeekDiscardsDeadEntries: an idle entry that has aged
// out is discarded at checkout. One that died in the pool — the peer
// closed it, or sent bytes nobody asked for — is found out by the read
// its exchange starts with (upstreamConn.ServeWake), before a byte of the
// request is written, and the exchange reports it stale: attemptAppServer
// sends the request on a fresh dial at no cost.
func TestUpstreamPoolPeekDiscardsDeadEntries(t *testing.T) {
	cases := []struct {
		name string
		// spoil makes the idle entry unusable; peer is its server side.
		spoil func(uc *upstreamConn, peer net.Conn)
	}{
		{"aged out", func(uc *upstreamConn, _ net.Conn) { uc.idleAt = time.Now().Add(-2 * upstreamIdleAge) }},
		{"peer closed", func(_ *upstreamConn, peer net.Conn) { peer.Close() }},
		{"unsolicited bytes", func(_ *upstreamConn, peer net.Conn) { peer.Write([]byte("x")) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newSinkServer(t)
			up, reg := newTestPool()
			defer up.close()
			uc := mustGet(t, up, srv.addr())
			peer := srv.accepted(t)
			up.put(uc)
			tc.spoil(uc, peer)
			next := mustGet(t, up, srv.addr())
			if tc.name == "aged out" {
				if next == uc || next.reused {
					t.Fatal("dead idle entry was handed out")
				}
				if got := reg.CounterValue("origin.upstream.discarded"); got != 1 {
					t.Fatalf("discarded = %d, want 1", got)
				}
				if got := reg.CounterValue("origin.upstream.dials"); got != 2 {
					t.Fatalf("dials = %d, want 2", got)
				}
				if got := reg.GaugeValue("origin.upstream.idle"); got != 0 {
					t.Fatalf("idle gauge = %d, want 0", got)
				}
				return
			}
			// The FIN or the byte crosses loopback asynchronously.
			rc, err := uc.Conn.(*net.TCPConn).SyscallConn()
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for arrived := false; !arrived && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				rc.Control(func(fd uintptr) {
					_, _, err := syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
					arrived = err != syscall.EAGAIN
				})
			}
			p := &Proxy{cfg: Config{upstreamResponseTimeout: 2 * time.Second}}
			_, err = p.exchange(next, &upstreamReq{method: "GET", path: "/x", cl: -1})
			if next != uc || !errors.Is(err, errStaleUpstream) {
				t.Fatalf("exchange on the dead entry: %v (same entry: %v), want errStaleUpstream", err, next == uc)
			}
			if tc.name == "unsolicited bytes" {
				peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				if n, err := peer.Read(make([]byte, 1)); n > 0 || !isNetTimeout(err) {
					t.Fatalf("the request was written to a connection found stale (%d bytes, %v)", n, err)
				}
			}
		})
	}
}

func TestUpstreamPoolRetireResumeClose(t *testing.T) {
	srv := newSinkServer(t)
	up, reg := newTestPool()

	idle := mustGet(t, up, srv.addr())
	idlePeer := srv.accepted(t)
	out := mustGet(t, up, srv.addr())
	outPeer := srv.accepted(t)
	up.put(idle)

	up.retire()
	if !peerSawClose(idlePeer) {
		t.Fatal("retire left an idle connection open")
	}
	if got := reg.GaugeValue("origin.upstream.idle"); got != 0 {
		t.Fatalf("idle gauge = %d after retire, want 0", got)
	}
	up.put(out) // a draining generation returns nothing
	if !peerSawClose(outPeer) {
		t.Fatal("a retired pool kept a returned connection")
	}
	if n := len(up.idleCounts()); n != 0 {
		t.Fatalf("retired pool holds %d addresses", n)
	}

	up.resume() // drain-undo
	uc := mustGet(t, up, srv.addr())
	up.put(uc)
	if got := up.idleCounts()[srv.addr()]; got != 1 {
		t.Fatalf("idle = %d after resume, want 1", got)
	}

	active := mustGet(t, up, srv.addr()) // the idle one again
	activePeer := srv.accepted(t)
	up.close()
	if !peerSawClose(activePeer) {
		t.Fatal("close left a checked-out connection open")
	}
	if _, err := up.get(srv.addr()); !errors.Is(err, errUpstreamClosed) {
		t.Fatalf("get after close: %v, want errUpstreamClosed", err)
	}
	up.put(active) // a late return after close must not be kept
	if n := len(up.idleCounts()); n != 0 {
		t.Fatalf("closed pool holds %d addresses", n)
	}
	up.resume()
	up.put(active)
	if n := len(up.idleCounts()); n != 0 {
		t.Fatal("resume reopened a closed pool")
	}
}

// scriptedApp is an app server whose every reply is written by the test.
// script is called with the connection's ordinal, the request's ordinal
// on that connection, and the parsed request (body already consumed); it
// returns the raw bytes to send and whether to close afterwards. A nil
// reply with close=true is a server that dies without a word.
type scriptedApp struct {
	ln       net.Listener
	accepted atomic.Int64
	script   func(conn, nth int, req *http1.Request, body []byte) (reply string, close bool)
}

func newScriptedApp(t *testing.T, script func(conn, nth int, req *http1.Request, body []byte) (string, bool)) *scriptedApp {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedApp{ln: ln, script: script}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	closed := false // under mu: the cleanup has run, and waits for no new connection
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			id := int(s.accepted.Add(1)) - 1
			mu.Lock()
			if closed {
				mu.Unlock()
				c.Close()
				return
			}
			conns = append(conns, c)
			wg.Add(1)
			mu.Unlock()
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for nth := 0; ; nth++ {
					req, err := http1.ReadRequest(br)
					if err != nil {
						return
					}
					body, _ := http1.ReadFullBody(req.Body)
					reply, closeAfter := s.script(id, nth, req, body)
					if _, err := io.WriteString(c, reply); err != nil || closeAfter {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return s
}

func okReply(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// tunnelClient is the Edge's half of the tunnel: an h2t client session
// straight into an Origin's tunnel VIP.
type tunnelClient struct {
	sess *h2t.Session
}

// startOrigin runs an Origin in front of the given app servers and opens
// a tunnel session to it.
func startOrigin(t testing.TB, cfg Config) (*Proxy, *tunnelClient) {
	t.Helper()
	cfg.Role = RoleOrigin
	if cfg.Name == "" {
		cfg.Name = "origin-ut"
	}
	o := New(cfg, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o, dialTunnel(t, o.Addr(VIPTunnel))
}

func dialTunnel(t testing.TB, addr string) *tunnelClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc := &tunnelClient{sess: h2t.NewSession(conn, true)}
	t.Cleanup(func() { tc.sess.Close() })
	return tc
}

// do sends one request through the tunnel and returns status and body.
func (tc *tunnelClient) do(method, path string, body []byte) (int, []byte, error) {
	hdr := h2t.Fields{{Name: ":method", Value: method}, {Name: ":path", Value: path}, {Name: "content-length", Value: "-1"}}
	if body != nil {
		hdr[2].Value = strconv.Itoa(len(body))
	}
	st, err := tc.sess.OpenStreamWith(hdr, nil, body == nil)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		if _, err := st.Write(body); err != nil {
			return 0, nil, err
		}
		if err := st.CloseWrite(); err != nil {
			return 0, nil, err
		}
	}
	rh, err := st.RecvHeaders(5 * time.Second)
	if err != nil {
		st.Reset()
		return 0, nil, err
	}
	code, _ := strconv.Atoi(rh.Get("status"))
	got, err := io.ReadAll(st)
	return code, got, err
}

func (tc *tunnelClient) mustGet(t *testing.T, path string) string {
	t.Helper()
	code, body, err := tc.do("GET", path, nil)
	if err != nil || code != 200 {
		t.Fatalf("GET %s: status %d, err %v", path, code, err)
	}
	return string(body)
}

// TestUpstreamReturnRule is the return rule as a table: after the first
// exchange of each case a second, plain request either rides the same
// app-server connection or a new one.
func TestUpstreamReturnRule(t *testing.T) {
	cases := []struct {
		name  string
		first string // the app server's reply to the first request
		close bool   // the app server closes after it
		reuse bool
		// firstFails: the client is not owed a 200 for the first request.
		firstFails bool
	}{
		{name: "content-length", first: okReply("hello"), reuse: true},
		{name: "chunked", first: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", reuse: true},
		{name: "no content", first: "HTTP/1.1 204 No Content\r\n\r\n", reuse: true},
		{name: "connection close", first: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello"},
		{name: "connection close among tokens", first: "HTTP/1.1 200 OK\r\nConnection: foo, Close\r\nContent-Length: 5\r\n\r\nhello"},
		{name: "read until close", first: "HTTP/1.1 200 OK\r\n\r\nhello", close: true},
		{name: "no framing at all", first: "HTTP/1.1 200 OK\r\n\r\n"},
		{name: "short body", first: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", close: true, firstFails: true},
		{name: "read ahead", first: okReply("hello") + "junk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := newScriptedApp(t, func(conn, nth int, _ *http1.Request, _ []byte) (string, bool) {
				if conn == 0 && nth == 0 {
					return tc.first, tc.close
				}
				return okReply("second"), false
			})
			o, tun := startOrigin(t, Config{AppServers: []string{app.ln.Addr().String()}})
			code, _, err := tun.do("GET", "/first", nil)
			if !tc.firstFails && (err != nil || code/100 != 2) {
				t.Fatalf("first request: status %d, err %v", code, err)
			}
			if got := tun.mustGet(t, "/second"); got != "second" {
				t.Fatalf("second body = %q", got)
			}
			wantDials := int64(2)
			if tc.reuse {
				wantDials = 1
			}
			reg := o.Metrics()
			if got := reg.CounterValue("origin.upstream.dials"); got != wantDials {
				t.Fatalf("dials = %d, want %d", got, wantDials)
			}
			if got := app.accepted.Load(); got != wantDials {
				t.Fatalf("app server accepted %d connections, want %d", got, wantDials)
			}
			if got := reg.CounterValue("origin.upstream.reuses"); got != 2-wantDials {
				t.Fatalf("reuses = %d, want %d", got, 2-wantDials)
			}
			if got := reg.CounterValue("origin.upstream.stale_retries"); got != 0 {
				t.Fatalf("stale_retries = %d", got)
			}
		})
	}
}

// TestUpstreamNoReuseAfter379: a hand-back's connection is never kept,
// even when the 379 itself is well delimited and says nothing of closing.
func TestUpstreamNoReuseAfter379(t *testing.T) {
	app := newScriptedApp(t, func(conn, nth int, _ *http1.Request, body []byte) (string, bool) {
		if conn == 0 {
			return "HTTP/1.1 379 PartialPOST\r\nContent-Length: 3\r\n\r\nabc", false
		}
		return okReply(string(body)), false
	})
	o, tun := startOrigin(t, Config{AppServers: []string{app.ln.Addr().String()}})
	code, body, err := tun.do("POST", "/up", []byte("abc"))
	if err != nil || code != 200 || string(body) != "abc" {
		t.Fatalf("replayed POST: status %d body %q err %v", code, body, err)
	}
	reg := o.Metrics()
	if got := reg.CounterValue("origin.http.ppr_replays"); got != 1 {
		t.Fatalf("ppr_replays = %d, want 1", got)
	}
	if got := reg.CounterValue("origin.upstream.dials"); got != 2 {
		t.Fatalf("dials = %d, want 2 (the 379 connection must not serve the replay)", got)
	}
	if got := reg.GaugeValue("origin.upstream.idle"); got != 1 {
		t.Fatalf("idle = %d, want only the replay's connection", got)
	}
}

// TestUpstreamConnectionCloseDropsAddress: one Connection: close empties
// the idle list of that app server, and of no other.
func TestUpstreamConnectionCloseDropsAddress(t *testing.T) {
	var closing atomic.Bool
	slow := make(chan struct{})
	var releaseSlow sync.Once
	defer releaseSlow.Do(func() { close(slow) })
	restarting := newScriptedApp(t, func(_, _ int, req *http1.Request, _ []byte) (string, bool) {
		if req.Target == "/slow" {
			<-slow
		}
		if closing.Load() {
			return "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", true
		}
		return okReply("ok"), false
	})
	other := newScriptedApp(t, func(_, _ int, req *http1.Request, _ []byte) (string, bool) {
		if req.Target == "/slow" {
			<-slow
		}
		return okReply("ok"), false
	})
	o, tun := startOrigin(t, Config{AppServers: []string{restarting.ln.Addr().String(), other.ln.Addr().String()}})

	// Two overlapping requests per app server leave two idle connections
	// to each (round-robin alternates the servers).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, err := tun.do("GET", "/slow", nil); err != nil || code != 200 {
				t.Errorf("warm-up: status %d err %v", code, err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for (restarting.accepted.Load() < 2 || other.accepted.Load() < 2) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	releaseSlow.Do(func() { close(slow) })
	wg.Wait()
	idle := o.upstream.idleCounts()
	if idle[restarting.ln.Addr().String()] != 2 || idle[other.ln.Addr().String()] != 2 {
		t.Fatalf("warm-up left %v idle, want 2 per app server", idle)
	}

	closing.Store(true)
	for i := 0; i < 2; i++ { // one of the two lands on the restarting server
		tun.mustGet(t, "/x")
	}
	idle = o.upstream.idleCounts()
	if n := idle[restarting.ln.Addr().String()]; n != 0 {
		t.Fatalf("%d idle connections to the restarting server survived its Connection: close", n)
	}
	if n := idle[other.ln.Addr().String()]; n == 0 {
		t.Fatal("the other app server's idle connections were dropped too")
	}
}

// TestUpstreamStaleReuseRetry: a pooled connection that dies under a
// request before any response byte costs the request nothing — one more
// send on a fresh dial, no backoff, no attempt, no ledger event — as long
// as every request byte is still in hand.
func TestUpstreamStaleReuseRetry(t *testing.T) {
	small := bytes.Repeat([]byte("small-post "), 300)    // 3.3 KiB: inside the forwarding buffer
	large := bytes.Repeat([]byte("large-post "), 24<<10) // 264 KiB: far beyond it
	cases := []struct {
		name      string
		method    string
		body      []byte
		wantStale int64
	}{
		{"GET", "GET", nil, 1},
		{"POST within the buffer", "POST", small, 1},
		{"POST beyond the buffer", "POST", large, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Connection 0 answers its first request and dies, without a
			// word, on reading the head of its second.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for id := 0; ; id++ {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go func(id int, c net.Conn) {
						defer c.Close()
						br := bufio.NewReader(c)
						for nth := 0; ; nth++ {
							req, err := http1.ReadRequest(br)
							if err != nil {
								return
							}
							if id == 0 && nth == 1 {
								if tc.wantStale == 0 {
									// Die only once the Origin has written
									// more than its forwarding buffer holds:
									// then it has read the stream into that
									// buffer twice and the first chunk is
									// gone. Dying at exactly one buffer
									// leaves a race — until the second read
									// lands, the body IS still in hand and
									// resending it is right.
									io.CopyN(io.Discard, req.Body, bufpool.TierLarge+1)
								}
								return
							}
							body, _ := http1.ReadFullBody(req.Body)
							io.WriteString(c, okReply(string(body)))
						}
					}(id, c)
				}
			}()

			ledger := disrupt.New("origin-ut", 0)
			o, tun := startOrigin(t, Config{
				AppServers:   []string{ln.Addr().String()},
				Ledger:       ledger,
				RetryBackoff: backoffForTests,
				// The body that cannot be resent is lost to its next
				// attempt too (as any transport failure past the first
				// buffer always was): let that attempt give up quickly.
				PPRRetries:              1,
				upstreamResponseTimeout: 200 * time.Millisecond,
			})
			tun.mustGet(t, "/warm")
			code, got, err := tun.do(tc.method, "/again", tc.body)
			reg := o.Metrics()
			if got := reg.CounterValue("origin.upstream.stale_retries"); got != tc.wantStale {
				t.Fatalf("stale_retries = %d, want %d", got, tc.wantStale)
			}
			if tc.wantStale == 0 {
				// Not resendable without a copy of the body: an ordinary
				// failed attempt, visible as one.
				if got := reg.CounterValue("origin.http.attempt_errors"); got == 0 {
					t.Fatal("a body beyond the buffer was not treated as a failed attempt")
				}
				return
			}
			if err != nil || code != 200 || !bytes.Equal(got, tc.body) {
				t.Fatalf("status %d, %d body bytes (want %d), err %v", code, len(got), len(tc.body), err)
			}
			if got := reg.CounterValue("origin.http.attempt_errors"); got != 0 {
				t.Fatalf("attempt_errors = %d: the stale retry consumed an attempt", got)
			}
			if got := ledger.ReportRecent(0).ByKind["retry"]; got != 0 {
				t.Fatalf("ledger recorded %d retries for a transparent resend", got)
			}
			if got := reg.CounterValue("origin.upstream.dials"); got != 2 {
				t.Fatalf("dials = %d, want 2", got)
			}
		})
	}
}

// TestShort379IsNotReplayed: a 379 whose echo is shorter than what the
// Origin wrote to that server (the server closed on bytes still on the
// line) cannot be turned back into the request. The Origin fails it at
// once with the 500 of an exhausted replay — it neither replays a body
// with a hole in it nor leaves the next server, and the client behind it,
// waiting out a response timeout for bytes that will never come.
func TestShort379IsNotReplayed(t *testing.T) {
	app := newScriptedApp(t, func(conn, _ int, _ *http1.Request, body []byte) (string, bool) {
		if conn == 0 {
			echo := body[:len(body)-1]
			return fmt.Sprintf("HTTP/1.1 379 %s\r\nContent-Length: %d\r\n\r\n%s", http1.StatusMessagePartialPost, len(echo), echo), true
		}
		return okReply(string(body)), false
	})
	o, tun := startOrigin(t, Config{AppServers: []string{app.ln.Addr().String()}, RetryBackoff: backoffForTests})
	start := time.Now()
	code, _, err := tun.do("POST", "/upload", []byte("a short POST body"))
	if err != nil || code != 500 {
		t.Fatalf("status %d, err %v; want the 500 of a request that cannot be rebuilt", code, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("took %v to give up on a 379 that lost a byte", took)
	}
	reg := o.Metrics()
	if got := reg.CounterValue("origin.http.ppr_replays"); got != 0 {
		t.Fatalf("ppr_replays = %d: a short echo was replayed", got)
	}
	if got := reg.CounterValue("origin.http.ppr_exhausted"); got != 1 {
		t.Fatalf("ppr_exhausted = %d, want 1", got)
	}
	if got := app.accepted.Load(); got != 1 {
		t.Fatalf("%d app-server connections: the request went out again", got)
	}
}

// TestUpstreamFreshFailureIsAnAttempt: the same silent death on a FRESH
// connection is an app-server fault, retried as one (ledger, backoff,
// attempt), and a timeout on a reused connection is never resent: the
// server may be working on it.
func TestUpstreamFreshFailureIsAnAttempt(t *testing.T) {
	t.Run("fresh connection dies", func(t *testing.T) {
		app := newScriptedApp(t, func(conn, _ int, _ *http1.Request, _ []byte) (string, bool) {
			if conn == 0 {
				return "", true
			}
			return okReply("ok"), false
		})
		ledger := disrupt.New("origin-ut", 0)
		o, tun := startOrigin(t, Config{AppServers: []string{app.ln.Addr().String()}, Ledger: ledger, RetryBackoff: backoffForTests})
		tun.mustGet(t, "/x")
		reg := o.Metrics()
		if got := reg.CounterValue("origin.http.attempt_errors"); got != 1 {
			t.Fatalf("attempt_errors = %d, want 1", got)
		}
		if got := reg.CounterValue("origin.upstream.stale_retries"); got != 0 {
			t.Fatalf("stale_retries = %d on a fresh connection", got)
		}
		if got := ledger.ReportRecent(0).ByKind["retry"]; got != 1 {
			t.Fatalf("ledger retries = %d, want 1", got)
		}
	})
	t.Run("reused connection times out", func(t *testing.T) {
		stall := make(chan struct{})
		defer close(stall)
		app := newScriptedApp(t, func(conn, nth int, _ *http1.Request, _ []byte) (string, bool) {
			if conn == 0 && nth == 1 {
				<-stall
			}
			return okReply("ok"), false
		})
		o, tun := startOrigin(t, Config{
			AppServers:              []string{app.ln.Addr().String()},
			upstreamResponseTimeout: 50 * time.Millisecond,
			RetryBackoff:            backoffForTests,
		})
		tun.mustGet(t, "/warm")
		tun.mustGet(t, "/stalls-then-retried-as-an-attempt")
		reg := o.Metrics()
		if got := reg.CounterValue("origin.upstream.stale_retries"); got != 0 {
			t.Fatalf("a timeout was resent as stale (%d)", got)
		}
		if got := reg.CounterValue("origin.http.attempt_errors"); got != 1 {
			t.Fatalf("attempt_errors = %d, want 1", got)
		}
	})
}

// TestUpstreamHeadBuilder pins the bytes of the request head the inline
// path writes.
func TestUpstreamHeadBuilder(t *testing.T) {
	cases := []struct {
		r    upstreamReq
		want string
	}{
		{upstreamReq{method: "GET", path: "/a?b=1", cl: -1}, "GET /a?b=1 HTTP/1.1\r\nContent-Length: 0\r\n\r\n"},
		{upstreamReq{method: "GET", path: "/a", cl: -1, trace: "t-1"}, "GET /a HTTP/1.1\r\nX-Zdr-Trace: t-1\r\nContent-Length: 0\r\n\r\n"},
		{upstreamReq{method: "POST", path: "/u", cl: 1234, rest: strings.NewReader("")}, "POST /u HTTP/1.1\r\nContent-Length: 1234\r\n\r\n"},
		{upstreamReq{method: "PUT", path: "/u", cl: -1, rest: strings.NewReader("")}, "PUT /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"},
	}
	for _, tc := range cases {
		if got := string(appendRequestHead(nil, &tc.r)); got != tc.want {
			t.Errorf("head = %q, want %q", got, tc.want)
		}
	}
}

// TestOriginTakeoverRetiresWarmPool: the pool belongs to its generation.
// At the hand-off the old generation's idle upstream descriptors close
// (drain start, not drain end), the new generation dials its own, and
// once the old one is gone the process is back at its descriptor
// baseline plus exactly what the new generation holds.
func TestOriginTakeoverRetiresWarmPool(t *testing.T) {
	as := appserver.New(appserver.Config{Name: "as"}, nil)
	asAddr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()

	baseline, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "origin-g1", AppServers: []string{asAddr}, DrainPeriod: 100 * time.Millisecond}
	g1, tun1 := startOrigin(t, cfg)
	path := filepath.Join(t.TempDir(), "o.sock")
	if err := g1.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}
	// A POST whose body is still to come holds one app-server connection
	// across the hand-off; the GETs warm a second one.
	inflight, err := tun1.sess.OpenStreamWith(h2t.Fields{{Name: ":method", Value: "POST"}, {Name: ":path", Value: "/up"}, {Name: "content-length", Value: "5"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for g1.Metrics().CounterValue("origin.upstream.dials") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		tun1.mustGet(t, "/warm")
	}
	if got := g1.Metrics().GaugeValue("origin.upstream.idle"); got != 1 {
		t.Fatalf("gen 1 idle = %d, want a warm pool of 1", got)
	}
	if st := g1.ReleaseState(); st.Slots[0].UpstreamIdle[asAddr] != 1 {
		t.Fatalf("/debug/release upstream_idle = %v", st.Slots[0].UpstreamIdle)
	}

	cfg.Name = "origin-g2"
	cfg.Role = RoleOrigin
	g2 := New(cfg, nil)
	if _, err := g2.TakeoverFrom(path); err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if !g1.Draining() {
		t.Fatal("gen 1 not draining after the hand-off")
	}
	if got := g1.Metrics().GaugeValue("origin.upstream.idle"); got != 0 {
		t.Fatalf("gen 1 still holds %d idle upstream connections while draining", got)
	}
	if n := len(g1.ReleaseState().Slots[0].UpstreamIdle); n != 0 {
		t.Fatalf("draining generation reports %d warm addresses", n)
	}
	// The request the draining generation still serves completes, and its
	// connection is not kept.
	inflight.Write([]byte("hello"))
	inflight.CloseWrite()
	if rh, err := inflight.RecvHeaders(5 * time.Second); err != nil || rh.Get("status") != "200" {
		t.Fatalf("in-flight POST across the drain: %v %v", rh, err)
	}
	if echoed, _ := io.ReadAll(inflight); string(echoed) != "hello" {
		t.Fatalf("in-flight POST echoed %q", echoed)
	}
	time.Sleep(20 * time.Millisecond) // the release follows the relay
	if got := g1.Metrics().GaugeValue("origin.upstream.idle"); got != 0 {
		t.Fatalf("draining generation pooled a connection (idle %d)", got)
	}

	tun2 := dialTunnel(t, g2.Addr(VIPTunnel))
	tun2.mustGet(t, "/new")
	tun2.mustGet(t, "/new")
	if d, r := g2.Metrics().CounterValue("origin.upstream.dials"), g2.Metrics().CounterValue("origin.upstream.reuses"); d != 1 || r != 1 {
		t.Fatalf("gen 2 dials = %d reuses = %d, want its own 1 and 1", d, r)
	}

	tun1.sess.Close()
	g1.Shutdown()
	tun2.sess.Close()
	g2.Close()
	want := baseline
	deadline = time.Now().Add(5 * time.Second)
	var got int
	for {
		if got, err = netx.OpenFDCount(); err != nil {
			t.Fatal(err)
		}
		if got == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got != want {
		t.Fatalf("descriptors: %d open, baseline %d", got, want)
	}
}

// TestCloseDoesNotWaitForWebClients: terminate closes the web client
// connections its handlers are parked on instead of waiting for the
// clients to hang up. An idle keep-alive connection goes quietly; one cut
// in the middle of a request is a disruption, attributed to the expired
// drain.
func TestCloseDoesNotWaitForWebClients(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	app := newScriptedApp(t, func(_, _ int, req *http1.Request, _ []byte) (string, bool) {
		if req.Target == "/stuck" {
			<-release
		}
		return okReply("ok"), false
	})
	origin, _ := startOrigin(t, Config{AppServers: []string{app.ln.Addr().String()}})
	ledger := disrupt.New("edge-ut", 0)
	edge := New(Config{Name: "edge-ut", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)}, Ledger: ledger}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}

	idle, err := net.Dial("tcp", edge.Addr(VIPWeb))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	http1.WriteRequest(idle, http1.NewRequest("GET", "/quick", nil, 0))
	idleBR := bufio.NewReader(idle)
	resp, err := http1.ReadResponse(idleBR)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("keep-alive request: %v", err)
	}
	http1.ReadFullBody(resp.Body)
	// The client has its response before the handler that wrote it has
	// returned: only then is the connection idle, and proxy.rif the
	// stuck request's alone.
	waitFor(t, "the keep-alive request's handler to return", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		for _, wc := range ownersOf[*webConn](edge) {
			if wc.busy.Load() {
				return false
			}
		}
		return true
	})

	busy, err := net.Dial("tcp", edge.Addr(VIPWeb))
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	http1.WriteRequest(busy, http1.NewRequest("GET", "/stuck", nil, 0))
	deadline := time.Now().Add(2 * time.Second)
	for edge.Metrics().GaugeValue("proxy.rif") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	t0 := time.Now()
	closed := make(chan struct{})
	go func() { edge.Close(); close(closed) }()
	// The mid-request handler returns once its stream is reset, which
	// Close does as well; only the two client connections could hold it.
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close() is waiting for the clients to hang up")
	}
	if took := time.Since(t0); took > 100*time.Millisecond {
		t.Fatalf("Close() took %v with client connections open, want < 100ms", took)
	}
	idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := idleBR.ReadByte(); err == nil || isNetTimeout(err) {
		t.Fatalf("idle keep-alive connection not closed by Close(): %v", err)
	}
	if got := causeCount(ledger, "drain-expired"); got != 1 {
		t.Fatalf("ledger drain-expired resets = %d, want 1 (the mid-request connection only): %+v", got, ledger.ReportRecent(0).Cells)
	}
}

// backoffForTests keeps the failed-attempt pauses out of the test time.
var backoffForTests = faults.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}

// causeCount sums the ledger's terminal events attributed to cause.
func causeCount(l *disrupt.Ledger, cause string) int64 {
	var n int64
	for _, c := range l.ReportRecent(0).Cells {
		if c.Cause == cause {
			n += c.Count
		}
	}
	return n
}
