package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/http1"
)

// waitFor polls cond, which must come true without the test doing anything
// further, and fails the test if it has not in ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEarlyResponseEndsTheBodyPump: no app server can be reached, so the
// Origin answers a 4 MiB POST with a 500 having read none of it. The
// Edge's body pump is by then parked on the stream's window, which nobody
// will ever replenish; the RST the Origin sends behind its answer is what
// wakes it. The client gets the 500, its connection is fit for the next
// request — so the handler returned — and no goroutine is left waiting for
// credit.
func TestEarlyResponseEndsTheBodyPump(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nobody := ln.Addr().String()
	ln.Close()
	// Five attempts and their backoff are some 150 ms: time for the pump
	// to fill the window before the answer comes.
	origin := New(Config{Name: "origin", Role: RoleOrigin, AppServers: []string{nobody}, PPRRetries: 5}, nil)
	if err := origin.Listen(); err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	edge := New(Config{
		Name: "edge", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)},
		StaticContent: map[string][]byte{"/static/logo": []byte("cached-bytes")},
	}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	conn, err := net.Dial("tcp", edge.Addr(VIPWeb))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	exchange := func(req *http1.Request) (int, string) {
		t.Helper()
		sent := make(chan error, 1)
		go func() {
			_, err := http1.WriteRequest(conn, req)
			sent <- err
		}()
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		resp, err := http1.ReadResponse(br)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Method, req.Target, err)
		}
		body, err := http1.ReadFullBody(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("%s %s: sending the request: %v", req.Method, req.Target, err)
		}
		return resp.StatusCode, string(body)
	}
	// The tunnel's first exchange: each side has the other's window
	// announcement once this has been answered.
	if code, _ := exchange(http1.NewRequest("GET", "/warm", nil, 0)); code != 500 {
		t.Fatalf("GET with no app server: status %d, want 500", code)
	}

	body := bytes.Repeat([]byte("u"), 4<<20)
	if code, _ := exchange(http1.NewRequest("POST", "/upload", bytes.NewReader(body), int64(len(body)))); code != 500 {
		t.Fatalf("POST with no app server: status %d, want 500", code)
	}
	if edge.Metrics().CounterValue("h2t.window.stalls") == 0 {
		t.Fatal("the body pump never parked on the window: the test did not test the wake-up")
	}
	if code, got := exchange(http1.NewRequest("GET", "/static/logo", nil, 0)); code != 200 || got != "cached-bytes" {
		t.Fatalf("next request on the connection: %d %q", code, got)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("h2t.(*Stream).reserve")) {
		t.Fatalf("a goroutine is still parked on a stream window:\n%s", stacks)
	}
	waitFor(t, "the tunnel to hold no received data", func() bool {
		return edge.Metrics().GaugeValue("h2t.recv.resident_bytes") == 0 &&
			origin.Metrics().GaugeValue("h2t.recv.resident_bytes") == 0
	})
}

// TestBodyPastTheBoundIs413ThroughThePath: a POST of 65 MiB, past the
// 64 MiB an app server holds, is answered 413 while its body is still
// arriving, 64 KiB every 5 ms, and before 4 MiB of it has been sent. The
// app server refuses it unread, the Origin's probe finds the answer
// between two chunks and stops forwarding, and the Edge writes it while
// its pump drops what the client still sends. The connection then serves
// a GET.
func TestBodyPastTheBoundIs413ThroughThePath(t *testing.T) {
	conn, err := net.DialTimeout("tcp", startPath(t, nil), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := make([]byte, 65<<20)
	var written atomic.Int64
	answered, sent := make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := fmt.Fprintf(conn, "POST /upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n", len(body))
		for rest := body; err == nil && len(rest) > 0; {
			n := len(rest) // the rest at once when the answer is in
			select {
			case <-answered:
			default:
				n = min(n, 64<<10)
				time.Sleep(5 * time.Millisecond)
			}
			n, err = conn.Write(rest[:n])
			written.Add(int64(n))
			rest = rest[n:]
		}
		sent <- err
	}()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http1.ReadResponse(br)
	at := written.Load()
	close(answered)
	if err != nil || resp.StatusCode != 413 {
		t.Fatalf("POST of 65 MiB: %+v, %v; want 413", resp, err)
	}
	if at >= 4<<20 {
		t.Errorf("the 413 came after %d bytes of the body, want it before 4 MiB", at)
	}
	if _, err := http1.ReadFullBody(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("sending the body: %v", err)
	}
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/next", nil, 0)); err != nil {
		t.Fatal(err)
	}
	if resp, err := http1.ReadResponse(br); err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET after the 413: %+v, %v", resp, err)
	}
}

// TestHalfSentUploadHasNoWatcher: while a POST's body is half sent, the
// goroutine forwarding it at the Origin is the only one that reads the app
// server's connection — none was started to watch it for the reply. The
// rest then arrives and the echo is whole.
func TestHalfSentUploadHasNoWatcher(t *testing.T) {
	conn, err := net.DialTimeout("tcp", startPath(t, nil), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := bytes.Repeat([]byte("h"), 1<<20)
	if _, err := fmt.Fprintf(conn, "POST /upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	var stacks []byte
	waitFor(t, "the Origin to forward the body", func() bool {
		stacks = make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		return bytes.Contains(stacks, []byte("(*Proxy).exchangeBody("))
	})
	for _, watcher := range []string{"(*upstreamConn).readReply", "created by zdr/internal/proxy.(*Proxy).exchangeBody"} {
		if bytes.Contains(stacks, []byte(watcher)) {
			t.Fatalf("a goroutine watches the upload (%s):\n%s", watcher, stacks)
		}
	}
	if _, err := conn.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("echo: %+v, %v", resp, err)
	}
	if got, err := http1.ReadFullBody(resp.Body); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("echo of %d bytes, %v; want the %d sent", len(got), err, len(body))
	}
}

// TestPPRReplaysALargeBodyThroughTheWindow: TestPPREndToEnd with a body of
// sixteen windows. The app server restarts a quarter of the way in and
// hands back what it has; the Origin replays that and the rest, which
// reaches it under credit, to another server. The echo is byte-exact.
func TestPPRReplaysALargeBodyThroughTheWindow(t *testing.T) {
	tp := startTopology(t, 2, 1)
	conn, err := net.DialTimeout("tcp", tp.edge.Addr(VIPWeb), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	body := make([]byte, 4<<20)
	rand.New(rand.NewSource(379)).Read(body)
	if _, err := fmt.Fprintf(conn, "POST /big-upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n", len(body)); err != nil {
		t.Fatal(err)
	}
	const firstPart = 1 << 20
	if _, err := conn.Write(body[:firstPart]); err != nil {
		t.Fatal(err)
	}
	serving := -1
	waitFor(t, "an app server to take the request", func() bool {
		for i, as := range tp.apps {
			if as.Metrics().CounterValue("appserver.requests") > 0 {
				serving = i
			}
		}
		return serving >= 0
	})
	go tp.apps[serving].Shutdown()
	// The upload pauses for longer than the server's grace silence (60 ms
	// here), so the restart catches it in mid-body; the Origin learns of
	// the 379 when the next of the body reaches it.
	waitFor(t, "the restart", tp.apps[serving].Draining)
	time.Sleep(200 * time.Millisecond)
	sent := make(chan error, 1)
	go func() {
		_, err := conn.Write(body[firstPart:])
		sent <- err
	}()

	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("client saw status %d, want 200", resp.StatusCode)
	}
	echoed, err := http1.ReadFullBody(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echoed, body) {
		t.Fatalf("replayed body corrupt: got %d bytes, want %d", len(echoed), len(body))
	}
	if tp.origins[0].Metrics().CounterValue("origin.http.ppr_replays") == 0 {
		t.Fatal("no PPR replay recorded — restart missed the request?")
	}
	if tp.origins[0].Metrics().CounterValue("h2t.window.updates_sent") == 0 {
		t.Fatal("a 4 MiB upload reached the Origin without one WINDOW_UPDATE")
	}
}

// TestCreditAcrossADCRSwap: an MQTT user receives more than two windows of
// publishes, its Origin drains, and it receives as much again over the
// stream the Edge spliced in — a new stream with a window of its own.
// Credit flows on both streams, at the rate of one WINDOW_UPDATE per half
// window and never one per publish.
func TestCreditAcrossADCRSwap(t *testing.T) {
	tp := startTopology(t, 1, 2)
	c := dialMQTT(t, tp, "user-9")
	if err := c.Subscribe(5*time.Second, "notif/user-9"); err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	go func() {
		for {
			select {
			case m := <-c.Messages():
				received.Add(int64(len(m.Payload)))
			case <-c.Done():
				return
			}
		}
	}()
	// The client drops publishes its consumer is 256 behind on, so they go
	// out a hundred at a time, each hundred awaited.
	const publishes, size = 300, 2 << 10
	payload := []byte(strings.Repeat("p", size))
	var want int64
	publish := func() {
		t.Helper()
		for i := 0; i < publishes; i++ {
			if n := tp.broker.Publish("notif/user-9", payload); n != 1 {
				t.Fatalf("publish %d delivered to %d sessions", i, n)
			}
			if want += size; (i+1)%100 == 0 {
				waitFor(t, "a hundred publishes", func() bool { return received.Load() == want })
			}
		}
	}
	credits := func() int64 { return tp.edge.Metrics().CounterValue("h2t.window.updates_sent") }

	publish()
	before := credits()
	if before == 0 || before > 2*publishes*size/(128<<10)+1 {
		t.Fatalf("%d WINDOW_UPDATE frames for %d KiB in %d publishes", before, publishes*size>>10, publishes)
	}

	serving := -1
	for i, o := range tp.origins {
		if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
			serving = i
		}
	}
	if serving < 0 {
		t.Fatal("no origin is relaying the MQTT connection")
	}
	tp.origins[serving].StartDraining()
	waitFor(t, "the splice", func() bool { return tp.edge.Metrics().CounterValue("edge.mqtt.reconnect.ack") > 0 })

	publish()
	if after := credits(); after == before {
		t.Fatal("no WINDOW_UPDATE on the stream spliced in")
	}
	select {
	case <-c.Done():
		t.Fatal("client connection dropped")
	default:
	}
}
