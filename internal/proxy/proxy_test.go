package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/mqtt"
)

// topology is a full Edge→Origin→{AppServer,Broker} deployment on
// localhost.
type topology struct {
	broker  *mqtt.Broker
	brAddr  string
	apps    []*appserver.Server
	appAddr []string
	origins []*Proxy
	edge    *Proxy
}

func startTopology(t *testing.T, nApps, nOrigins int) *topology {
	t.Helper()
	tp := &topology{}

	tp.broker = mqtt.NewBroker("broker-1", nil)
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp.brAddr = bln.Addr().String()
	go tp.broker.Serve(bln)
	t.Cleanup(func() { bln.Close(); tp.broker.Close() })

	for i := 0; i < nApps; i++ {
		as := appserver.New(appserver.Config{
			Name:         fmt.Sprintf("as-%d", i),
			Mode:         appserver.ModePPR,
			DrainPeriod:  50 * time.Millisecond,
			GraceWindow:  300 * time.Millisecond,
			GraceSilence: 60 * time.Millisecond,
		}, nil)
		addr, err := as.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tp.apps = append(tp.apps, as)
		tp.appAddr = append(tp.appAddr, addr)
		t.Cleanup(as.Close)
	}

	var originAddrs []string
	for i := 0; i < nOrigins; i++ {
		o := New(Config{
			Name:        fmt.Sprintf("origin-%d", i),
			Role:        RoleOrigin,
			AppServers:  tp.appAddr,
			Brokers:     []string{tp.brAddr},
			DrainPeriod: 200 * time.Millisecond,
		}, nil)
		if err := o.Listen(); err != nil {
			t.Fatal(err)
		}
		tp.origins = append(tp.origins, o)
		originAddrs = append(originAddrs, o.Addr(VIPTunnel))
		t.Cleanup(o.Close)
	}

	tp.edge = New(Config{
		Name:        "edge-0",
		Role:        RoleEdge,
		Origins:     originAddrs,
		DrainPeriod: 200 * time.Millisecond,
		StaticContent: map[string][]byte{
			"/static/logo": []byte("cached-bytes"),
		},
	}, nil)
	if err := tp.edge.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.edge.Close)
	return tp
}

func doRequest(t *testing.T, addr string, req *http1.Request) *http1.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := http1.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	body, err := http1.ReadFullBody(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = bytes.NewReader(body)
	return resp
}

func TestEndToEndGET(t *testing.T) {
	tp := startTopology(t, 1, 1)
	resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Via") != "edge-0" {
		t.Fatal("Via header missing")
	}
	if resp.Header.Get("X-Served-By") != "as-0" {
		t.Fatalf("X-Served-By = %q", resp.Header.Get("X-Served-By"))
	}
}

// TestEndToEndPOSTEcho: a request body reaches the app server whatever
// the method, framed by Content-Length or chunked (length -1).
func TestEndToEndPOSTEcho(t *testing.T) {
	tp := startTopology(t, 2, 1)
	body := strings.Repeat("payload!", 512)
	for _, c := range []struct {
		method string
		cl     int64
	}{
		{"POST", int64(len(body))},
		{"PUT", int64(len(body))},
		{"PATCH", int64(len(body))},
		{"DELETE", int64(len(body))},
		{"PATCH", -1},
		{"GET", -1},
	} {
		resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest(c.method, "/upload", strings.NewReader(body), c.cl))
		if resp.StatusCode != 200 {
			t.Fatalf("%s (length %d): status = %d", c.method, c.cl, resp.StatusCode)
		}
		b, _ := http1.ReadFullBody(resp.Body)
		if string(b) != body {
			t.Fatalf("%s (length %d): echo mismatch: %d vs %d bytes", c.method, c.cl, len(b), len(body))
		}
	}
}

func TestEdgeDirectServerReturn(t *testing.T) {
	tp := startTopology(t, 1, 1)
	resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/static/logo", nil, 0))
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("resp = %d %v", resp.StatusCode, resp.Header)
	}
	b, _ := http1.ReadFullBody(resp.Body)
	if string(b) != "cached-bytes" {
		t.Fatalf("body = %q", b)
	}
	if tp.edge.Metrics().CounterValue("edge.http.dsr") != 1 {
		t.Fatal("DSR not counted")
	}
}

func TestHealthProbe(t *testing.T) {
	tp := startTopology(t, 1, 1)
	if err := (&katran.HCProber{}).Probe(tp.edge.Addr(VIPHealth), time.Second); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}
	tp.edge.StartDraining()
	// The edge's own listener handles are closed on drain; with no
	// takeover the health VIP goes away entirely (HardRestart behaviour):
	// either a refused connection or a DRAIN answer is "unhealthy".
	if err := (&katran.HCProber{}).Probe(tp.edge.Addr(VIPHealth), time.Second); err == nil {
		t.Fatal("draining edge still probes healthy")
	}
}

// TestPPREndToEnd: a slow POST upload survives an app-server restart
// mid-body. The client sees a single 200 with the full echoed body; the
// 379 never escapes the Origin.
func TestPPREndToEnd(t *testing.T) {
	tp := startTopology(t, 2, 1)
	addr := tp.edge.Addr(VIPWeb)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const total = 4000
	const piece = 100
	body := bytes.Repeat([]byte("x"), total)
	head := fmt.Sprintf("POST /big-upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n", total)
	if _, err := conn.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}

	// Pace the upload; restart the serving app server early so the
	// remaining upload outlives the server's grace window.
	restartAt := total / 4
	for off := 0; off < total; off += piece {
		if off == restartAt {
			// Restart whichever app server took the request.
			serving := -1
			for i, as := range tp.apps {
				if as.Metrics().CounterValue("appserver.requests") > 0 {
					serving = i
					break
				}
			}
			if serving < 0 {
				t.Fatal("no app server saw the request yet")
			}
			go tp.apps[serving].Shutdown()
		}
		if _, err := conn.Write(body[off : off+piece]); err != nil {
			t.Fatalf("client write at %d: %v", off, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
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
	if !bytes.Equal(echoed, body) {
		t.Fatalf("replayed body corrupt: got %d bytes want %d", len(echoed), len(body))
	}
	if tp.origins[0].Metrics().CounterValue("origin.http.ppr_replays") == 0 {
		t.Fatal("no PPR replay recorded — restart missed the request?")
	}
}

// TestPPRExhaustedReturns500: when every app server is gone the request
// fails with a standard 500 (§4.4).
func TestPPRExhaustedReturns500(t *testing.T) {
	tp := startTopology(t, 1, 1)
	tp.apps[0].Close()
	resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/x", nil, 0))
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

func dialMQTT(t *testing.T, tp *topology, userID string) *mqtt.Client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", tp.edge.Addr(VIPMQTT), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := mqtt.NewClient(conn, userID, true)
	if _, err := c.Connect(0, 5*time.Second); err != nil {
		t.Fatalf("mqtt connect through edge: %v", err)
	}
	t.Cleanup(func() { c.Disconnect() })
	return c
}

func TestMQTTEndToEnd(t *testing.T) {
	tp := startTopology(t, 1, 1)
	c := dialMQTT(t, tp, "user-42")
	if err := c.Subscribe(5*time.Second, "notif/user-42"); err != nil {
		t.Fatal(err)
	}
	if n := tp.broker.Publish("notif/user-42", []byte("hello")); n != 1 {
		t.Fatalf("delivered %d", n)
	}
	select {
	case m := <-c.Messages():
		if string(m.Payload) != "hello" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification lost through the relay chain")
	}
	if err := c.Publish("ping/user-42", []byte("ping"), 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDCROriginRestart is the §4.2 headline: the Origin relaying an MQTT
// connection restarts; the connection survives via re_connect through a
// second Origin; the end user sees no disconnect and keeps receiving.
func TestDCROriginRestart(t *testing.T) {
	tp := startTopology(t, 1, 2)
	c := dialMQTT(t, tp, "user-7")
	if err := c.Subscribe(5*time.Second, "notif/user-7"); err != nil {
		t.Fatal(err)
	}

	// Find the origin carrying the relay.
	serving := -1
	for i, o := range tp.origins {
		if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
			serving = i
			break
		}
	}
	if serving < 0 {
		t.Fatal("no origin is relaying the MQTT connection")
	}

	// Drain it (the restart). GOAWAY + reconnect_solicitation fire.
	tp.origins[serving].StartDraining()

	// The edge must splice through the other origin.
	deadline := time.Now().Add(5 * time.Second)
	for tp.edge.Metrics().CounterValue("edge.mqtt.reconnect.ack") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("splice never completed: edge counters:\n%s", tp.edge.Metrics().Dump())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The client connection must still be alive and receiving.
	select {
	case <-c.Done():
		t.Fatal("client connection dropped during origin restart")
	default:
	}
	if n := tp.broker.Publish("notif/user-7", []byte("post-restart")); n != 1 {
		t.Fatalf("post-restart publish delivered to %d sessions", n)
	}
	select {
	case m := <-c.Messages():
		if string(m.Payload) != "post-restart" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-restart notification lost")
	}
	if err := c.Publish("ping/user-7", []byte("ping"), 1, 5*time.Second); err != nil {
		t.Fatalf("post-restart QoS 1 round trip: %v", err)
	}
	if tp.broker.Metrics().CounterValue("mqtt.connect.resumed") == 0 {
		t.Fatal("broker never saw the resume")
	}
}

// TestDCRRefusedDropsConnection: when the broker has no context (dropped),
// re_connect is refused and the edge lets the client connection die so the
// client can re-connect organically.
func TestDCRRefusedDropsConnection(t *testing.T) {
	tp := startTopology(t, 1, 2)
	c := dialMQTT(t, tp, "user-gone")
	serving := -1
	for i, o := range tp.origins {
		if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
			serving = i
			break
		}
	}
	if serving < 0 {
		t.Fatal("no relaying origin")
	}
	// Kill the broker context so the resume must be refused.
	tp.broker.DropSession("user-gone")
	tp.origins[serving].StartDraining()

	select {
	case <-c.Done():
		// expected: client dropped, will re-connect the normal way
	case <-time.After(5 * time.Second):
		// The drain only solicits; the connection dies when the draining
		// origin terminates. Force that.
		tp.origins[serving].Close()
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("client connection survived a refused reconnect and a dead origin")
		}
	}
}

// TestOriginSocketTakeover: a full Origin restart with Socket Takeover
// under HTTP load — the tunnel listener is handed to a new instance and
// requests keep succeeding because re-dials land on the new process.
func TestOriginSocketTakeover(t *testing.T) {
	tp := startTopology(t, 1, 1)
	oldOrigin := tp.origins[0]
	path := filepath.Join(t.TempDir(), "origin-takeover.sock")
	if err := oldOrigin.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}

	// Continuous load.
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() {
		defer close(loadErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", tp.edge.Addr(VIPWeb), 2*time.Second)
			if err != nil {
				loadErr <- err
				return
			}
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/k", nil, 0)); err != nil {
				loadErr <- err
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				loadErr <- err
				conn.Close()
				return
			}
			if resp.StatusCode != 200 {
				loadErr <- fmt.Errorf("status %d during takeover", resp.StatusCode)
				conn.Close()
				return
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)

	// New instance takes over.
	newOrigin := New(Config{
		Name:        "origin-0-new",
		Role:        RoleOrigin,
		AppServers:  tp.appAddr,
		Brokers:     []string{tp.brAddr},
		DrainPeriod: 200 * time.Millisecond,
	}, nil)
	if _, err := newOrigin.TakeoverFrom(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(newOrigin.Close)

	// Old instance finishes its drain and terminates.
	time.Sleep(100 * time.Millisecond)
	oldOrigin.Shutdown()
	time.Sleep(200 * time.Millisecond)

	close(stop)
	if err, ok := <-loadErr; ok && err != nil {
		t.Fatalf("request failed across origin takeover: %v", err)
	}
	// New instance must have served traffic.
	if newOrigin.Metrics().CounterValue("origin.http.requests") == 0 {
		t.Fatal("new origin never served a request")
	}
}

// TestEdgeSocketTakeover: same, restarting the Edge itself.
func TestEdgeSocketTakeover(t *testing.T) {
	tp := startTopology(t, 1, 1)
	path := filepath.Join(t.TempDir(), "edge-takeover.sock")
	if err := tp.edge.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}
	addr := tp.edge.Addr(VIPWeb)

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
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
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/static/logo", nil, 0)); err != nil {
				loadErr <- err
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				loadErr <- err
				conn.Close()
				return
			}
			if resp.StatusCode != 200 {
				loadErr <- fmt.Errorf("status %d", resp.StatusCode)
				conn.Close()
				return
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)

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
	time.Sleep(100 * time.Millisecond)
	tp.edge.Shutdown()
	time.Sleep(200 * time.Millisecond)

	close(stop)
	if err, ok := <-loadErr; ok && err != nil {
		t.Fatalf("request failed across edge takeover: %v", err)
	}
	// Health checks must now be served by the new instance (step F).
	if err := (&katran.HCProber{}).Probe(newEdge.Addr(VIPHealth), time.Second); err != nil {
		t.Fatalf("health check after takeover: %v", err)
	}
}

// TestGoAwayOnDrainStopsNewTunnelStreams: a draining origin refuses new
// streams but completes in-flight ones.
func TestGoAwayOnDrainStopsNewTunnelStreams(t *testing.T) {
	tp := startTopology(t, 1, 2)
	// Prime a tunnel to each origin by issuing a couple of requests.
	for i := 0; i < 4; i++ {
		doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/warm", nil, 0))
	}
	tp.origins[0].StartDraining()
	// Requests must keep succeeding (the edge fails over to origin 1 or a
	// fresh session).
	for i := 0; i < 5; i++ {
		resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/after-drain", nil, 0))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestPPRChunkedEndToEnd is the §5.2 chunked corner case through the full
// topology: the client uploads with chunked transfer encoding, the origin
// re-chunks toward the app server, the app server restarts mid-chunk, and
// the replay still reconstructs the byte-identical body.
func TestPPRChunkedEndToEnd(t *testing.T) {
	tp := startTopology(t, 2, 1)
	addr := tp.edge.Addr(VIPWeb)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const pieces = 40
	piece := bytes.Repeat([]byte("c"), 100)
	var whole []byte
	if _, err := conn.Write([]byte("POST /chunked-up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	restarted := false
	for i := 0; i < pieces; i++ {
		if !restarted && i == pieces/4 {
			serving := -1
			for j, as := range tp.apps {
				if as.Metrics().CounterValue("appserver.requests") > 0 {
					serving = j
					break
				}
			}
			if serving < 0 {
				t.Fatal("no app server saw the request")
			}
			go tp.apps[serving].Shutdown()
			restarted = true
		}
		// One chunk per piece, hand-framed.
		if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(piece), piece); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		whole = append(whole, piece...)
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := conn.Write([]byte("0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	echoed, err := http1.ReadFullBody(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echoed, whole) {
		t.Fatalf("chunked replay corrupt: got %d bytes want %d", len(echoed), len(whole))
	}
	if tp.origins[0].Metrics().CounterValue("origin.http.ppr_replays") == 0 {
		t.Fatal("no PPR replay recorded")
	}
}
