package proxy

import (
	"net"
	"strings"
	"testing"
	"time"

	"zdr/internal/mqtt"
)

// TestMQTTBrokerUnreachable: when the Origin cannot dial the broker, the
// edge-terminated client connection is closed cleanly (no hang).
func TestMQTTBrokerUnreachable(t *testing.T) {
	origin := New(Config{
		Name:        "origin-x",
		Role:        RoleOrigin,
		Brokers:     []string{"127.0.0.1:1"}, // nothing listens here
		dialTimeout: 300 * time.Millisecond,
	}, nil)
	if err := origin.Listen(); err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	edge := New(Config{
		Name:    "edge-x",
		Role:    RoleEdge,
		Origins: []string{origin.Addr(VIPTunnel)},
	}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	conn, err := net.Dial("tcp", edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	c := mqtt.NewClient(conn, "user-x", true)
	if _, err := c.Connect(0, 3*time.Second); err == nil {
		t.Fatal("connect succeeded with no broker behind the origin")
	}
	if origin.Metrics().CounterValue("origin.mqtt.broker_dial_failed") == 0 {
		t.Fatal("broker dial failure not counted")
	}
}

// TestMQTTNoBrokersConfigured: an Origin with an empty broker ring resets
// the relay stream instead of panicking.
func TestMQTTNoBrokersConfigured(t *testing.T) {
	origin := New(Config{Name: "origin-nb", Role: RoleOrigin}, nil)
	if err := origin.Listen(); err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	edge := New(Config{Name: "edge-nb", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)}}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	conn, err := net.Dial("tcp", edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	c := mqtt.NewClient(conn, "user-nb", true)
	if _, err := c.Connect(0, 3*time.Second); err == nil {
		t.Fatal("connect succeeded with no brokers configured")
	}
}

// TestEdgeMQTTGarbageFirstPacket: a client that speaks garbage instead of
// CONNECT is dropped without crashing the edge.
func TestEdgeMQTTGarbageFirstPacket(t *testing.T) {
	edge := New(Config{Name: "edge-g", Role: RoleEdge, Origins: []string{"127.0.0.1:1"}}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	conn, err := net.Dial("tcp", edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")) // not MQTT
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err == nil && n > 0 {
		t.Fatalf("edge answered a garbage MQTT handshake with %q", buf[:n])
	}
	// The edge must still be healthy for real clients afterwards.
	conn2, err := net.Dial("tcp", edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	conn2.Close()
}

// TestHealthConnGarbage: a junk probe line gets no answer and leaves the
// proxy serving.
func TestHealthConnGarbage(t *testing.T) {
	edge := New(Config{Name: "edge-h", Role: RoleEdge, Origins: []string{"127.0.0.1:1"}}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	conn, err := net.Dial("tcp", edge.Addr(VIPHealth))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("WHAT\n"))
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 8)
	if n, _ := conn.Read(buf); n > 0 {
		t.Fatalf("health endpoint answered garbage with %q", buf[:n])
	}
}

// TestDoubleAdoptRejected: a proxy cannot adopt two listener sets.
func TestDoubleAdoptRejected(t *testing.T) {
	p := New(Config{Name: "p", Role: RoleEdge, Origins: []string{"127.0.0.1:1"}}, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Listen(); err == nil {
		t.Fatal("second Listen accepted")
	}
}

// TestServeTakeoverBeforeListen fails cleanly.
func TestServeTakeoverBeforeListen(t *testing.T) {
	p := New(Config{Name: "p2", Role: RoleEdge, Origins: []string{"127.0.0.1:1"}}, nil)
	defer p.Close()
	if err := p.ServeTakeover("/tmp/never-used.sock"); err == nil {
		t.Fatal("ServeTakeover before Listen accepted")
	}
}

// TestStartDrainingIdempotent: repeated drains are safe.
func TestStartDrainingIdempotent(t *testing.T) {
	p := New(Config{Name: "p3", Role: RoleEdge, Origins: []string{"127.0.0.1:1"}, DrainPeriod: 50 * time.Millisecond}, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	p.StartDraining()
	p.StartDraining()
	p.Shutdown()
	p.Shutdown()
	p.Close()
}

// TestStatsEndpoint: the per-instance monitoring signal (§6).
func TestStatsEndpoint(t *testing.T) {
	edge := New(Config{
		Name: "edge-stats", Role: RoleEdge, Origins: []string{"127.0.0.1:1"},
		StaticContent: map[string][]byte{"/s": []byte("x")},
		DrainPeriod:   50 * time.Millisecond,
	}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	stats := func() string {
		conn, err := net.Dial("tcp", edge.Addr(VIPHealth))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write([]byte("STATS\n"))
		buf := make([]byte, 64<<10)
		var out []byte
		for {
			n, err := conn.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		return string(out)
	}
	s := stats()
	if !strings.Contains(s, "instance edge-stats") || !strings.Contains(s, "status active") {
		t.Fatalf("stats = %q", s)
	}
	edge.StartDraining()
	// After drain the edge's own health handle is closed (HardRestart
	// semantics), so status must be read before; the draining counter is
	// visible in the pre-drain dump via proxy.drains on a second instance
	// that keeps its sockets (takeover case) — covered in quic tests.
}
