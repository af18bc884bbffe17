package proxy

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/faults"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
)

// countedHops is an Edge → Origin → {app server, broker} deployment in
// which every hop's sending side is wrapped by an injector that injects
// nothing and counts the Write calls made through it.
type countedHops struct {
	edge *Proxy
	// One counter per hop and direction, named for who writes to whom.
	edgeToClient, edgeToOrigin, originToEdge, originToUpstream, appToOrigin, brokerToOrigin *faults.Injector
}

func (h *countedHops) snapshot() map[string]uint64 {
	return map[string]uint64{
		"edge→client":       h.edgeToClient.WriteCalls(),
		"edge→origin":       h.edgeToOrigin.WriteCalls(),
		"origin→edge":       h.originToEdge.WriteCalls(),
		"origin→app/broker": h.originToUpstream.WriteCalls(),
		"app server→origin": h.appToOrigin.WriteCalls(),
		"broker→origin":     h.brokerToOrigin.WriteCalls(),
	}
}

// expectWrites checks the writes each hop made since before.
func (h *countedHops) expectWrites(t *testing.T, what string, before map[string]uint64, want map[string]uint64) {
	t.Helper()
	for hop, n := range h.snapshot() {
		if got := n - before[hop]; got != want[hop] {
			t.Errorf("%s: %s made %d writes, want %d", what, hop, got, want[hop])
		}
	}
}

func startCountedHops(t *testing.T) *countedHops {
	t.Helper()
	counter := func() *faults.Injector { return faults.NewInjector(faults.Scenario{}) }
	h := &countedHops{
		edgeToClient: counter(), edgeToOrigin: counter(), originToEdge: counter(),
		originToUpstream: counter(), appToOrigin: counter(), brokerToOrigin: counter(),
	}

	broker := mqtt.NewBroker("broker", nil)
	broker.SetFaults(h.brokerToOrigin)
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go broker.Serve(bln)
	t.Cleanup(func() { bln.Close(); broker.Close() })

	as := appserver.New(appserver.Config{Name: "as"}, nil)
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as.Serve(h.appToOrigin.Listener(aln))
	t.Cleanup(as.Close)

	origin := New(Config{
		Name: "origin", Role: RoleOrigin,
		AppServers: []string{aln.Addr().String()}, Brokers: []string{bln.Addr().String()},
		Faults: h.originToUpstream, AcceptFaults: h.originToEdge,
	}, nil)
	if err := origin.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(origin.Close)

	h.edge = New(Config{
		Name: "edge", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)},
		StaticContent: map[string][]byte{"/static/logo": []byte("cached-bytes")},
		Faults:        h.edgeToOrigin, AcceptFaults: h.edgeToClient,
	}, nil)
	if err := h.edge.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.edge.Close)
	return h
}

// countingConn counts the client's own writes.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestOneWritePerHopPerMessage counts, with no timing involved, the
// writes one small request and its reply cost on every socket of the
// path: a GET through edge, origin and app server is six — one per hop
// per direction, the client's included (eleven before messages were
// coalesced).
func TestOneWritePerHopPerMessage(t *testing.T) {
	h := startCountedHops(t)
	raw, err := net.Dial("tcp", h.edge.Addr(VIPWeb))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := &countingConn{Conn: raw}
	br := bufio.NewReader(conn)
	exchange := func(req *http1.Request) string {
		t.Helper()
		if _, err := http1.WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http1.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		body, err := http1.ReadFullBody(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return string(body)
	}
	// The first request dials the tunnel and the app-server connection;
	// the counted ones find both in place, as every request but the first
	// does.
	exchange(http1.NewRequest("GET", "/warm", nil, 0))

	before, mine := h.snapshot(), conn.writes
	exchange(http1.NewRequest("GET", "/api/feed", nil, 0))
	if conn.writes-mine != 1 {
		t.Errorf("GET: the client made %d writes, want 1", conn.writes-mine)
	}
	h.expectWrites(t, "GET", before, map[string]uint64{
		"edge→origin": 1, "origin→app/broker": 1, "app server→origin": 1, "origin→edge": 1, "edge→client": 1,
	})

	before = h.snapshot()
	if got := exchange(http1.NewRequest("GET", "/static/logo", nil, 0)); got != "cached-bytes" {
		t.Fatalf("cache hit returned %q", got)
	}
	h.expectWrites(t, "cache hit", before, map[string]uint64{"edge→client": 1})

	// A small POST arrives whole with its head: the Edge sends HEADERS and
	// body in one write. The Origin's upload path still writes head and
	// body apart (it forwards the body as it arrives, watching for a 379).
	before = h.snapshot()
	payload := strings.Repeat("p", 300)
	if got := exchange(http1.NewRequest("POST", "/echo", strings.NewReader(payload), int64(len(payload)))); got != payload {
		t.Fatalf("POST echoed %d bytes", len(got))
	}
	h.expectWrites(t, "small POST", before, map[string]uint64{
		"edge→origin": 1, "origin→app/broker": 2, "app server→origin": 1, "origin→edge": 1, "edge→client": 1,
	})
}

// TestOneWritePerMQTTPacketPerHop: a QoS-1 publish from one user to
// another crosses every hop in one write per packet — the PUBLISH up,
// the delivery and the PUBACK down, each on its own connection or stream.
func TestOneWritePerMQTTPacketPerHop(t *testing.T) {
	h := startCountedHops(t)
	dial := func(id string) *mqtt.Client {
		conn, err := net.Dial("tcp", h.edge.Addr(VIPMQTT))
		if err != nil {
			t.Fatal(err)
		}
		c := mqtt.NewClient(conn, id, true)
		if _, err := c.Connect(0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Disconnect() })
		return c
	}
	pub, sub := dial("publisher"), dial("subscriber")
	if err := sub.Subscribe(5*time.Second, "news/#"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		before := h.snapshot()
		if err := pub.Publish("news/today", bytes.Repeat([]byte("m"), 128), 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-sub.Messages():
			if len(m.Payload) != 128 {
				t.Fatalf("delivered %d bytes", len(m.Payload))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("publish never delivered")
		}
		h.expectWrites(t, "publish", before, map[string]uint64{
			"edge→origin": 1, "origin→app/broker": 1, // the PUBLISH, up
			"broker→origin": 2, "origin→edge": 2, "edge→client": 2, // delivery and PUBACK, down
		})
	}

	// A user subscribed to its own topic has delivery and PUBACK on one
	// connection: what one read of it caused the broker answers in one
	// write, and every hop below carries the pair on as it came.
	own := dial("own")
	if err := own.Subscribe(5*time.Second, "self/own"); err != nil {
		t.Fatal(err)
	}
	before := h.snapshot()
	if err := own.Publish("self/own", bytes.Repeat([]byte("m"), 128), 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-own.Messages():
	case <-time.After(5 * time.Second):
		t.Fatal("publish never delivered")
	}
	h.expectWrites(t, "publish to itself", before, map[string]uint64{
		"edge→origin": 1, "origin→app/broker": 1, "broker→origin": 1, "origin→edge": 1, "edge→client": 1,
	})

	// Eight QoS 1 publishes that reach the broker in one read are answered
	// — eight deliveries, eight PUBACKs — in one write.
	conn, err := net.Dial("tcp", h.edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	expect := func(typ mqtt.PacketType) {
		t.Helper()
		if p, err := mqtt.Decode(br); err != nil || p.Type != typ {
			t.Fatalf("waiting for %v: %+v, %v", typ, p, err)
		}
	}
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: "eight", CleanSession: true})
	expect(mqtt.CONNACK)
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.SUBSCRIBE, PacketID: 1, TopicFilters: []string{"self/eight"}})
	expect(mqtt.SUBACK)
	var seg bytes.Buffer
	for i := 0; i < 8; i++ {
		mqtt.Encode(&seg, &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "self/eight", Payload: []byte("m"), QoS: 1, PacketID: uint16(10 + i)})
	}
	before = h.snapshot()
	if _, err := conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		expect(mqtt.PUBLISH)
		expect(mqtt.PUBACK)
	}
	h.expectWrites(t, "eight publishes in one write", before, map[string]uint64{
		"edge→origin": 1, "origin→app/broker": 1, "broker→origin": 1, "origin→edge": 1, "edge→client": 1,
	})
}

// slowAppServer answers every request with a ten-byte first half at once
// and the second half only when released.
func slowAppServer(t *testing.T, chunked bool, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := http1.ReadRequest(bufio.NewReader(conn)); err != nil {
					return
				}
				if chunked {
					io.WriteString(conn, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\na\r\nfirst-half\r\n")
					<-release
					io.WriteString(conn, "a\r\nsecondhalf\r\n0\r\n\r\n")
				} else {
					io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\nfirst-half")
					<-release
					io.WriteString(conn, "secondhalf")
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCoalescingNeverWaitsForData: an app server sends its head and the
// first bytes of its body and then stalls. The client has those bytes
// while the app server is still stalled — it is the client's receipt that
// lets the app server finish — whichever framing the reply uses.
func TestCoalescingNeverWaitsForData(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		release := make(chan struct{})
		origin := New(Config{Name: "origin", Role: RoleOrigin, AppServers: []string{slowAppServer(t, chunked, release)}}, nil)
		if err := origin.Listen(); err != nil {
			t.Fatal(err)
		}
		edge := New(Config{Name: "edge", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)}}, nil)
		if err := edge.Listen(); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", edge.Addr(VIPWeb))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/slow", nil, 0)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http1.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			t.Fatalf("chunked=%v: no response head while the app server stalls: %v", chunked, err)
		}
		first := make([]byte, 10)
		if _, err := io.ReadFull(resp.Body, first); err != nil || string(first) != "first-half" {
			t.Fatalf("chunked=%v: first bytes while the app server stalls: %q, %v", chunked, first, err)
		}
		close(release)
		rest, err := http1.ReadFullBody(resp.Body)
		if err != nil || string(rest) != "secondhalf" {
			t.Fatalf("chunked=%v: rest of the body: %q, %v", chunked, rest, err)
		}
		conn.Close()
		edge.Close()
		origin.Close()
	}
}
