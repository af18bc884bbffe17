package mqtt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestRemainingLengthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, maxRemainingLength} {
		enc, digits := remainingLength(n)
		hdr, got, err := fixedHeader(append([]byte{byte(PUBLISH) << 4}, enc[:digits]...))
		if err != nil || got != n || hdr != 1+digits {
			t.Fatalf("n=%d: got %d in %d bytes, err %v", n, got, hdr, err)
		}
	}
	big := &Packet{Type: PUBLISH, Topic: "t", Payload: make([]byte, maxRemainingLength)}
	if err := Encode(io.Discard, big); err == nil {
		t.Fatal("accepted oversize length")
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("encode %v: %v", p.Type, err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode %v: %v", p.Type, err)
	}
	return got
}

func TestPacketRoundTrips(t *testing.T) {
	cases := []*Packet{
		{Type: CONNECT, ClientID: "user-42", keepAlive: 30, CleanSession: true},
		{Type: CONNECT, ClientID: "user-43", CleanSession: false},
		{Type: CONNACK, SessionPresent: true, ReturnCode: 0},
		{Type: CONNACK, ReturnCode: connRefusedIDRejected},
		{Type: PUBLISH, Topic: "notif/u42", Payload: []byte("hello"), QoS: 0},
		{Type: PUBLISH, Topic: "t", Payload: []byte{}, QoS: 1, PacketID: 9},
		{Type: PUBACK, PacketID: 9},
		{Type: SUBSCRIBE, PacketID: 3, TopicFilters: []string{"a/+/c", "#"}},
		{Type: SUBACK, PacketID: 3, grantedQoS: []uint8{0, 0}},
		{Type: PINGREQ},
		{Type: pingresp},
		{Type: disconnect},
	}
	for _, in := range cases {
		got := roundTrip(t, in)
		if got.Type != in.Type {
			t.Fatalf("type %v != %v", got.Type, in.Type)
		}
		switch in.Type {
		case CONNECT:
			if got.ClientID != in.ClientID || got.keepAlive != in.keepAlive || got.CleanSession != in.CleanSession {
				t.Fatalf("CONNECT mismatch: %+v vs %+v", got, in)
			}
		case CONNACK:
			if got.SessionPresent != in.SessionPresent || got.ReturnCode != in.ReturnCode {
				t.Fatalf("CONNACK mismatch: %+v vs %+v", got, in)
			}
		case PUBLISH:
			if got.Topic != in.Topic || !bytes.Equal(got.Payload, in.Payload) || got.QoS != in.QoS || got.PacketID != in.PacketID {
				t.Fatalf("PUBLISH mismatch: %+v vs %+v", got, in)
			}
		case SUBSCRIBE:
			if !reflect.DeepEqual(got.TopicFilters, in.TopicFilters) || got.PacketID != in.PacketID {
				t.Fatalf("SUBSCRIBE mismatch: %+v vs %+v", got, in)
			}
		}
	}
}

func TestPublishRoundTripProperty(t *testing.T) {
	f := func(topic string, payload []byte, qos bool) bool {
		if len(topic) > 0xffff || len(payload) > maxRemainingLength/2 {
			return true
		}
		p := &Packet{Type: PUBLISH, Topic: topic, Payload: payload}
		if qos {
			p.QoS, p.PacketID = 1, 77
		}
		var buf bytes.Buffer
		if err := Encode(&buf, p); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return got.Topic == topic && bytes.Equal(got.Payload, payload) && got.QoS == p.QoS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x10, 0x02, 0x00, 0x00},      // CONNECT with bogus body
		{0x20, 0x01, 0x00},            // CONNACK with 1-byte body
		{0xc0, 0x01, 0x00},            // PINGREQ with body
		{0x36, 0x03, 0x00, 0x01, 'a'}, // PUBLISH QoS3
		{0xf0, 0x00},                  // reserved type 15
		{0x80, 0x01, 0x00},            // SUBSCRIBE truncated
	}
	for _, raw := range cases {
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Errorf("accepted %v", raw)
		}
	}
}

func TestTopicMatches(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/x", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/+/c", "a/c", false},
		{"#", "anything/at/all", true},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true},
		{"a/#", "b/a", false},
		{"+", "a", true},
		{"+", "a/b", false},
		{"notif/+", "notif/u42", true},
		{"", "", true},
		{"a", "a/b", false},
	}
	for _, c := range cases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func startBroker(t *testing.T) (*Broker, string) {
	t.Helper()
	b := NewBroker("test", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	t.Cleanup(func() { ln.Close(); b.Close() })
	return b, ln.Addr().String()
}

func dialClient(t *testing.T, addr, id string, clean bool) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, id, clean)
	t.Cleanup(func() { c.Disconnect() })
	return c
}

func TestBrokerConnectSubscribePublish(t *testing.T) {
	b, addr := startBroker(t)
	sub := dialClient(t, addr, "user-1", true)
	if _, err := sub.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(2*time.Second, "notif/user-1"); err != nil {
		t.Fatal(err)
	}
	if n := b.Publish("notif/user-1", []byte("ping!")); n != 1 {
		t.Fatalf("delivered to %d sessions, want 1", n)
	}
	select {
	case m := <-sub.Messages():
		if m.Topic != "notif/user-1" || string(m.Payload) != "ping!" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish never delivered")
	}
	if !b.HasSession("user-1") || b.SessionCount() != 1 {
		t.Fatal("session bookkeeping wrong")
	}
}

func TestBrokerClientToClientPublish(t *testing.T) {
	_, addr := startBroker(t)
	sub := dialClient(t, addr, "sub", true)
	if _, err := sub.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(2*time.Second, "chat/#"); err != nil {
		t.Fatal(err)
	}
	pub := dialClient(t, addr, "pub", true)
	if _, err := pub.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("chat/room1", []byte("hey"), 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.Messages():
		if string(m.Payload) != "hey" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cross-client publish lost")
	}
}

func TestBrokerPing(t *testing.T) {
	_, addr := startBroker(t)
	c := dialClient(t, addr, "pinger", true)
	if _, err := c.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.ping(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBrokerResume is the DCR-critical behaviour: a resume CONNECT
// (CleanSession=false) splices onto existing context with
// SessionPresent=true, retaining subscriptions.
func TestBrokerResume(t *testing.T) {
	b, addr := startBroker(t)
	c1 := dialClient(t, addr, "user-7", true)
	if _, err := c1.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c1.Subscribe(2*time.Second, "notif/user-7"); err != nil {
		t.Fatal(err)
	}
	// Transport dies (the relaying proxy restarts); context must remain.
	c1.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for b.SessionAttached("user-7") {
		if time.Now().After(deadline) {
			t.Fatal("session never detached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !b.HasSession("user-7") {
		t.Fatal("context lost on transport death")
	}

	// Resume over a new transport (the re_connect path).
	c2 := dialClient(t, addr, "user-7", false)
	ack, err := c2.Connect(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.SessionPresent {
		t.Fatal("resume should report SessionPresent (connect_ack)")
	}
	// Old subscription must still deliver without re-subscribing.
	if n := b.Publish("notif/user-7", []byte("still here")); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	select {
	case m := <-c2.Messages():
		if string(m.Payload) != "still here" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-resume delivery lost")
	}
	if b.Metrics().CounterValue("mqtt.connect.resumed") != 1 {
		t.Fatal("resume not counted")
	}
}

// TestBrokerIdleSessionsHoldNoReadBuffer: a transport holds its read
// buffer only while part of a packet is in it — not once a read's packets
// are served, and across a packet cut between two reads only until the
// second — and of fifty idle sessions half reset by their peers, each
// keeps its context, detached, while the other half still answer.
func TestBrokerIdleSessionsHoldNoReadBuffer(t *testing.T) {
	b, addr := startBroker(t)

	client, server := net.Pipe()
	defer client.Close()
	go io.Copy(io.Discard, client) // the CONNACK and the PINGRESP
	tr := b.newTransport(server)
	defer tr.end()
	feed := func(b []byte) {
		t.Helper()
		if tr.ServeWake(copy(tr.ReadBuf(), b)) {
			t.Fatalf("the transport ended: %v", tr.err)
		}
	}
	var wire bytes.Buffer
	Encode(&wire, &Packet{Type: CONNECT, ClientID: "held", CleanSession: true})
	feed(wire.Bytes())
	if tr.buf != nil {
		t.Fatal("a transport whose packets are served holds its read buffer")
	}
	wire.Reset()
	Encode(&wire, &Packet{Type: PINGREQ})
	feed(wire.Bytes()[:1])
	if tr.buf == nil {
		t.Fatal("the first byte of a packet was not kept")
	}
	feed(wire.Bytes()[1:])
	if tr.buf != nil {
		t.Fatal("a transport holds its read buffer once the packet is served")
	}

	const clients = 50
	conns := make([]net.Conn, clients)
	brs := make([]*bufio.Reader, clients)
	for i := range conns {
		conns[i], brs[i] = rawSession(t, addr, fmt.Sprintf("user-%d", i))
	}
	for _, c := range conns[:clients/2] {
		c.(*net.TCPConn).SetLinger(0)
		c.Close()
	}
	for i := 0; i < clients/2; i++ {
		id := fmt.Sprintf("user-%d", i)
		for deadline := time.Now().Add(2 * time.Second); b.SessionAttached(id); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("session %s still attached after its peer's reset", id)
			}
		}
		if !b.HasSession(id) {
			t.Fatalf("session %s lost its context with its transport", id)
		}
	}
	for i := clients / 2; i < clients; i++ {
		Encode(conns[i], &Packet{Type: PINGREQ})
		if p, err := Decode(brs[i]); err != nil || p.Type != pingresp {
			t.Fatalf("user-%d: %+v, %v", i, p, err)
		}
	}
}

// TestBrokerResumeRefused: resume with no context → CONNACK refusal
// (connect_refuse), and the client treats it as an error.
func TestBrokerResumeRefused(t *testing.T) {
	b, addr := startBroker(t)
	c := dialClient(t, addr, "ghost", false)
	ack, err := c.Connect(0, 2*time.Second)
	if err == nil {
		t.Fatal("resume without context must fail")
	}
	if ack == nil || ack.ReturnCode == ConnAccepted {
		t.Fatalf("ack = %+v", ack)
	}
	if b.Metrics().CounterValue("mqtt.connect.refused") != 1 {
		t.Fatal("refusal not counted")
	}
}

// TestBrokerResumeStealsTransport: a resume closes the stale transport so
// exactly one path delivers (no duplicate delivery through a dying relay).
func TestBrokerResumeStealsTransport(t *testing.T) {
	b, addr := startBroker(t)
	c1 := dialClient(t, addr, "user-9", true)
	if _, err := c1.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c1.Subscribe(2*time.Second, "t"); err != nil {
		t.Fatal(err)
	}
	c2 := dialClient(t, addr, "user-9", false)
	if _, err := c2.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := b.Publish("t", []byte("x")); n != 1 {
		t.Fatalf("delivered %d, want exactly 1", n)
	}
	select {
	case <-c2.Messages():
	case <-time.After(2 * time.Second):
		t.Fatal("new transport did not receive")
	}
	select {
	case <-c1.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("old transport not closed after splice")
	}
}

func TestBrokerDropSession(t *testing.T) {
	b, addr := startBroker(t)
	c := dialClient(t, addr, "user-d", true)
	if _, err := c.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	b.DropSession("user-d")
	if b.HasSession("user-d") {
		t.Fatal("session survived drop")
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client transport not closed on drop")
	}
}

func TestBrokerRejectsEmptyClientID(t *testing.T) {
	_, addr := startBroker(t)
	c := dialClient(t, addr, "", true)
	if _, err := c.Connect(0, 2*time.Second); err == nil {
		t.Fatal("empty client id accepted")
	}
}

func TestBrokerRejectsNonConnectFirst(t *testing.T) {
	_, addr := startBroker(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	Encode(conn, &Packet{Type: PINGREQ})
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := Decode(conn); err == nil {
		t.Fatal("broker answered a connection that never sent CONNECT")
	}
}

// BenchmarkEncodePublish encodes the publish the benchmark's mqtt_pubsub
// workload sends and reports how many writes each one cost the transport.
func BenchmarkEncodePublish(b *testing.B) {
	p := &Packet{Type: PUBLISH, Topic: "notif/user-12345", Payload: bytes.Repeat([]byte("m"), 128), QoS: 1, PacketID: 7}
	var w countWriter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Encode(&w, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.writes)/float64(b.N), "writes/op")
}

func BenchmarkTopicMatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TopicMatches("a/+/c/#", "a/b/c/d/e")
	}
}

// TestBrokerKeepAliveEnforced: a client that declares a keep-alive and
// then goes silent is disconnected after ~1.5x the interval (§4.2: MQTT
// clients periodically exchange pings; a dead transport must be detected).
func TestBrokerKeepAliveEnforced(t *testing.T) {
	_, addr := startBroker(t)
	c := dialClient(t, addr, "sleepy", true)
	if _, err := c.Connect(time.Second, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// No pings. The broker must cut us off between 1.5s and ~4s.
	select {
	case <-c.Done():
	case <-time.After(4 * time.Second):
		t.Fatal("silent client never disconnected despite keep-alive")
	}
}

// TestBrokerKeepAliveSatisfiedByPings: regular pings keep the session up.
func TestBrokerKeepAliveSatisfiedByPings(t *testing.T) {
	_, addr := startBroker(t)
	c := dialClient(t, addr, "awake", true)
	if _, err := c.Connect(time.Second, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		time.Sleep(500 * time.Millisecond)
		if err := c.ping(2 * time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}
