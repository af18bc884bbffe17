package mqtt

import (
	"fmt"
	"net"
	"testing"
	"time"

	"zdr/internal/netx"
)

func startLoopBroker(t *testing.T) (*Broker, *netx.EventLoop, net.Listener) {
	t.Helper()
	b := NewBroker("loop-broker", nil)
	loop, err := netx.NewEventLoop(netx.EventLoopConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.ServeLoop(ln, loop) }()
	t.Cleanup(func() {
		ln.Close()
		select {
		case err := <-serveDone:
			if err != nil {
				t.Errorf("ServeLoop: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("ServeLoop did not return after listener close")
		}
		b.Close()
		loop.Close()
	})
	return b, loop, ln
}

// TestBrokerServeLoopBasic runs the full MQTT exchange — connect,
// subscribe, publish round-trip, ping — against a loop-mode broker.
func TestBrokerServeLoopBasic(t *testing.T) {
	b, _, ln := startLoopBroker(t)

	dial := func(id string) *Client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, id, true)
		if _, err := c.Connect(30*time.Second, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		return c
	}
	sub := dial("user-sub")
	defer sub.Disconnect()
	pub := dial("user-pub")
	defer pub.Disconnect()

	if err := sub.Subscribe(2*time.Second, "news/#"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("news/today", []byte("hello"), 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.Messages():
		if string(m.Payload) != "hello" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber did not receive publish")
	}
	if err := sub.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !b.SessionAttached("user-sub") {
		t.Fatal("session not attached")
	}
}

// TestBrokerServeLoopIdlePark: parked idle sessions cost watches, not
// goroutines, and a hang-up reaps the transport while retaining session
// context (the DCR resume contract).
func TestBrokerServeLoopIdlePark(t *testing.T) {
	b, loop, ln := startLoopBroker(t)

	const clients = 50
	conns := make([]*Client, 0, clients)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, fmt.Sprintf("user-%d", i), true)
		if _, err := c.Connect(0, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// All parked: the loop holds one watch per session.
	deadline := time.Now().Add(2 * time.Second)
	for loop.Watched() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("Watched = %d, want %d", loop.Watched(), clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ServeLoop bumps the gauge after loop.Watch has registered the watch,
	// so the 50th watch can be visible a moment before the 50th increment:
	// wait on the gauge too (reading it once here failed 49 != 50).
	for b.Metrics().GaugeValue("mqtt.loop.parked") != clients {
		if time.Now().After(deadline) {
			t.Fatalf("parked gauge = %d want %d", b.Metrics().GaugeValue("mqtt.loop.parked"), clients)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill half the transports abruptly: RDHUP reaps them, context stays.
	for i := 0; i < clients/2; i++ {
		conns[i].conn.Close()
	}
	deadline = time.Now().Add(2 * time.Second)
	for b.Metrics().GaugeValue("mqtt.loop.parked") > clients/2 {
		if time.Now().After(deadline) {
			t.Fatalf("parked gauge stuck at %d", b.Metrics().GaugeValue("mqtt.loop.parked"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < clients/2; i++ {
		if !b.HasSession(fmt.Sprintf("user-%d", i)) {
			t.Fatalf("session user-%d lost after transport death", i)
		}
		if b.SessionAttached(fmt.Sprintf("user-%d", i)) {
			t.Fatalf("session user-%d still attached after transport death", i)
		}
	}
	// Survivors still work.
	if err := conns[clients-1].Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns[clients/2:] {
		c.Disconnect()
	}
}

// TestBrokerServeLoopResume: the DCR resume (CleanSession=false) works
// against a loop-mode broker — the new transport splices in and is parked
// in turn.
func TestBrokerServeLoopResume(t *testing.T) {
	b, _, ln := startLoopBroker(t)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, "user-r", true)
	if _, err := c.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(2*time.Second, "a/b"); err != nil {
		t.Fatal(err)
	}
	conn.Close() // transport dies; context survives

	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(conn2, "user-r", false)
	ack, err := c2.Connect(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.SessionPresent {
		t.Fatal("resume did not find session context")
	}
	defer c2.Disconnect()
	// Old subscription still live on the new transport.
	if n := b.Publish("a/b", []byte("resumed")); n != 1 {
		t.Fatalf("delivered %d want 1", n)
	}
	select {
	case m := <-c2.Messages():
		if string(m.Payload) != "resumed" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resumed transport did not receive publish")
	}
}
