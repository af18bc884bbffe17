package mqtt

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/netx"
)

// within fails the test if do has not returned in a second.
func within(t *testing.T, what string, do func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { do(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s has not returned after a second", what)
	}
}

// TestTeardownNeverWaitsForAParkedFlush: a subscriber that reads nothing
// parks the flush of whoever publishes to it — inside the publisher's
// wake, holding the subscriber's session. Dropping either session,
// resuming the subscriber on a new transport and closing the broker all
// return at once: they close the transport the write is parked on before
// they ask for the session's lock.
func TestTeardownNeverWaitsForAParkedFlush(t *testing.T) {
	// parked returns a broker whose reader of "flooder" is parked in a
	// write to "sink", and the count of flooder's publishes.
	parked := func(t *testing.T) (*Broker, string, *atomic.Int64) {
		b, addr := startBroker(t)
		sink, _ := rawSession(t, addr, "sink")
		sink.(*net.TCPConn).SetReadBuffer(8 << 10)
		flooder, _ := rawSession(t, addr, "flooder")
		flooder.SetDeadline(time.Time{})
		sent := new(atomic.Int64)
		go func() {
			p := &Packet{Type: PUBLISH, Topic: "own/sink", Payload: make([]byte, 32<<10)}
			for Encode(flooder, p) == nil {
				sent.Add(1)
			}
		}()
		last, since := int64(-1), time.Now()
		for time.Since(since) < 100*time.Millisecond {
			if now := sent.Load(); now != last {
				last, since = now, time.Now()
			}
			time.Sleep(time.Millisecond)
		}
		return b, addr, sent
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"the subscriber is dropped", func(t *testing.T) {
			b, _, sent := parked(t)
			before := sent.Load()
			within(t, "DropSession", func() { b.DropSession("sink") })
			// The publisher's wake went on: its flush failed, not hung.
			for deadline := time.Now().Add(5 * time.Second); sent.Load() == before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the publisher stayed parked after its subscriber was dropped")
				}
			}
			if n := b.Metrics().CounterValue("mqtt.flush.errors"); n != 1 {
				t.Errorf("mqtt.flush.errors = %d, want 1: the flush that was parked", n)
			}
		}},
		{"the subscriber resumes elsewhere", func(t *testing.T) {
			_, addr, _ := parked(t)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(time.Second))
			Encode(conn, &Packet{Type: CONNECT, ClientID: "sink"})
			if p, err := Decode(conn); err != nil || p.Type != CONNACK || !p.SessionPresent {
				t.Fatalf("the resume waited for a parked write: %+v, %v", p, err)
			}
		}},
		{"the publisher is dropped", func(t *testing.T) {
			b, _, _ := parked(t)
			within(t, "DropSession", func() { b.DropSession("flooder") })
		}},
		{"the broker closes", func(t *testing.T) {
			b, _, _ := parked(t)
			within(t, "Close", b.Close)
		}},
	}
	for _, c := range cases {
		back := baseline(t)
		t.Run(c.name, c.run) // its cleanups close everything it opened
		back(c.name)
	}
}

// baseline takes the process's descriptor and goroutine counts and returns
// what fails the test if they are not back there within five seconds.
func baseline(t *testing.T) func(what string) {
	t.Helper()
	fds, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	return func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			n, _ := netx.OpenFDCount()
			if n <= fds && runtime.NumGoroutine() <= goroutines {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d descriptors and %d goroutines, baseline %d and %d", what, n, runtime.NumGoroutine(), fds, goroutines)
			}
		}
	}
}

// TestCloseClosesAConnectionBeforeItsConnect: a connection that never
// sends its CONNECT has no session, and no keep-alive deadline either:
// Close closes it all the same and returns at once, and nothing of it is
// left.
func TestCloseClosesAConnectionBeforeItsConnect(t *testing.T) {
	back := baseline(t)
	b := NewBroker("test", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		served := len(b.transports)
		b.mu.Unlock()
		if served == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the broker never served the connection")
		}
	}
	ln.Close()
	within(t, "Close", b.Close)
	conn.Close()
	back("after Close")
}

// deafConn fails every Write once broken is set; its reads go on.
type deafConn struct {
	net.Conn
	broken atomic.Bool
}

func (c *deafConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestFailedFlushDetaches: a subscriber whose transport takes no more
// writes, and whose reader has not found out, is written to once: the
// flush that fails detaches it and counts mqtt.flush.errors, and later
// publishes skip it. mqtt.publish.delivered counts packets queued for a
// session that was attached when they were queued — from inside a wake,
// that is before the flush, so the one that failed is among them.
func TestFailedFlushDetaches(t *testing.T) {
	b, addr := startBroker(t)
	client, server := net.Pipe()
	defer client.Close()
	sub := &deafConn{Conn: server}
	go b.serveConn(sub)
	Encode(client, &Packet{Type: CONNECT, ClientID: "deaf", CleanSession: true})
	if p, err := Decode(client); err != nil || p.Type != CONNACK {
		t.Fatalf("CONNACK: %+v, %v", p, err)
	}
	Encode(client, &Packet{Type: SUBSCRIBE, PacketID: 1, TopicFilters: []string{"own/pub"}})
	if p, err := Decode(client); err != nil || p.Type != SUBACK {
		t.Fatalf("SUBACK: %+v, %v", p, err)
	}
	sub.broken.Store(true)

	pub, br := rawSession(t, addr, "pub")
	for i := uint16(0); i < 3; i++ {
		Encode(pub, &Packet{Type: PUBLISH, Topic: "own/pub", Payload: []byte("x"), QoS: 1, PacketID: 10 + i})
		collect(t, br, 1, 1)
	}
	reg := b.Metrics()
	if got := reg.CounterValue("mqtt.flush.errors"); got != 1 {
		t.Errorf("mqtt.flush.errors = %d, want 1: the dead transport is tried once", got)
	}
	// Three to the publisher itself, one queued for the subscriber before
	// the flush that found it dead.
	if got := reg.CounterValue("mqtt.publish.delivered"); got != 4 {
		t.Errorf("mqtt.publish.delivered = %d, want 4", got)
	}
	if b.SessionAttached("deaf") || !b.HasSession("deaf") {
		t.Error("the failed flush should detach the transport and keep the session")
	}
	if n := b.Publish("own/pub", []byte("y")); n != 1 {
		t.Errorf("a publish from outside any wake reached %d sessions, want 1", n)
	}
}

// TestSpliceCarriesWhatWasQueued: a packet queued for a session and not
// yet written when the session resumes on a new transport is not dropped
// with the old one: it reaches the new one, behind the CONNACK.
func TestSpliceCarriesWhatWasQueued(t *testing.T) {
	b, addr := startBroker(t)
	rawSession(t, addr, "carried")
	b.mu.Lock()
	s := b.sessions["carried"]
	b.mu.Unlock()
	s.mu.Lock()
	s.out, _ = appendPacket(s.out, &Packet{Type: PUBLISH, Topic: "own/carried", Payload: []byte("in flight")})
	s.mu.Unlock()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	Encode(conn, &Packet{Type: CONNECT, ClientID: "carried"})
	if p, err := Decode(conn); err != nil || p.Type != CONNACK || !p.SessionPresent {
		t.Fatalf("first on the new transport: %+v, %v, want the CONNACK", p, err)
	}
	if p, err := Decode(conn); err != nil || p.Type != PUBLISH || string(p.Payload) != "in flight" {
		t.Fatalf("behind the CONNACK: %+v, %v, want what was queued", p, err)
	}
}

// TestDeafSubscriberStallsOnlyItsPublishers: a subscriber that reads
// nothing parks the publish that writes to it, its session's lock held.
// A publish on another topic locks no session but its subscribers': one
// from a client's wake and one through Publish are delivered meanwhile.
func TestDeafSubscriberStallsOnlyItsPublishers(t *testing.T) {
	b, addr := startBroker(t)
	sink, _ := rawSession(t, addr, "sink")
	sink.(*net.TCPConn).SetReadBuffer(8 << 10)
	var published atomic.Int64
	go func() {
		for payload := make([]byte, 32<<10); b.Publish("own/sink", payload) == 1; {
			published.Add(1)
		}
	}()
	for last, since := int64(-1), time.Now(); time.Since(since) < 100*time.Millisecond; time.Sleep(time.Millisecond) {
		if now := published.Load(); now != last {
			last, since = now, time.Now()
		}
	}
	neighbour, br := rawSession(t, addr, "neighbour")
	neighbour.SetDeadline(time.Now().Add(time.Second))
	Encode(neighbour, &Packet{Type: PUBLISH, QoS: 1, PacketID: 1, Topic: "own/neighbour", Payload: []byte("wake")})
	if got := collect(t, br, 1, 1); got[0] != "wake" {
		t.Fatalf("the neighbour's own publish delivered %q", got)
	}
	within(t, "Publish beside a parked one", func() { b.Publish("own/neighbour", []byte("api")) })
	if got := collect(t, br, 0, 1); got[0] != "api" {
		t.Fatalf("Publish delivered %q", got)
	}
}
