package proxy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
	"zdr/internal/netx"
	"zdr/internal/racetest"
)

// rawMQTT connects a hand-driven MQTT user to addr, subscribed to filter,
// that reads nothing further unless the test does.
func rawMQTT(t *testing.T, addr, id, filter string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.(*net.TCPConn).SetReadBuffer(8 << 10)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: id, CleanSession: true})
	if p, err := mqtt.Decode(conn); err != nil || p.Type != mqtt.CONNACK {
		t.Fatalf("CONNACK: %+v, %v", p, err)
	}
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.SUBSCRIBE, PacketID: 1, TopicFilters: []string{filter}})
	if p, err := mqtt.Decode(conn); err != nil || p.Type != mqtt.SUBACK {
		t.Fatalf("SUBACK: %+v, %v", p, err)
	}
	return conn
}

// settled waits until n has stopped moving for a tenth of a second: who
// counts in it is parked.
func settled(t *testing.T, what string, n *atomic.Int64) {
	t.Helper()
	last, since := n.Load(), time.Now()
	waitFor(t, what, func() bool {
		if now := n.Load(); now != last {
			last, since = now, time.Now()
		}
		return time.Since(since) > 100*time.Millisecond
	})
}

// within fails the test if do has not returned in a second.
func within(t *testing.T, what string, do func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { do(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s waited for a parked write", what)
	}
}

// deafUser connects a user behind the Edge that subscribes and reads
// nothing, and has the broker publish size bytes to it for as long as it is
// taken: published counts, and stops moving once everything on the way is
// full.
func (tp *topology) deafUser(t *testing.T, size int) (user net.Conn, published *atomic.Int64) {
	user = rawMQTT(t, tp.edge.Addr(VIPMQTT), "deaf", "notif/deaf")
	published = new(atomic.Int64)
	go func() {
		for payload := make([]byte, size); tp.broker.Publish("notif/deaf", payload) == 1; {
			published.Add(1)
		}
	}()
	return user, published
}

// downstreamParked: a deaf user with everything on the way to it full. The
// Edge's stream → user pump (Stream.WriteTo) is parked in a write of the
// user's socket with a window of DATA queued behind it, and the Origin's
// broker→stream pump on the stream's window.
func downstreamParked(t *testing.T) (*topology, net.Conn) {
	tp := startTopology(t, 0, 1)
	user, published := tp.deafUser(t, 32<<10)
	waitFor(t, "the origin's pump to run out of window", func() bool {
		return tp.origins[0].Metrics().CounterValue("h2t.window.stalls") > 0
	})
	settled(t, "the broker's write to park", published)
	return tp, user
}

// downstreamFlowing: a user behind the Edge that reads all it is sent while
// the broker publishes to it without pause: the Edge's session reader is
// writing the stream's DATA to the user's socket itself, wake after wake.
func downstreamFlowing(t *testing.T) (*topology, net.Conn) {
	tp := startTopology(t, 0, 1)
	user := rawMQTT(t, tp.edge.Addr(VIPMQTT), "keen", "notif/keen")
	user.(*net.TCPConn).SetReadBuffer(1 << 20) // rawMQTT's is a deaf user's
	user.SetReadDeadline(time.Time{})
	go io.Copy(io.Discard, user)
	go func() {
		for payload := make([]byte, 512); tp.broker.Publish("notif/keen", payload) == 1; {
		}
	}()
	direct := func() int64 { return tp.edge.Metrics().CounterValue("h2t.sink.direct_bytes") }
	waitFor(t, "the edge's reader to be writing through", func() bool { return direct() > 256<<10 })
	return tp, user
}

// theRelay returns the Edge's one MQTT relay.
func (tp *topology) theRelay() (relay *mqttRelay) {
	tp.edge.mu.Lock()
	defer tp.edge.mu.Unlock()
	for _, r := range ownersOf[*mqttRelay](tp.edge) {
		relay = r
	}
	return relay
}

// TestTeardownNeverWaitsForAParkedWrite: the MQTT pumps that read by wakes
// write, under the read lock of the connection they read, to a stream
// whose window can run out; the pump the other way writes the user's
// socket, or has the tunnel's reader write it, and can be parked on that.
// However such a relay is torn down — the Origin's relay ending, the
// Origin closing, the Edge closing the relay, the user hanging up — and
// whichever of the two has the socket at that instant, the teardown frees
// the parked write instead of waiting behind it, and the process is back
// at its descriptors and goroutines afterwards.
func TestTeardownNeverWaitsForAParkedWrite(t *testing.T) {
	payload := make([]byte, 32<<10)
	// hungUp: the Edge lets go of a user that has closed its connection.
	hungUp := func(t *testing.T, tp *topology, user net.Conn) {
		user.Close()
		t0 := time.Now()
		for tp.edge.MQTTConnCount() != 0 {
			if time.Since(t0) > time.Second {
				t.Fatal("the relay outlived its user's connection")
			}
			time.Sleep(time.Millisecond)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"the origin closes", func(t *testing.T) {
			tp, _ := downstreamParked(t)
			within(t, "Origin.Close", tp.origins[0].Close)
		}},
		{"the origin closes under the reader's writes", func(t *testing.T) {
			tp, _ := downstreamFlowing(t)
			within(t, "Origin.Close", tp.origins[0].Close)
		}},
		{"the edge closes a relay parked on its user", func(t *testing.T) {
			tp, _ := downstreamParked(t)
			within(t, "mqttRelay.close", tp.theRelay().close)
		}},
		{"the edge closes a relay under the reader's writes", func(t *testing.T) {
			tp, _ := downstreamFlowing(t)
			within(t, "mqttRelay.close", tp.theRelay().close)
		}},
		{"the user hangs up on a parked relay", func(t *testing.T) {
			tp, user := downstreamParked(t)
			hungUp(t, tp, user)
		}},
		{"the user hangs up under the reader's writes", func(t *testing.T) {
			tp, user := downstreamFlowing(t)
			hungUp(t, tp, user)
		}},
		{"the origin's relay ends", func(t *testing.T) {
			// The broker drops the user; the Origin learns of it from the
			// write that carries the user's next packets up, and its relay
			// ends with the other pump still parked.
			tp, user := downstreamParked(t)
			within(t, "DropSession", func() { tp.broker.DropSession("deaf") })
			t0 := time.Now()
			for tp.origins[0].Metrics().GaugeValue("origin.mqtt.active") != 0 {
				if time.Since(t0) > time.Second {
					t.Fatal("the relay's end waited for its parked pump")
				}
				mqtt.Encode(user, &mqtt.Packet{Type: mqtt.PINGREQ})
				time.Sleep(5 * time.Millisecond)
			}
		}},
		{"the edge closes the relay", func(t *testing.T) {
			// A subscriber at the broker that reads nothing, and a user
			// behind the Edge publishing to it until everything between
			// them is full: the Edge's client→stream pump is parked.
			tp := startTopology(t, 0, 1)
			rawMQTT(t, tp.brAddr, "sink", "flood")
			user := rawMQTT(t, tp.edge.Addr(VIPMQTT), "flooder", "none")
			var sent atomic.Int64
			go func() {
				for mqtt.Encode(user, &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "flood", Payload: payload}) == nil {
					sent.Add(1)
				}
			}()
			waitFor(t, "the edge's pump to run out of window", func() bool {
				return tp.edge.Metrics().CounterValue("h2t.window.stalls") > 0
			})
			settled(t, "the user's write to park", &sent)
			within(t, "mqttRelay.close", tp.theRelay().close)
		}},
	}
	for _, c := range cases {
		fds, err := netx.OpenFDCount()
		if err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		t.Run(c.name, c.run) // its cleanups close everything it opened
		waitFor(t, c.name+": descriptors and goroutines back at baseline", func() bool {
			n, _ := netx.OpenFDCount()
			return n <= fds && runtime.NumGoroutine() <= goroutines
		})
	}
}

// selfPublisher connects an MQTT user through the Edge that is subscribed
// to its own topic; the function returned publishes to it at QoS 1 and
// waits for the delivery.
func selfPublisher(t *testing.T, tp *topology, id string) (roundTrip func()) {
	t.Helper()
	c := dialMQTT(t, tp, id)
	if err := c.Subscribe(5*time.Second, "self/"+id); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	return func() {
		t.Helper()
		if err := c.Publish("self/"+id, payload, 1, 2*time.Second); err != nil {
			t.Fatalf("%s: publish: %v", id, err)
		}
		select {
		case <-c.Messages():
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: its publish was not delivered", id)
		}
	}
}

// TestSlowSinkDoesNotStallTheSession: the tunnel's reader writes a relayed
// stream's DATA to its user's socket itself, and a wake must never wait.
// One MQTT user stops reading until its socket is full and a window is
// queued behind it. A second user's publishes to itself, through the same
// tunnel session and broker, and an HTTP GET go on completing while that
// builds up and after: neither the tunnel nor the broker's fan-out waits
// for the stalled user. The stalled stream costs its session a window and
// a chunk of memory at most, and nothing once its user is gone.
func TestSlowSinkDoesNotStallTheSession(t *testing.T) {
	tp := startTopology(t, 1, 1)
	roundTrip := selfPublisher(t, tp, "neighbour")
	get := func() {
		t.Helper()
		if resp := doRequest(t, tp.edge.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0)); resp.StatusCode != 200 {
			t.Fatalf("GET beside a stalled user: status %d", resp.StatusCode)
		}
	}
	resident := func() int64 { return tp.edge.Metrics().GaugeValue("h2t.recv.resident_bytes") }

	// Publishes far smaller than a read of the tunnel: the Edge's reader
	// finds nothing queued and writes them itself, so it is the reader's
	// write that finds the user's socket full.
	user, published := tp.deafUser(t, 300)
	stalls := func() int64 { return tp.origins[0].Metrics().CounterValue("h2t.window.stalls") }
	for stalls() == 0 { // while the user's socket and the window fill up
		roundTrip()
		get()
	}
	settled(t, "the broker's write to park", published)
	if n := tp.edge.Metrics().CounterValue("h2t.sink.buffered_bytes"); n == 0 {
		t.Fatal("a user that reads nothing had no byte queued for it")
	}
	for i := 0; i < 50; i++ {
		roundTrip()
		get()
	}
	if held := resident(); held == 0 || held > 256<<10+bufpool.TierLarge {
		t.Fatalf("the stalled stream holds %d bytes of chunks, want at most a window and a chunk", held)
	}
	user.Close()
	waitFor(t, "the chunks of the stalled stream to go back", func() bool { return resident() == 0 })
	roundTrip()
	tp.edge.mu.Lock()
	defer tp.edge.mu.Unlock()
	if n := len(tp.edge.tunnels); n != 1 {
		t.Fatalf("the edge has %d tunnel sessions, want the one all of this shared", n)
	}
}

// TestSinkCountsDirectAndBuffered: h2t.sink.direct_bytes and
// h2t.sink.buffered_bytes say which way a relayed stream's DATA reached its
// socket. Once a user's handshake is over — its first packets can reach a
// proxy before the pump that will wait for them is parked — a steady
// publish loop is written by the tunnels' readers to the last byte, at the
// Origin on the way up and at the Edge on the way down; a user that stops
// reading moves its bytes to the queue.
func TestSinkCountsDirectAndBuffered(t *testing.T) {
	tp, counts := startTopology(t, 0, 1), func(p *Proxy) (direct, buffered int64) {
		return p.Metrics().CounterValue("h2t.sink.direct_bytes"), p.Metrics().CounterValue("h2t.sink.buffered_bytes")
	}
	roundTrip := selfPublisher(t, tp, "steady")
	roundTrip()
	for _, p := range []*Proxy{tp.origins[0], tp.edge} {
		direct, buffered := counts(p)
		for i := 0; i < 200; i++ {
			roundTrip()
		}
		if d, b := counts(p); d-direct < 200*128 || b != buffered {
			t.Errorf("%s: 200 publishes moved %d bytes direct and %d through the queue, want all of them direct", p.cfg.Name, d-direct, b-buffered)
		}
	}
	_, buffered := counts(tp.edge)
	tp.deafUser(t, 32<<10)
	waitFor(t, "a stalled user's bytes to be queued", func() bool { _, b := counts(tp.edge); return b > buffered })
}

// TestDCRSpliceKeepsByteOrder: a user publishes to itself as fast as a
// window of sixteen lets it while the Origin carrying it drains and the
// Edge splices it onto the other one. What the user reads is whole MQTT
// packets whose sequence numbers only rise: the old stream's reader has
// written its last byte to the user's connection before the new stream's
// writes its first, so no packet is torn by another and none of the old
// generation comes behind one of the new. The numbers are not contiguous:
// what is in flight when the broker moves the session — up the old path to
// a transport the broker has closed, down it into a stream that is reset —
// is lost, here as before this test existed (the whole window in two runs
// of three, either side of the change that brought the test).
func TestDCRSpliceKeepsByteOrder(t *testing.T) {
	tp := startTopology(t, 0, 2)
	user := rawMQTT(t, tp.edge.Addr(VIPMQTT), "runner", "self/runner")
	user.SetReadDeadline(time.Now().Add(20 * time.Second))

	// The writer holds a credit for every packet it may have in flight;
	// the reader returns one with every packet it reads, and one for every
	// packet a gap shows to be lost.
	const window = 16
	credits := make(chan struct{}, 2*window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		pkt := &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "self/runner", Payload: make([]byte, 64)}
		stalled := time.NewTimer(time.Hour)
		for seq := uint64(1); ; seq++ {
			// A window that nothing comes back from was lost whole.
			stalled.Reset(50 * time.Millisecond)
			select {
			case <-credits:
			case <-stalled.C:
			case <-stop:
				return
			}
			binary.BigEndian.PutUint64(pkt.Payload, seq)
			if mqtt.Encode(user, pkt) != nil {
				return
			}
		}
	}()

	acks := func() int64 { return tp.edge.Metrics().CounterValue("edge.mqtt.reconnect.ack") }
	br := bufio.NewReader(user)
	var seen, drainedAt, lost int64 // seen: the highest sequence number read
	for drained := false; ; {
		p, err := mqtt.Decode(br)
		if err != nil {
			t.Fatalf("after packet %d: the stream no longer parses: %v", seen, err)
		}
		if p.Type != mqtt.PUBLISH || len(p.Payload) != 64 {
			t.Fatalf("after packet %d: read %+v", seen, p)
		}
		seq := int64(binary.BigEndian.Uint64(p.Payload))
		if seq <= seen {
			t.Fatalf("packet %d came behind packet %d", seq, seen)
		}
		lost += seq - seen - 1
		for ; seen < seq; seen++ {
			select {
			case credits <- struct{}{}:
			default: // the writer gave them up for lost before the gap showed
			}
		}
		switch {
		case !drained && seq >= 500:
			drained, drainedAt = true, seq
			for _, o := range tp.origins {
				if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
					o.StartDraining()
				}
			}
		case drained && acks() > 0 && seq >= drainedAt+1000:
			t.Logf("%d packets read, %d lost at the swap", seq-lost, lost)
			return
		}
	}
}

// TestIdleRelayedUserHoldsNoRelayBuffer is the paper's idle tier (§4.2):
// MQTT users are carried through Edge and Origin for hours, mostly silent,
// so what a silent one holds at each hop is the steady-state price. Four
// hundred users subscribe through one Edge and one Origin and fall silent;
// each is sent one publish and falls silent again. Both times no receive
// buffer holds a chunk, the heap and stacks of the whole process — both
// proxies, the broker and the test's own clients — are at most 32 KB a
// user, and a user keeps at most three goroutines: the reader of its
// connection at the Edge, of its broker connection at the Origin and of
// its session at the broker, each waiting for its next message with no
// buffer of its own. The other way no goroutine waits: the tunnels'
// readers write it (h2t.Stream.Sink). What is left is goroutines and
// connection state.
func TestIdleRelayedUserHoldsNoRelayBuffer(t *testing.T) {
	racetest.SkipAllocs(t)
	const users, perUser, goroutinesPerUser = 400, 32 << 10, 3
	tp := startTopology(t, 0, 1)
	before, goroutines := inUse(), runtime.NumGoroutine()
	idle := func(when string) {
		t.Helper()
		for _, p := range []*Proxy{tp.edge, tp.origins[0]} {
			p := p
			waitFor(t, p.cfg.Name+" to hold no chunk "+when, func() bool {
				return p.Metrics().GaugeValue("h2t.recv.resident_bytes") == 0
			})
		}
		// The tunnel session's few goroutines are shared: they do not make a
		// user's count the next whole number.
		held, g := (inUse()-before)/users, runtime.NumGoroutine()-goroutines
		if held > perUser {
			t.Fatalf("%s an idle user holds %d KB of heap and stack, want at most %d", when, held>>10, perUser>>10)
		}
		if g/users > goroutinesPerUser {
			t.Fatalf("%s an idle user keeps %.2f goroutines, want at most %d", when, float64(g)/users, goroutinesPerUser)
		}
		t.Logf("%s: %d KB of heap and stack and %.2f goroutines per idle user", when, held>>10, float64(g)/users)
	}
	conns := make([]net.Conn, users)
	for i := range conns {
		conns[i] = rawMQTT(t, tp.edge.Addr(VIPMQTT), fmt.Sprintf("idle-%d", i), fmt.Sprintf("notif/idle-%d", i))
	}
	idle("after subscribing")
	for i, c := range conns {
		if n := tp.broker.Publish(fmt.Sprintf("notif/idle-%d", i), []byte("wake")); n != 1 {
			t.Fatalf("user %d: publish delivered to %d sessions", i, n)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if p, err := mqtt.Decode(c); err != nil || p.Type != mqtt.PUBLISH || string(p.Payload) != "wake" {
			t.Fatalf("user %d: %+v, %v", i, p, err)
		}
	}
	idle("after a publish each")
}
