package proxy

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/mqtt"
	"zdr/internal/netx"
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

// TestTeardownNeverWaitsForAParkedWrite: the MQTT pumps that read by wakes
// write, under the read lock of the connection they read, to a stream
// whose window can run out. However such a relay is torn down — the
// Origin's relay ending, the Origin closing, the Edge closing the relay —
// the teardown frees the parked write instead of waiting behind it, and
// the process is back at its descriptors and goroutines afterwards.
func TestTeardownNeverWaitsForAParkedWrite(t *testing.T) {
	payload := make([]byte, 32<<10)

	// downstreamParked: a user behind the Edge subscribes and stops
	// reading while the broker publishes to it, until the Origin's
	// broker→stream pump is parked on the stream's window.
	downstreamParked := func(t *testing.T) (*topology, net.Conn) {
		tp := startTopology(t, 0, 1)
		user := rawMQTT(t, tp.edge.Addr(VIPMQTT), "deaf", "notif/deaf")
		var published atomic.Int64
		go func() {
			for tp.broker.Publish("notif/deaf", payload) == 1 {
				published.Add(1)
			}
		}()
		waitFor(t, "the origin's pump to run out of window", func() bool {
			return tp.origins[0].Metrics().CounterValue("h2t.window.stalls") > 0
		})
		settled(t, "the broker's write to park", &published)
		return tp, user
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"the origin closes", func(t *testing.T) {
			tp, _ := downstreamParked(t)
			within(t, "Origin.Close", tp.origins[0].Close)
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
			tp.edge.mu.Lock()
			var relay *mqttRelay
			for r := range tp.edge.mqttConns {
				relay = r
			}
			tp.edge.mu.Unlock()
			within(t, "mqttRelay.close", relay.close)
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
