package proxy

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/mqtt"
	"zdr/internal/netx"
)

// TestCloseDoesNotWaitForSilentConns: a generation owns each connection
// from its accept on, before anything has been read from it, so Close
// closes a client that has said nothing instead of waiting for its
// handler's first read to time out — an MQTT user that has not sent its
// CONNECT, a health probe that has not sent its line — and a LOAD that
// arrives once Close has begun finds its connection closed rather than
// starting a probe channel Close would wait for. Close returns at once,
// and the process is back at its descriptors and goroutines.
func TestCloseDoesNotWaitForSilentConns(t *testing.T) {
	cases := []struct {
		name, vip string
		// closing, when set, is what the client does once Close has begun.
		closing func(net.Conn)
	}{
		{"an MQTT user before its CONNECT", VIPMQTT, nil},
		{"a silent health probe", VIPHealth, nil},
		{"a LOAD once Close has begun", VIPHealth, func(c net.Conn) { fmt.Fprint(c, "LOAD\n") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fds, err := netx.OpenFDCount()
			if err != nil {
				t.Skip(err)
			}
			goroutines := runtime.NumGoroutine()
			ledger := disrupt.New("edge-silent", 0)
			p := New(Config{Name: "edge-silent", Role: RoleEdge, Ledger: ledger}, nil)
			if err := p.Listen(); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", p.Addr(c.vip))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			waitFor(t, "the connection to be accepted", func() bool { return ledger.Report().ByKind["accept"] == 1 })

			t0 := time.Now()
			closed := make(chan struct{})
			go func() { p.Close(); close(closed) }()
			if c.closing != nil {
				time.Sleep(10 * time.Millisecond)
				c.closing(conn)
			}
			select {
			case <-closed:
			case <-time.After(3 * time.Second):
				t.Fatal("Close() is waiting for a client that has said nothing")
			}
			if took := time.Since(t0); took > 500*time.Millisecond {
				t.Fatalf("Close() took %v with a silent client connected, want < 500ms", took)
			}
			conn.Close()
			waitFor(t, "descriptors and goroutines back at baseline", func() bool {
				n, _ := netx.OpenFDCount()
				return n <= fds && runtime.NumGoroutine() <= goroutines
			})
		})
	}
}

// TestCloseDoesNotWaitForAStalledTunnel: an Origin that stops reading its
// tunnel leaves the Edge's writer to it parked in the socket's write, with
// the session's write lock held — here a relayed user's publishes, which
// an Origin that never answers holds to no window. Resetting that user's
// stream would queue behind the parked write, so Close ends the tunnel
// first, which frees it, and returns at once.
func TestCloseDoesNotWaitForAStalledTunnel(t *testing.T) {
	fds, err := netx.OpenFDCount()
	if err != nil {
		t.Skip(err)
	}
	goroutines := runtime.NumGoroutine()
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	tunnel := make(chan net.Conn, 1)
	go func() {
		if c, err := origin.Accept(); err == nil {
			c.(*net.TCPConn).SetReadBuffer(4 << 10)
			tunnel <- c // and never read
		}
	}()
	p := New(Config{Name: "edge-stalled", Role: RoleEdge, Origins: []string{origin.Addr().String()}}, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	user, err := net.Dial("tcp", p.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	mqtt.Encode(user, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: "flooder", CleanSession: true})
	var tc net.Conn
	select {
	case tc = <-tunnel:
	case <-time.After(5 * time.Second):
		t.Fatal("the edge never dialed its origin")
	}
	defer tc.Close()
	var sent atomic.Int64
	go func() {
		payload := make([]byte, 32<<10)
		for mqtt.Encode(user, &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "flood", Payload: payload}) == nil {
			sent.Add(1)
		}
	}()
	settled(t, "the user's write to park behind the tunnel's", &sent)

	within(t, "Edge.Close", p.Close)
	user.Close()
	tc.Close()
	origin.Close()
	waitFor(t, "descriptors and goroutines back at baseline", func() bool {
		n, _ := netx.OpenFDCount()
		return n <= fds && runtime.NumGoroutine() <= goroutines
	})
}
