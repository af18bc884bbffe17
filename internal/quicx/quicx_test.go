package quicx

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
	"time"

	"zdr/internal/netx"
)

func echoHandler(conn ConnID, payload []byte) []byte {
	return append([]byte("echo:"), payload...)
}

func TestMarshalRoundTrip(t *testing.T) {
	in := Packet{Type: PktData, Conn: 0xdeadbeef, Payload: []byte("payload")}
	out, err := Unmarshal(marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Conn != in.Conn || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("%+v != %+v", out, in)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("accepted short packet")
	}
}

func TestMarshalProperty(t *testing.T) {
	f := func(conn uint64, payload []byte) bool {
		p := Packet{Type: PktData, Conn: ConnID(conn), Payload: payload}
		got, err := Unmarshal(marshal(p))
		return err == nil && got.Conn == p.Conn && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardEncapsulation(t *testing.T) {
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 54321}
	raw := marshal(Packet{Type: PktData, Conn: 7, Payload: []byte("x")})
	ap, ok := addrPortOf(from)
	if !ok {
		t.Fatalf("addrPortOf(%v) failed", from)
	}
	wrapped := appendForwarded(nil, raw, ap)
	peers := forwardedPeers{}
	inner, addr, err := peers.unwrap(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, raw) || !sameAddr(addr, from) {
		t.Fatalf("inner=%v addr=%v", inner, addr)
	}
	if _, again, _ := peers.unwrap(wrapped); again != addr {
		t.Fatal("second packet from one client decoded to a different *net.UDPAddr")
	}
	if _, _, err := peers.unwrap(raw); err == nil {
		t.Fatal("accepted non-forwarded packet")
	}
	// A name where the address belongs is refused, never looked up.
	host := "localhost:443"
	named := append([]byte{byte(pktForwarded), 0, byte(len(host))}, host...)
	if _, _, err := peers.unwrap(append(named, raw...)); err == nil {
		t.Fatal("accepted a hostname as the forwarded client address")
	}
}

func newVIP(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := netx.ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestServerEcho(t *testing.T) {
	vip := newVIP(t)
	srv := NewServer("s1", vip, echoHandler, nil)
	srv.Start()
	defer srv.Close()

	c, err := Dial(vip.LocalAddr().String(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Open([]byte("hi"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hi" {
		t.Fatalf("reply = %q", reply)
	}
	reply, err = c.Send([]byte("more"), 2*time.Second)
	if err != nil || string(reply) != "echo:more" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
	if srv.FlowCount() != 1 {
		t.Fatalf("flows = %d", srv.FlowCount())
	}
}

func TestServerUnknownFlowCountsMisrouted(t *testing.T) {
	vip := newVIP(t)
	srv := NewServer("s1", vip, echoHandler, nil)
	srv.Start()
	defer srv.Close()

	c, err := Dial(vip.LocalAddr().String(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Data without Initial: server has no state → misrouted.
	if _, err := c.Send([]byte("orphan"), 200*time.Millisecond); err == nil {
		t.Fatal("expected timeout for unknown flow")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().CounterValue("quicx.misrouted") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("misroute never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFlowClose(t *testing.T) {
	vip := newVIP(t)
	srv := NewServer("s1", vip, echoHandler, nil)
	srv.Start()
	defer srv.Close()
	c, err := Dial(vip.LocalAddr().String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.FlowCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flow never closed; count=%d", srv.FlowCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTakeoverWithUserSpaceRouting is the §4.1 UDP scenario end to end:
// flows open on the old instance; the VIP socket is handed to a new
// instance; the new instance forwards old flows to the draining instance
// via the host-local socket; old flows keep working and new flows land on
// the new instance. Zero mis-routing.
func TestTakeoverWithUserSpaceRouting(t *testing.T) { takeoverWithUserSpaceRouting(t) }

// TestStartDrainingIsAFence runs the takeover fifty times over. Before
// StartDraining waited for the VIP read loop to exit, the old generation
// won the first datagram after the hand-off in most runs on a two-core
// machine, and the flow was served without ever crossing the forwarding
// path — the §4.1 mis-routing window, open for as long as the loop took
// to notice its deadline.
func TestStartDrainingIsAFence(t *testing.T) {
	for i := 0; i < 50; i++ {
		takeoverWithUserSpaceRouting(t)
	}
}

func takeoverWithUserSpaceRouting(t *testing.T) {
	t.Helper()
	vip := newVIP(t)
	oldSrv := NewServer("old", vip, func(c ConnID, p []byte) []byte {
		return append([]byte("old:"), p...)
	}, nil)
	oldSrv.Start()
	defer oldSrv.Close()

	// Client opens a flow on the old instance.
	c1, err := Dial(vip.LocalAddr().String(), 1001)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if reply, err := c1.Open([]byte("a"), 2*time.Second); err != nil || string(reply) != "old:a" {
		t.Fatalf("open: %q %v", reply, err)
	}

	// Socket Takeover: dup the FD (as the real hand-off does) and build
	// the new instance on it.
	fd, err := netx.PacketConnFD(vip)
	if err != nil {
		t.Fatal(err)
	}
	vip2, err := netx.PacketConnFromFD(fd, "vip-new")
	if err != nil {
		t.Fatal(err)
	}
	newSrv := NewServer("new", vip2, func(c ConnID, p []byte) []byte {
		return append([]byte("new:"), p...)
	}, nil)
	defer newSrv.Close()

	// Old drains: stops reading the VIP, listens on the forward socket.
	fwdAddr, err := oldSrv.StartDraining()
	if err != nil {
		t.Fatal(err)
	}
	oldSrv.mu.Lock()
	readers := oldSrv.mainLoops
	oldSrv.mu.Unlock()
	if readers != 0 {
		t.Fatalf("StartDraining returned with %d VIP read loops still running", readers)
	}
	newSrv.SetForward(fwdAddr)
	newSrv.Start()

	// The old flow must still be served by the OLD instance.
	ok := false
	for i := 0; i < 20; i++ {
		reply, err := c1.Send([]byte("b"), 500*time.Millisecond)
		if err == nil {
			if string(reply) != "old:b" {
				t.Fatalf("old flow answered by wrong instance: %q", reply)
			}
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("old flow never served during drain")
	}

	// A new flow must land on the NEW instance.
	c2, err := Dial(vip.LocalAddr().String(), 2002)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ok = false
	for i := 0; i < 20; i++ {
		reply, err := c2.Open([]byte("c"), 500*time.Millisecond)
		if err == nil {
			if string(reply) != "new:c" {
				t.Fatalf("new flow answered by wrong instance: %q", reply)
			}
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("new flow never served")
	}

	if got := newSrv.Metrics().CounterValue("quicx.misrouted"); got != 0 {
		t.Fatalf("new instance misrouted %d packets", got)
	}
	if got := oldSrv.Metrics().CounterValue("quicx.misrouted"); got != 0 {
		t.Fatalf("old instance misrouted %d packets", got)
	}
	if fwd := newSrv.Metrics().CounterValue("quicx.forwarded"); fwd == 0 {
		t.Fatal("forwarding path never used")
	}
}

func TestPrepareDrainIdempotent(t *testing.T) {
	vip := newVIP(t)
	srv := NewServer("s", vip, echoHandler, nil)
	defer srv.Close()
	a1, err := srv.PrepareDrain()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := srv.PrepareDrain()
	if err != nil || a1.String() != a2.String() {
		t.Fatalf("PrepareDrain not idempotent: %v %v (%v)", a1, a2, err)
	}
	// StartDraining must reuse the prepared socket.
	a3, err := srv.StartDraining()
	if err != nil || a3.String() != a1.String() {
		t.Fatalf("StartDraining returned %v, want %v (%v)", a3, a1, err)
	}
	// Draining twice is safe and stable.
	a4, err := srv.StartDraining()
	if err != nil || a4.String() != a1.String() {
		t.Fatalf("second StartDraining returned %v (%v)", a4, err)
	}
}
