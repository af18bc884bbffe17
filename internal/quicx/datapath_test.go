package quicx

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"zdr/internal/racetest"
)

// staticReply is a handler that, like proxy's, answers from a slice built
// once; reply copies it before the call returns.
func staticReply(reply []byte) Handler {
	return func(ConnID, []byte) []byte { return reply }
}

// TestPacketPathAllocatesNothing: the three per-datagram paths on real
// loopback sockets — a known flow's data packet answered, an unknown
// flow's packet forwarded to the draining instance (every packet, for the
// whole of a release), and the draining instance's unwrap + handle.
func TestPacketPathAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() // never read: replies past its buffer are dropped by the kernel
	from := client.LocalAddr().(*net.UDPAddr)

	old := NewServer("old", newVIP(t), staticReply([]byte("old|pong")), nil)
	defer old.Close()
	fwdAddr, err := old.PrepareDrain()
	if err != nil {
		t.Fatal(err)
	}
	next := NewServer("new", newVIP(t), staticReply([]byte("new|pong")), nil)
	defer next.Close()
	next.SetForward(fwdAddr)

	// Flow 1 lives on the new instance, flow 2 on the old one.
	out := next.sender()
	next.handlePacket(out, Marshal(Packet{Type: PktInitial, Conn: 1}), from)
	oldOut := old.sender()
	old.handlePacket(oldOut, Marshal(Packet{Type: PktInitial, Conn: 2}), from)

	known := Marshal(Packet{Type: PktData, Conn: 1, Payload: []byte("/ping")})
	if n := testing.AllocsPerRun(500, func() { next.handlePacket(out, known, from) }); n != 0 {
		t.Errorf("known-flow data packet: %v allocs, want 0", n)
	}
	if got := next.reg.CounterValue("quicx.tx"); got < 500 {
		t.Fatalf("only %d replies queued", got)
	}

	unknown := Marshal(Packet{Type: PktData, Conn: 2, Payload: []byte("/ping")})
	if n := testing.AllocsPerRun(500, func() { next.handlePacket(out, unknown, from) }); n != 0 {
		t.Errorf("unknown-flow packet forwarded: %v allocs, want 0", n)
	}
	if got, mis := next.reg.CounterValue("quicx.forwarded"), next.reg.CounterValue("quicx.misrouted"); got < 500 || mis != 0 {
		t.Fatalf("forwarded %d, misrouted %d", got, mis)
	}

	ap, _ := addrPortOf(from)
	wrapped := appendForwarded(nil, unknown, ap)
	peers := forwardedPeers{}
	drainSide := func() {
		inner, origFrom, err := peers.unwrap(wrapped)
		if err != nil {
			t.Fatal(err)
		}
		old.handlePacket(oldOut, inner, origFrom)
	}
	drainSide() // first sight of the client decodes its address
	tx := old.reg.CounterValue("quicx.tx")
	if n := testing.AllocsPerRun(500, drainSide); n != 0 {
		t.Errorf("forward loop's unwrap + handle: %v allocs, want 0", n)
	}
	if got := old.reg.CounterValue("quicx.tx") - tx; got < 500 {
		t.Fatalf("draining instance answered %d of 500 forwarded packets", got)
	}
}

func TestSameAddr(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 443}
	mapped := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To16(), Port: 443}
	for _, tc := range []struct {
		name string
		a, b net.Addr
		want bool
	}{
		{"one pointer", v4, v4, true},
		{"equal values, two pointers", v4, &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 443}, true},
		{"IPv4 and IPv4-mapped IPv6", v4, mapped, true},
		{"new port", v4, &net.UDPAddr{IP: v4.IP, Port: 444}, false},
		{"new host", v4, &net.UDPAddr{IP: net.IPv4(10, 1, 2, 4), Port: 443}, false},
		{"new zone", &net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 1, Zone: "eth0"}, &net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 1, Zone: "eth1"}, false},
		{"not UDP, equal text", &net.UnixAddr{Name: "x", Net: "unixgram"}, &net.UnixAddr{Name: "x", Net: "unixgram"}, true},
	} {
		if got := sameAddr(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: sameAddr(%v, %v) = %v", tc.name, tc.a, tc.b, got)
		}
	}
}

// flowAddr is the address conn's flow state currently holds.
func (s *Server) flowAddr(conn ConnID) net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flows[conn]
}

// TestSamePeerNewPointerIsNotAMigration: the receive ring hands one
// *net.UDPAddr per peer until its sockaddr cache starts over; a known
// client then arrives under a new pointer with the same IP:port, which
// must be recognised by value — not rewritten into the flow table as a
// NAT rebind — while a packet from a genuinely new port still moves the
// flow.
func TestSamePeerNewPointerIsNotAMigration(t *testing.T) {
	vip := newVIP(t)
	srv := NewServer("s", vip, echoHandler, nil)
	srv.Start()
	defer srv.Close()
	target := vip.LocalAddr().String()

	c, err := Dial(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open([]byte("hi"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	stored := srv.flowAddr(1)

	// More distinct peers than the ring's sockaddr cache holds (1024), a
	// few at a time so none is dropped from the socket buffer.
	for i := 0; i < 1100; i++ {
		other, err := net.Dial("udp", target)
		if err != nil {
			t.Fatal(err)
		}
		other.Write(Marshal(Packet{Type: PktClose, Conn: ConnID(1000 + i)}))
		other.Close()
		for deadline := time.Now().Add(2 * time.Second); i%32 == 31 && srv.reg.CounterValue("quicx.rx") < int64(i+2); {
			if time.Now().After(deadline) {
				t.Fatalf("server saw %d of %d packets", srv.reg.CounterValue("quicx.rx"), i+2)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := c.Send([]byte("again"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := srv.flowAddr(1); got != stored {
		t.Fatalf("flow's address was rewritten (%p → %p) for a peer that did not move", stored, got)
	}
	// The same socket opening a second flow shows the pointer it now
	// arrives under: a different one, naming the same endpoint.
	c2 := &Client{conn: c.conn, id: 2}
	if _, err := c2.Open([]byte("hi"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if now := srv.flowAddr(2); now == stored || !sameAddr(now, stored) {
		t.Fatalf("the cache did not start over: flow 2 holds %p %v, flow 1 %p %v", now, now, stored, stored)
	}

	// A real rebind: the flow's next packet comes from another port.
	moved, err := Dial(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer moved.conn.Close()
	if _, err := moved.Send([]byte("moved"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := srv.flowAddr(1); !sameAddr(got, moved.conn.LocalAddr()) {
		t.Fatalf("flow's address is %v after a rebind to %v", got, moved.conn.LocalAddr())
	}
}

// FuzzPacket feeds hostile bytes to the two parsers on the packet loop —
// Unmarshal and the forwarded-packet unwrap — and checks each against its
// encoder: what parses must re-encode to something that parses to the same
// value, and an encapsulation built from the bytes must come back intact.
func FuzzPacket(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(Packet{Type: PktData, Conn: 7, Payload: []byte("x")}))
	f.Add(appendForwarded(nil, []byte("inner"), netip.MustParseAddrPort("127.0.0.1:4433")))
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := Unmarshal(b); err == nil {
			if again := AppendPacket(nil, p); !bytes.Equal(again, b) {
				t.Fatalf("Unmarshal → AppendPacket changed the packet: %x → %x", b, again)
			}
		}

		peers := forwardedPeers{}
		if raw, from, err := peers.unwrap(b); err == nil {
			ap, ok := addrPortOf(from)
			if !ok {
				t.Fatalf("unwrap accepted %x but its address %v cannot be re-encoded", b, from)
			}
			raw2, from2, err := peers.unwrap(appendForwarded(nil, raw, ap))
			if err != nil || !bytes.Equal(raw2, raw) || !sameAddr(from2, from) {
				t.Fatalf("re-encoded %x: raw %x from %v err %v, want raw %x from %v", b, raw2, from2, err, raw, from)
			}
		}

		// The differential: 16 address bytes, 2 port bytes, the rest is
		// the inner packet.
		if len(b) < 18 {
			return
		}
		ap := netip.AddrPortFrom(netip.AddrFrom16([16]byte(b[:16])).Unmap(), uint16(b[16])<<8|uint16(b[17]))
		raw, from, err := forwardedPeers{}.unwrap(appendForwarded(nil, b[18:], ap))
		if err != nil {
			t.Fatalf("own encapsulation of %v refused: %v", ap, err)
		}
		if got, _ := addrPortOf(from); got != ap || !bytes.Equal(raw, b[18:]) {
			t.Fatalf("round trip of %v: got %v, raw %x want %x", ap, got, raw, b[18:])
		}
	})
}
