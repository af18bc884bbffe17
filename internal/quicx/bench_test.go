package quicx

import (
	"bytes"
	"net"
	"testing"
	"time"

	"zdr/internal/netx"
	"zdr/internal/racetest"
)

// sinkPacketConn swallows writes; reads are never issued by the benches.
type sinkPacketConn struct{}

func (sinkPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {} // the benchmarks never start the read loop
}
func (sinkPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) { return len(p), nil }
func (sinkPacketConn) Close() error                                 { return nil }
func (sinkPacketConn) LocalAddr() net.Addr                          { return &net.UDPAddr{} }
func (sinkPacketConn) SetDeadline(t time.Time) error                { return nil }
func (sinkPacketConn) SetReadDeadline(t time.Time) error            { return nil }
func (sinkPacketConn) SetWriteDeadline(t time.Time) error           { return nil }

// handleData is BenchmarkHandleData's operation, the per-datagram hot
// path: parse, flow-table lookup, handler, reply marshal + send, for a
// known flow's 1 KiB data packet.
func handleData(tb testing.TB) func() {
	srv := NewServer("bench", sinkPacketConn{}, func(conn ConnID, payload []byte) []byte {
		return payload
	}, nil)
	tb.Cleanup(srv.Close)
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	out := srv.sender()
	srv.handlePacket(out, marshal(Packet{Type: PktInitial, Conn: 7}), from)
	if srv.FlowCount() != 1 {
		tb.Fatal("flow not opened")
	}
	data := marshal(Packet{Type: PktData, Conn: 7, Payload: make([]byte, 1024)})
	return func() { srv.handlePacket(out, data, from) }
}

// serverEcho is BenchmarkServerEcho's operation: a client's 256 B data
// packet echoed by a server on loopback, as the client waits for it.
func serverEcho(tb testing.TB) func() {
	vip, err := netx.ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer("bench", vip, echoHandler, nil)
	srv.Start()
	tb.Cleanup(srv.Close)
	c, err := Dial(vip.LocalAddr().String(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	if _, err := c.Open(nil, 2*time.Second); err != nil {
		tb.Fatal(err)
	}
	payload := bytes.Repeat([]byte("q"), 256)
	return func() {
		if _, err := c.Send(payload, 2*time.Second); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkHandleData(b *testing.B) {
	handle := handleData(b)
	b.SetBytes(headerLen + 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle()
	}
}

func BenchmarkServerEcho(b *testing.B) {
	echo := serverEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo()
	}
}

// TestBenchmarkAllocations bounds what the benchmarks above time: a known
// flow's data packet handled allocates nothing, and an echo on loopback,
// the client's side and the server's read loop counted, at most 19.
func TestBenchmarkAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(1000, handleData(t)); n != 0 {
		t.Errorf("known flow's 1 KiB data packet: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, serverEcho(t)); n > 19 {
		t.Errorf("256 B echo through a server on loopback: %v allocs, want <= 19", n)
	} else {
		t.Logf("256 B echo through a server on loopback: %v allocs", n)
	}
}
