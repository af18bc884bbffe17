package quicx

import (
	"net"
	"testing"
	"time"
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

// BenchmarkHandleData is the per-datagram hot path: parse, flow-table
// lookup, handler, reply marshal + send.
func BenchmarkHandleData(b *testing.B) {
	srv := NewServer("bench", sinkPacketConn{}, func(conn ConnID, payload []byte) []byte {
		return payload
	}, nil)
	defer srv.Close()
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	out := srv.sender()
	srv.handlePacket(out, Marshal(Packet{Type: PktInitial, Conn: 7}), from)
	if srv.FlowCount() != 1 {
		b.Fatal("flow not opened")
	}
	data := Marshal(Packet{Type: PktData, Conn: 7, Payload: make([]byte, 1024)})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handlePacket(out, data, from)
	}
}
