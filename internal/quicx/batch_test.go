package quicx

import (
	"fmt"
	"net"
	"testing"
	"time"

	"zdr/internal/metrics"
)

// TestBurstPacketsPerSyscall pins the batching win as exact counts: a
// 64-packet burst that is in the socket buffer before the reader starts
// is drained by ONE recvmmsg and answered by ONE sendmmsg flush. Nothing
// here depends on how the reader and the sender are scheduled against
// each other: the sends have returned before Start (loopback delivers a
// datagram to the receiving socket within the send call), and the
// counters are read behind StartDraining's fence, after the read loop —
// which counts a flush after the syscall it made — has exited.
func TestBurstPacketsPerSyscall(t *testing.T) {
	vip, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer("burst", vip, func(conn ConnID, payload []byte) []byte {
		return payload
	}, reg)
	defer srv.Close()

	client, err := net.Dial("udp", vip.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const burst = 64
	if _, err := client.Write(Marshal(Packet{Type: PktInitial, Conn: 7, Payload: []byte("open")})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < burst; i++ {
		if _, err := client.Write(Marshal(Packet{Type: PktData, Conn: 7, Payload: []byte(fmt.Sprintf("d%02d", i))})); err != nil {
			t.Fatal(err)
		}
	}

	srv.Start()
	client.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < burst; i++ {
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("reply %d of %d: %v (server saw %d packets)", i+1, burst, err, reg.CounterValue("quicx.rx"))
		}
	}
	if _, err := srv.StartDraining(); err != nil {
		t.Fatal(err)
	}

	if rx := reg.CounterValue("quicx.rx"); rx != burst {
		t.Fatalf("rx = %d, want %d", rx, burst)
	}
	if tx := reg.CounterValue("quicx.tx"); tx != burst {
		t.Fatalf("tx = %d, want %d replies", tx, burst)
	}
	if calls := reg.CounterValue("quicx.batch.recvmmsg_calls"); calls != 1 {
		t.Errorf("recvmmsg_calls = %d for a %d-packet burst queued before the first read, want 1", calls, burst)
	}
	if flushes := reg.CounterValue("quicx.batch.sendmmsg_flushes"); flushes != 1 {
		t.Errorf("sendmmsg_flushes = %d for %d replies to one drained burst, want 1", flushes, burst)
	}
	if ratio := reg.GaugeValue("quicx.batch.pkts_per_recvmmsg"); ratio != burst*1000 {
		t.Errorf("pkts_per_recvmmsg = %d milli-pkts/call, want %d", ratio, burst*1000)
	}
}

// TestDisableBatchOneSyscallPerPacket locks the before/after lever the
// throughput benchmark depends on: with batching disabled the server
// falls back to exactly one read syscall and one write syscall per
// packet.
func TestDisableBatchOneSyscallPerPacket(t *testing.T) {
	vip, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer("unbatched", vip, func(conn ConnID, payload []byte) []byte {
		return payload
	}, reg)
	srv.DisableBatch()
	defer srv.Close()
	srv.Start()

	client, err := Dial(vip.LocalAddr().String(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open([]byte("hi"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	const pkts = 16
	for i := 0; i < pkts; i++ {
		if _, err := client.Send([]byte("ping"), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rx := reg.CounterValue("quicx.rx")
	if calls := reg.CounterValue("quicx.batch.recvmmsg_calls"); calls != rx {
		t.Errorf("unbatched recv calls = %d for %d packets, want equal", calls, rx)
	}
	tx := reg.CounterValue("quicx.tx")
	if flushes := reg.CounterValue("quicx.batch.sendmmsg_flushes"); flushes != tx {
		t.Errorf("unbatched send flushes = %d for %d replies, want equal", flushes, tx)
	}
}
