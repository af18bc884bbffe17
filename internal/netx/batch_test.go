package netx

import (
	"fmt"
	"net"
	"testing"
	"time"

	"zdr/internal/racetest"
)

func udpPair(t testing.TB) (*net.UDPConn, *net.UDPConn) {
	t.Helper()
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestBatchRoundTrip(t *testing.T) {
	a, b := udpPair(t)
	sender := NewBatchPacketConn(a, BatchConfig{})
	receiver := NewBatchPacketConn(b, BatchConfig{})
	defer sender.Release()
	defer receiver.Release()
	if !sender.Batched() || !receiver.Batched() {
		t.Fatal("kernel batching should engage on bare *net.UDPConn")
	}

	const pkts = 50
	dst := b.LocalAddr().(*net.UDPAddr)
	for i := 0; i < pkts; i++ {
		if err := sender.QueueTo([]byte(fmt.Sprintf("pkt-%03d", i)), dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}

	got := map[string]bool{}
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(got) < pkts {
		msgs, err := receiver.ReadBatch()
		if err != nil {
			t.Fatalf("received %d/%d then: %v", len(got), pkts, err)
		}
		for _, m := range msgs {
			got[string(m.Buf)] = true
			ua, ok := m.Addr.(*net.UDPAddr)
			if !ok || ua.Port != a.LocalAddr().(*net.UDPAddr).Port {
				t.Fatalf("bad source addr %v", m.Addr)
			}
		}
	}
	for i := 0; i < pkts; i++ {
		if !got[fmt.Sprintf("pkt-%03d", i)] {
			t.Fatalf("missing packet %d", i)
		}
	}
	st := sender.Stats()
	if st.SendPkts != pkts {
		t.Errorf("send pkts = %d, want %d", st.SendPkts, pkts)
	}
	if st.SendFlushes >= pkts/2 {
		t.Errorf("sendmmsg flushes = %d for %d packets — no coalescing", st.SendFlushes, pkts)
	}
}

func TestBatchBurstSyscallReduction(t *testing.T) {
	a, b := udpPair(t)
	receiver := NewBatchPacketConn(b, BatchConfig{})
	defer receiver.Release()

	// Land the full burst in the socket buffer before the first read, so
	// the packets-per-recvmmsg ratio is deterministic.
	const burst = 64
	dst := b.LocalAddr()
	for i := 0; i < burst; i++ {
		if _, err := a.WriteTo([]byte(fmt.Sprintf("burst-%02d", i)), dst); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the kernel queue them

	total := 0
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	for total < burst {
		msgs, err := receiver.ReadBatch()
		if err != nil {
			t.Fatalf("received %d/%d then: %v", total, burst, err)
		}
		total += len(msgs)
	}
	st := receiver.Stats()
	if st.RecvCalls > burst/4 {
		t.Errorf("%d recvmmsg calls for a %d-packet burst — want >=4x reduction (<=%d)", st.RecvCalls, burst, burst/4)
	}
}

// opaquePacketConn hides the raw descriptor, like a fault-injection
// wrapper does.
type opaquePacketConn struct {
	net.PacketConn
	reads, writes int
}

func (o *opaquePacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	o.reads++
	return o.PacketConn.ReadFrom(p)
}

func (o *opaquePacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	o.writes++
	return o.PacketConn.WriteTo(p, addr)
}

func TestBatchFallbackKeepsWrapperVisible(t *testing.T) {
	a, b := udpPair(t)
	wa := &opaquePacketConn{PacketConn: a}
	wb := &opaquePacketConn{PacketConn: b}
	sender := NewBatchPacketConn(wa, BatchConfig{})
	receiver := NewBatchPacketConn(wb, BatchConfig{})
	defer sender.Release()
	defer receiver.Release()
	if sender.Batched() || receiver.Batched() {
		t.Fatal("wrapped conns must not take the kernel batch path")
	}

	const pkts = 10
	dst := b.LocalAddr()
	for i := 0; i < pkts; i++ {
		if err := sender.QueueTo([]byte("x"), dst); err != nil {
			t.Fatal(err)
		}
	}
	sender.Flush()
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got := 0; got < pkts; {
		msgs, err := receiver.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		got += len(msgs)
	}
	if wa.writes != pkts || wb.reads != pkts {
		t.Errorf("wrapper saw %d writes / %d reads, want %d/%d — fallback must pass every datagram through the wrapper",
			wa.writes, wb.reads, pkts, pkts)
	}
}

func TestBatchReadHonorsDeadline(t *testing.T) {
	_, b := udpPair(t)
	receiver := NewBatchPacketConn(b, BatchConfig{})
	defer receiver.Release()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := receiver.ReadBatch()
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout net.Error (the drain-poison contract), got %v", err)
	}
}

func TestBatchDisableKernelBatch(t *testing.T) {
	a, b := udpPair(t)
	sender := NewBatchPacketConn(a, BatchConfig{DisableKernelBatch: true})
	receiver := NewBatchPacketConn(b, BatchConfig{DisableKernelBatch: true})
	defer sender.Release()
	defer receiver.Release()
	if sender.Batched() || receiver.Batched() {
		t.Fatal("DisableKernelBatch must force the fallback path")
	}
	if err := sender.QueueTo([]byte("hello"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	msgs, err := receiver.ReadBatch()
	if err != nil || len(msgs) != 1 || string(msgs[0].Buf) != "hello" {
		t.Fatalf("msgs=%v err=%v", msgs, err)
	}
	if st := receiver.Stats(); st.RecvCalls != 1 || st.RecvPkts != 1 {
		t.Errorf("fallback stats %+v, want 1 call / 1 pkt", st)
	}
}

// TestBatchExchangeAllocatesNothing: one datagram through both rings of a
// real loopback socket pair — ReadBatch, QueueTo the sender back, Flush —
// costs no allocation: the RawConn callbacks are bound once and their
// results live in the conn.
func TestBatchExchangeAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	a, b := udpPair(t)
	echo := NewBatchPacketConn(b, BatchConfig{})
	peer := NewBatchPacketConn(a, BatchConfig{})
	defer echo.Release()
	defer peer.Release()
	dst := b.LocalAddr().(*net.UDPAddr)
	a.SetReadDeadline(time.Now().Add(10 * time.Second))
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload := []byte("ping")
	exchange := func() {
		if err := peer.QueueTo(payload, dst); err != nil {
			t.Fatal(err)
		}
		if err := peer.Flush(); err != nil {
			t.Fatal(err)
		}
		msgs, err := echo.ReadBatch()
		if err != nil || len(msgs) != 1 {
			t.Fatalf("echo side read %d messages: %v", len(msgs), err)
		}
		if err := echo.QueueTo(msgs[0].Buf, msgs[0].Addr); err != nil {
			t.Fatal(err)
		}
		if err := echo.Flush(); err != nil {
			t.Fatal(err)
		}
		if msgs, err = peer.ReadBatch(); err != nil || len(msgs) != 1 || string(msgs[0].Buf) != "ping" {
			t.Fatalf("peer side read %d messages: %v", len(msgs), err)
		}
	}
	exchange() // first sight of each peer fills the sockaddr caches
	if n := testing.AllocsPerRun(200, exchange); n != 0 {
		t.Fatalf("%v allocs per exchange (two ReadBatch, two QueueTo, two Flush), want 0", n)
	}
}
