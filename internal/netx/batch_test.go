package netx

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"zdr/internal/metrics"
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
	sender := NewSendRing(a, BatchConfig{})
	receiver := NewRecvRing(b, BatchConfig{})
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
	if st.sendPkts != pkts {
		t.Errorf("send pkts = %d, want %d", st.sendPkts, pkts)
	}
	if st.sendFlushes >= pkts/2 {
		t.Errorf("sendmmsg flushes = %d for %d packets — no coalescing", st.sendFlushes, pkts)
	}
}

func TestBatchBurstSyscallReduction(t *testing.T) {
	a, b := udpPair(t)
	receiver := NewRecvRing(b, BatchConfig{})
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
	if st.recvCalls > burst/4 {
		t.Errorf("%d recvmmsg calls for a %d-packet burst — want >=4x reduction (<=%d)", st.recvCalls, burst, burst/4)
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
	sender := NewSendRing(wa, BatchConfig{})
	receiver := NewRecvRing(wb, BatchConfig{})
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
	receiver := NewRecvRing(b, BatchConfig{})
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
	sender := NewSendRing(a, BatchConfig{DisableKernelBatch: true})
	receiver := NewRecvRing(b, BatchConfig{DisableKernelBatch: true})
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
	if st := receiver.Stats(); st.recvCalls != 1 || st.recvPkts != 1 {
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
	echoIn, echoOut := NewRecvRing(b, BatchConfig{}), NewSendRing(b, BatchConfig{})
	peerIn, peerOut := NewRecvRing(a, BatchConfig{}), NewSendRing(a, BatchConfig{})
	defer echoIn.Release()
	defer echoOut.Release()
	defer peerIn.Release()
	defer peerOut.Release()
	dst := b.LocalAddr().(*net.UDPAddr)
	a.SetReadDeadline(time.Now().Add(10 * time.Second))
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload := []byte("ping")
	exchange := func() {
		if err := peerOut.QueueTo(payload, dst); err != nil {
			t.Fatal(err)
		}
		if err := peerOut.Flush(); err != nil {
			t.Fatal(err)
		}
		msgs, err := echoIn.ReadBatch()
		if err != nil || len(msgs) != 1 {
			t.Fatalf("echo side read %d messages: %v", len(msgs), err)
		}
		if err := echoOut.QueueTo(msgs[0].Buf, msgs[0].Addr); err != nil {
			t.Fatal(err)
		}
		if err := echoOut.Flush(); err != nil {
			t.Fatal(err)
		}
		if msgs, err = peerIn.ReadBatch(); err != nil || len(msgs) != 1 || string(msgs[0].Buf) != "ping" {
			t.Fatalf("peer side read %d messages: %v", len(msgs), err)
		}
	}
	exchange() // first sight of each peer fills the sockaddr caches
	if n := testing.AllocsPerRun(200, exchange); n != 0 {
		t.Fatalf("%v allocs per exchange (two ReadBatch, two QueueTo, two Flush), want 0", n)
	}
}

// TestRingAllocations: what a ring costs to build does not depend on how
// many slots it has — the slots are one slab, the sockaddr scratch another
// — and a default ring is under 192 KiB, where 64 pooled 64 KiB buffers
// wired one by one were 4 MiB and 130 allocations a direction.
func TestRingAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	a, _ := udpPair(t)
	cfg := BatchConfig{Registry: metrics.NewRegistry()}
	for name, build := range map[string]func(BatchConfig){
		"recv": func(cfg BatchConfig) { NewRecvRing(a, cfg).Release() },
		"send": func(cfg BatchConfig) { NewSendRing(a, cfg).Release() },
	} {
		allocs := testing.AllocsPerRun(20, func() { build(cfg) })
		big := cfg
		big.recvBatch, big.sendBatch = 1024, 1024
		if n := testing.AllocsPerRun(20, func() { build(big) }); n != allocs {
			t.Errorf("%s ring: %v allocations with 64 slots, %v with 1024", name, allocs, n)
		}
		// The ring, its RawConn and bound callback, mmsghdrs, iovecs, the two
		// slabs, the batch it hands out, and a string per counter name.
		if allocs > 12 {
			t.Errorf("%s ring: %v allocations, want <= 12", name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build(cfg)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 192<<10 {
			t.Errorf("%s ring: %d bytes, want <= 192 KiB", name, b)
		}
	}
}

// TestRingTruncatedDatagram: a datagram longer than a slot is counted and
// dropped — never delivered short — and the ring grows its slots, once,
// between two reads, so that the next one of that size arrives whole. A
// stream of small datagrams never grows the slab.
func TestRingTruncatedDatagram(t *testing.T) {
	for name, disable := range map[string]bool{"kernel": false, "fallback": true} {
		t.Run(name, func(t *testing.T) {
			a, b := udpPair(t)
			reg := metrics.NewRegistry()
			ring := NewRecvRing(b, BatchConfig{Registry: reg, Prefix: "t", DisableKernelBatch: disable})
			defer ring.Release()
			if ring.Batched() == disable {
				t.Fatalf("Batched() = %v", ring.Batched())
			}
			dst := b.LocalAddr()
			b.SetReadDeadline(time.Now().Add(5 * time.Second))
			send := func(p []byte) {
				t.Helper()
				if _, err := a.WriteTo(p, dst); err != nil {
					t.Fatal(err)
				}
			}
			// read returns the next n datagrams, copied out of the ring.
			read := func(n int) (got [][]byte) {
				t.Helper()
				for len(got) < n {
					msgs, err := ring.ReadBatch()
					if err != nil {
						t.Fatalf("after %d of %d datagrams: %v", len(got), n, err)
					}
					for _, m := range msgs {
						got = append(got, append([]byte(nil), m.Buf...))
					}
				}
				return got
			}

			slab := len(ring.slab)
			small := bytes.Repeat([]byte{'s'}, 64)
			for i := 0; i < 100; i++ {
				send(small)
			}
			for _, p := range read(100) {
				if !bytes.Equal(p, small) {
					t.Fatalf("small datagram arrived as %d bytes", len(p))
				}
			}
			if len(ring.slab) != slab || reg.CounterValue("t.truncated") != 0 {
				t.Fatalf("64-byte datagrams moved the slab from %d to %d bytes, truncated = %d",
					slab, len(ring.slab), reg.CounterValue("t.truncated"))
			}

			long := make([]byte, 3000)
			for i := range long {
				long[i] = byte(i)
			}
			send(long)
			send(small)
			if got := read(1); !bytes.Equal(got[0], small) {
				t.Fatalf("a %d-byte datagram was delivered as %d bytes by a ring of %d-byte slots", len(long), len(got[0]), ringSlot)
			}
			if n := reg.CounterValue("t.truncated"); n != 1 {
				t.Fatalf("truncated = %d, want 1", n)
			}
			send(long)
			if got := read(1); !bytes.Equal(got[0], long) {
				t.Fatalf("the second %d-byte datagram arrived as %d bytes", len(long), len(got[0]))
			}
			if n := reg.CounterValue("t.truncated"); n != 1 || ring.slot != 4096 {
				t.Fatalf("truncated = %d, slots of %d bytes; want 1 and 4096", n, ring.slot)
			}
		})
	}
}

// TestQueueToKeepsOrder: a datagram too long for a slot is written
// through, but behind what was queued before it.
func TestQueueToKeepsOrder(t *testing.T) {
	a, b := udpPair(t)
	sender := NewSendRing(a, BatchConfig{})
	defer sender.Release()
	dst := b.LocalAddr()
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three"), bytes.Repeat([]byte{'4'}, 3000), []byte("five")}
	for _, p := range want {
		if err := sender.QueueTo(p, dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for i, p := range want {
		n, _, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], p) {
			t.Fatalf("datagram %d is %.8q (%d bytes), want %.8q (%d bytes)", i+1, buf[:n], n, p, len(p))
		}
	}
}
