package throughput

import "testing"

// The relay measurement is the acceptance evidence for the splice path:
// same topology, same byte count, syscall counts from the relay pump
// only. Splice must move the bytes in far fewer kernel crossings than
// the pooled copy (copy pays a read+write per 256K tier buffer; splice
// moves up to 1M per call pair and never crosses into userspace).
func TestRelaySpliceBeatsCopyOnSyscalls(t *testing.T) {
	const total = 32 << 20
	spliced, err := RunTCPRelay(total, true)
	if err != nil {
		t.Fatalf("splice run: %v", err)
	}
	copied, err := RunTCPRelay(total, false)
	if err != nil {
		t.Fatalf("copy run: %v", err)
	}
	if spliced.Bytes != total || copied.Bytes != total {
		t.Fatalf("byte counts: splice=%d copy=%d want %d", spliced.Bytes, copied.Bytes, total)
	}
	if spliced.Syscalls == 0 || copied.Syscalls == 0 {
		t.Fatalf("missing syscall accounting: splice=%d copy=%d", spliced.Syscalls, copied.Syscalls)
	}
	// Loopback Gbps is too noisy for CI, but the syscall ratio is
	// structural: require splice to halve the copy path's crossings.
	if spliced.SyscallsPerMB*2 > copied.SyscallsPerMB {
		t.Fatalf("splice %.2f syscalls/MB not < half of copy %.2f", spliced.SyscallsPerMB, copied.SyscallsPerMB)
	}
}

func TestQuicBurstBatchedReducesSyscalls(t *testing.T) {
	const bursts, burstSize = 8, 64
	batched, err := runQuicBurst(bursts, burstSize, true)
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	unbatched, err := runQuicBurst(bursts, burstSize, false)
	if err != nil {
		t.Fatalf("unbatched run: %v", err)
	}
	// Unbatched is exactly one recv and one send flush per packet.
	if got := unbatched.SyscallsPerPkt; got < 1.9 {
		t.Fatalf("unbatched syscalls/pkt = %.2f, want ~2", got)
	}
	const pkts = bursts * burstSize
	if unbatched.Packets != pkts || unbatched.RecvCalls != pkts || unbatched.SendFlushes != pkts {
		t.Fatalf("unbatched: %d packets in %d receive calls and %d send flushes, want %d of each",
			unbatched.Packets, unbatched.RecvCalls, unbatched.SendFlushes, pkts)
	}
	// Batched, every burst was queued before the reader ran and fits the
	// 64-entry rings: one recvmmsg and one sendmmsg per burst.
	if batched.Packets != pkts || batched.RecvCalls != bursts || batched.SendFlushes != bursts {
		t.Fatalf("batched: %d packets in %d receive calls and %d send flushes, want %d in %d and %d",
			batched.Packets, batched.RecvCalls, batched.SendFlushes, pkts, bursts, bursts)
	}
	// The acceptance bar: ≥4× fewer syscalls per packet on 64-packet
	// bursts.
	if batched.SyscallsPerPkt*4 > unbatched.SyscallsPerPkt {
		t.Fatalf("batched %.3f syscalls/pkt not ≤ ¼ of unbatched %.3f", batched.SyscallsPerPkt, unbatched.SyscallsPerPkt)
	}
}

func TestSuiteShape(t *testing.T) {
	ms, err := Suite(4<<20, 2, 32)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	want := []string{"tcp_relay_splice", "tcp_relay_copy", "quic_burst_batched", "quic_burst_unbatched"}
	if len(ms) != len(want) {
		t.Fatalf("got %d measurements, want %d", len(ms), len(want))
	}
	for i, name := range want {
		if ms[i].Name != name {
			t.Fatalf("measurement %d = %q, want %q", i, ms[i].Name, name)
		}
		if ms[i].Seconds <= 0 {
			t.Fatalf("%s: no duration recorded", name)
		}
	}
}
