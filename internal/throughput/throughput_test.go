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
	if spliced.syscalls == 0 || copied.syscalls == 0 {
		t.Fatalf("missing syscall accounting: splice=%d copy=%d", spliced.syscalls, copied.syscalls)
	}
	// Loopback Gbps is too noisy for CI, but the syscall ratio is
	// structural: require splice to halve the copy path's crossings.
	if spliced.syscallsPerMB*2 > copied.syscallsPerMB {
		t.Fatalf("splice %.2f syscalls/MB not < half of copy %.2f", spliced.syscallsPerMB, copied.syscallsPerMB)
	}
}

// TestRelayCopySyscallsPerMB bounds the pooled copy's crossings per MiB
// absolutely: 38.4 is 1.2 × the 32.04 a 256 MiB relay took when the
// bound was first set, a read and a write per 64 KiB that loopback hands
// one read. The splice path's count is how much each call found queued,
// which follows the scheduler, so it has no bound of its own.
func TestRelayCopySyscallsPerMB(t *testing.T) {
	m, err := RunTCPRelay(64<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.syscallsPerMB > 38.4 {
		t.Errorf("pooled-copy relay: %.2f syscalls/MB, want <= 38.4", m.syscallsPerMB)
	} else {
		t.Logf("pooled-copy relay: %.2f syscalls/MB", m.syscallsPerMB)
	}
}
