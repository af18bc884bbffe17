package faults

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestShapingSustainedRate pins the token bucket's accuracy: pushing
// 1 MiB through a 4 MiB/s bucket with 64 KiB burst must take roughly
// (total - burst) / rate ≈ 234 ms. Bounds are generous for CI jitter but
// tight enough to catch a bucket that leaks (too fast) or double-charges
// (too slow).
func TestShapingSustainedRate(t *testing.T) {
	in := NewInjector(Scenario{
		bandwidthBytesPerSec: 4 << 20,
		bandwidthBurstBytes:  64 << 10,
	})
	a, b := net.Pipe()
	defer b.Close()
	wc := in.Conn(a)
	defer wc.Close()
	go io.Copy(io.Discard, b)

	const total = 1 << 20
	buf := make([]byte, 32<<10)
	start := time.Now()
	for sent := 0; sent < total; sent += len(buf) {
		if _, err := wc.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Ideal: (1 MiB - 64 KiB) / 4 MiB/s = 234 ms.
	if elapsed < 150*time.Millisecond {
		t.Fatalf("shaping too permissive: 1 MiB at 4 MiB/s took %v (want ≥ 150ms)", elapsed)
	}
	if elapsed > 800*time.Millisecond {
		t.Fatalf("shaping too strict: 1 MiB at 4 MiB/s took %v (want ≤ 800ms)", elapsed)
	}
}

// TestShapingBurstPassesUnthrottled: traffic within the burst allowance
// must not sleep at all.
func TestShapingBurstPassesUnthrottled(t *testing.T) {
	in := NewInjector(Scenario{
		bandwidthBytesPerSec: 1 << 20,
		bandwidthBurstBytes:  256 << 10,
	})
	a, b := net.Pipe()
	defer b.Close()
	wc := in.Conn(a)
	defer wc.Close()
	go io.Copy(io.Discard, b)

	buf := make([]byte, 64<<10)
	start := time.Now()
	for sent := 0; sent < 256<<10; sent += len(buf) {
		if _, err := wc.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("burst-sized traffic was throttled: %v", elapsed)
	}
}

// TestShapingDisabledByDefault: the zero Scenario must not shape.
func TestShapingDisabledByDefault(t *testing.T) {
	if sh := newShaper(0, 0); sh != nil {
		t.Fatal("zero rate produced a shaper")
	}
	var sh *shaper
	sh.take(1 << 30) // nil-receiver no-op must not block or panic
}
