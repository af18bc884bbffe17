package bufpool

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"zdr/internal/racetest"
)

func TestGetRoundsUpToTier(t *testing.T) {
	cases := []struct{ ask, want int }{
		{1, TierSmall},
		{TierSmall, TierSmall},
		{TierSmall + 1, TierMedium},
		{TierMedium, TierMedium},
		{TierLarge, TierLarge},
		{TierXLarge, TierXLarge},
	}
	for _, c := range cases {
		p := Get(c.ask)
		if len(*p) != c.want || cap(*p) != c.want {
			t.Fatalf("Get(%d): len=%d cap=%d, want tier %d", c.ask, len(*p), cap(*p), c.want)
		}
		Put(p)
	}
}

func TestGetOversizeFallsThrough(t *testing.T) {
	const big = TierXLarge + 1
	p := Get(big)
	if len(*p) != big {
		t.Fatalf("len = %d, want %d", len(*p), big)
	}
	Put(p) // dropped, not pooled; must not panic
}

func TestPutRestoresTierLength(t *testing.T) {
	p := Get(TierSmall)
	*p = (*p)[:17] // caller shrank it
	Put(p)
	q := Get(TierSmall)
	if len(*q) != TierSmall {
		t.Fatalf("recycled buffer has len %d, want %d", len(*q), TierSmall)
	}
	Put(q)
}

func TestPutNilNoop(t *testing.T) {
	Put(nil)
	var empty []byte
	Put(&empty) // cap 0 matches no tier: dropped
}

func TestCopy(t *testing.T) {
	// strings.Reader implements WriterTo, which would bypass the buffer;
	// wrap it so the pooled path is the one exercised.
	src := strings.Repeat("zdr", 50_000)
	var dst bytes.Buffer
	n, err := Copy(&dst, io.LimitReader(strings.NewReader(src), int64(len(src))))
	if err != nil || n != int64(len(src)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if dst.String() != src {
		t.Fatal("Copy corrupted data")
	}
}

// TestGetPutSteadyStateAllocs pins the package's reason to exist: a
// Get/Put round-trip on a warmed pool performs zero allocations.
func TestGetPutSteadyStateAllocs(t *testing.T) {
	Put(Get(TierMedium)) // warm
	avg := testing.AllocsPerRun(100, func() {
		p := Get(TierMedium)
		(*p)[0] = 1
		Put(p)
	})
	if avg != 0 {
		t.Fatalf("Get/Put allocates %.1f objects per round-trip, want 0", avg)
	}
}

// TestGetPutAllocations: BenchmarkGetPut's round trip, a TierLarge buffer
// taken and put back, allocates nothing once the pool holds one.
func TestGetPutAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	Put(Get(TierLarge))
	if n := testing.AllocsPerRun(100, func() {
		p := Get(TierLarge)
		(*p)[0] = 1
		Put(p)
	}); n != 0 {
		t.Errorf("TierLarge Get and Put: %v allocs, want 0", n)
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := Get(TierLarge)
			(*p)[0] = 1
			Put(p)
		}
	})
}
