package katran

import (
	"fmt"
	"testing"
)

// newBenchLB builds an LB with 64 healthy backends, the fleet size the
// Fig. 2d experiments model.
func newBenchLB(b *testing.B, cacheSize int) *LB {
	b.Helper()
	lb := New("bench", Config{FlowCacheSize: cacheSize}, nil)
	for i := 0; i < 64; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("p%02d", i), Addr: "x"}, true)
	}
	b.Cleanup(lb.Close)
	return lb
}

// BenchmarkForward is the per-packet steering hot path under parallel
// load: every goroutine steers flows that are already resident in the
// §5.1 connection table, the common case for established traffic.
// Run with -cpu 4 to expose lock contention.
func BenchmarkForward(b *testing.B) {
	const flows = 8192
	lb := newBenchLB(b, 1<<16)
	for f := uint64(0); f < flows; f++ {
		if _, err := lb.Steer(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := uint64(0)
		for pb.Next() {
			if _, err := lb.Steer(f % flows); err != nil {
				b.Fatal(err)
			}
			f += 0x9e3779b97f4a7c15 % flows
		}
	})
}

// BenchmarkForwardNoCache is the policy-pick path: no connection table, so
// every packet consults the Maglev table (lock-free).
func BenchmarkForwardNoCache(b *testing.B) {
	lb := newBenchLB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := uint64(0)
		for pb.Next() {
			if _, err := lb.Steer(f); err != nil {
				b.Fatal(err)
			}
			f += 0x9e3779b97f4a7c15
		}
	})
}

// BenchmarkFlowTableLookup is the generation-tagged table's resident-flow
// read path: 16 B/entry probe within one 8-way bucket, no locks beyond the
// entry shard.
func BenchmarkFlowTableLookup(b *testing.B) {
	const flows = 1 << 20
	ft := newFlowTable(flows*2, 0)
	ft.SetBackends([]string{"a", "b", "c", "d"})
	for f := uint64(0); f < flows; f++ {
		ft.Insert(f, []string{"a", "b", "c", "d"}[f%4])
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := uint64(0)
		for pb.Next() {
			ft.Lookup(f % flows)
			f += 0x9e3779b97f4a7c15
		}
	})
}

// BenchmarkFlowTableInsert measures pinning churn (connection setup rate).
func BenchmarkFlowTableInsert(b *testing.B) {
	ft := newFlowTable(1<<21, 0)
	ft.SetBackends([]string{"a", "b", "c", "d"})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := uint64(0)
		for pb.Next() {
			ft.Insert(f, "a")
			f += 0x9e3779b97f4a7c15
		}
	})
}

// BenchmarkFlowTableBump is the takeover primitive itself: with a million
// flows resident, flipping every one of them must cost a single view
// publication — constant time, independent of occupancy.
func BenchmarkFlowTableBump(b *testing.B) {
	const flows = 1 << 20
	ft := newFlowTable(flows*2, 0)
	ft.SetBackends([]string{"a", "b"})
	for f := uint64(0); f < flows; f++ {
		ft.Insert(f, "a")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Bump(true)
	}
	b.StopTimer()
	if ft.EntryWrites() != flows {
		b.Fatalf("bump wrote entries: %d writes for %d inserts", ft.EntryWrites(), flows)
	}
}
