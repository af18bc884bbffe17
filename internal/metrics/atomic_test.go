package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := expBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { expBuckets(0, 2, 4) },
		func() { expBuckets(1, 1, 4) },
		func() { expBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid ExpBuckets args did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestAtomicHistogramBucketing(t *testing.T) {
	h := NewAtomicHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1e6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Upper bounds are inclusive: 1 lands in [.., 1], 10 in (1, 10], etc.
	wantCounts := []int64{2, 2, 2, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+5+10+50+100+1e6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestAtomicHistogramEmpty(t *testing.T) {
	h := NewAtomicHistogram(nil) // default buckets
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	if m := h.Mean(); m != 0 {
		t.Fatalf("empty mean = %g, want 0", m)
	}
	var nilH *AtomicHistogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
	if err := nilH.Merge(h); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestAtomicHistogramQuantile(t *testing.T) {
	h := NewAtomicHistogram(expBuckets(1, 2, 12)) // 1..2048
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	// The estimator interpolates within log buckets, so tolerate a
	// bucket's width of error.
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 500, 260},
		{0.99, 990, 520},
		{0, 0, 1.5},
		{1, 999, 1050},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%g = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
	// Overflow bucket reports the largest finite bound.
	ho := NewAtomicHistogram([]float64{1, 2})
	ho.Observe(50)
	if q := ho.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %g, want 2", q)
	}
}

func TestAtomicHistogramMerge(t *testing.T) {
	a := NewAtomicHistogram([]float64{1, 10, 100})
	b := NewAtomicHistogram([]float64{1, 10, 100})
	a.Observe(0.5)
	b.Observe(50)
	b.Observe(500)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	s := a.Snapshot()
	if s.Count != 3 || s.Counts[0] != 1 || s.Counts[2] != 1 || s.Counts[3] != 1 {
		t.Fatalf("merged snapshot %+v", s)
	}
	c := NewAtomicHistogram([]float64{1, 10})
	if err := a.Merge(c); err == nil {
		t.Fatal("merging incompatible bounds succeeded")
	}
}

func TestAtomicSnapshotMergeAndSub(t *testing.T) {
	h := NewAtomicHistogram([]float64{1, 10})
	h.Observe(0.5)
	base := h.Snapshot()
	h.Observe(5)
	h.Observe(5)
	win := h.Snapshot().Sub(base)
	if win.Count != 2 || win.Counts[1] != 2 || win.Counts[0] != 0 {
		t.Fatalf("windowed delta %+v", win)
	}
	if math.Abs(win.Sum-10) > 1e-9 {
		t.Fatalf("windowed sum = %g, want 10", win.Sum)
	}

	var fleet AtomicSnapshot // zero value is a valid merge seed
	if err := fleet.Merge(h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Merge(h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if fleet.Count != 6 {
		t.Fatalf("fleet count = %d, want 6", fleet.Count)
	}
	other := NewAtomicHistogram([]float64{1, 10, 100}).Snapshot()
	other.Count = 1
	if err := fleet.Merge(other); err == nil {
		t.Fatal("merging incompatible snapshot succeeded")
	}
}

// TestAtomicHistogramConcurrency exercises Observe/Merge/Snapshot under
// the race detector: many writers, periodic mergers, and a reader.
func TestAtomicHistogramConcurrency(t *testing.T) {
	h := NewAtomicHistogram(expBuckets(1, 2, 10))
	src := NewAtomicHistogram(expBuckets(1, 2, 10))
	src.Observe(3)
	const writers, perWriter = 8, 2000

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var cells int64
			for _, c := range s.Counts {
				cells += c
			}
			if cells < 0 {
				panic("negative bucket sum")
			}
			_ = s.Quantile(0.99)
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64((seed*perWriter + i) % 700))
				if i%500 == 0 {
					if err := h.Merge(src); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	wantMin := int64(writers * perWriter)
	if got := h.Count(); got < wantMin {
		t.Fatalf("count = %d, want >= %d", got, wantMin)
	}
}

func TestAtomicHistogramObserveAllocFree(t *testing.T) {
	h := NewAtomicHistogram(defaultLatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

func TestRegistryAtomicHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.AtomicHistogram("edge.http.latency")
	if h2 := r.AtomicHistogram("edge.http.latency"); h2 != h {
		t.Fatal("registry returned a different histogram for the same name")
	}
	h.Observe(0.005)
	snap := r.Snapshot()
	s, ok := snap.AtomicHistograms["edge.http.latency"]
	if !ok || s.Count != 1 {
		t.Fatalf("snapshot missing atomic histogram: %+v", snap.AtomicHistograms)
	}
	if dump := r.Dump(); dump == "" {
		t.Fatal("empty dump")
	}
}

// BenchmarkAtomicHistogramObserve is recorded in BENCH_baseline.json: the
// path must be allocation-free.
func BenchmarkAtomicHistogramObserve(b *testing.B) {
	h := NewAtomicHistogram(defaultLatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.1
			if v > 10 {
				v = 0.0001
			}
		}
	})
}

// UnderScrape measures Observe while a background goroutine snapshots
// quantiles the way a /metrics scrape does: there is no shared lock for
// an in-flight observation to convoy on.
func BenchmarkAtomicHistogramObserveUnderScrape(b *testing.B) {
	h := NewAtomicHistogram(defaultLatencyBuckets)
	for i := 0; i < 1<<16; i++ {
		h.Observe(float64(i&1023) / 1e4)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Quantile(0.99)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkAtomicHistogramSnapshot(b *testing.B) {
	h := NewAtomicHistogram(defaultLatencyBuckets)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) / 1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Quantile(0.99)
	}
}
