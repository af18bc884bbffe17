package metrics

import (
	"strings"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	snap := r.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.AtomicHistograms == nil {
		t.Fatal("empty registry snapshot has nil maps")
	}
	r.Counter("a.b").Add(5)
	r.Gauge("g").Set(-3)
	r.AtomicHistogram("h").Observe(2)
	r.AtomicHistogram("h").Observe(4)
	snap = r.Snapshot()
	if snap.Counters["a.b"] != 5 || snap.Gauges["g"] != -3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hs := snap.AtomicHistograms["h"]
	if hs.Count != 2 || hs.mean() != 3 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	// The snapshot is a copy: later mutation is invisible.
	r.Counter("a.b").Inc()
	if snap.Counters["a.b"] != 5 {
		t.Fatal("snapshot aliases live counters")
	}
}

func TestDumpIncludesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.AtomicHistogram("lat", 10).Observe(7)
	d := r.Dump()
	if !strings.Contains(d, "counter c 1") {
		t.Fatalf("Dump missing counter: %q", d)
	}
	if !strings.Contains(d, "atomic-histogram lat count=1 mean=7 ") {
		t.Fatalf("Dump missing histogram snapshot: %q", d)
	}
}
