package idleconns

import (
	"testing"
)

// TestRunScaled drives the full acceptance demo at CI scale: the conn
// count rides the fd budget down, the flow table still proves the O(1)
// epoch flip, and the reconnect storm must fully absorb.
func TestRunScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("demo harness is seconds-long; skipped in -short")
	}
	cfg := Config{
		Conns: 512,
		Flows: 100_000,
		Logf:  t.Logf,
		dir:   t.TempDir(),
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conns == 0 || rep.Conns > 512 {
		t.Fatalf("conns = %d", rep.Conns)
	}
	if rep.EpochBumpWrites != 0 {
		t.Fatalf("epoch bump wrote %d entries", rep.EpochBumpWrites)
	}
	if rep.DrainedSampleHits != 0 {
		t.Fatalf("%d drained-generation hits", rep.DrainedSampleHits)
	}
	if rep.ReconnectOK != rep.ReconnectAttempted {
		t.Fatalf("reconnect %d/%d", rep.ReconnectOK, rep.ReconnectAttempted)
	}
	if rep.TakeoverMs <= 0 {
		t.Fatalf("takeover wall time %v", rep.TakeoverMs)
	}
	if rep.PeakRSSKB <= 0 {
		t.Fatalf("peak RSS %d", rep.PeakRSSKB)
	}
	if rep.FlowTableFlows < 99_000 {
		t.Fatalf("flow table resident %d", rep.FlowTableFlows)
	}
}

// TestFDBudget sanity-checks the auto-scaler.
func TestFDBudget(t *testing.T) {
	if b := fdBudget(); b < 64 {
		t.Fatalf("fd budget %d", b)
	}
}
