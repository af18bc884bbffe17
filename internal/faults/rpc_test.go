package faults

import (
	"errors"
	"testing"
	"time"
)

// TestRPCInjectorDeterministic pins that the control-plane schedule is a
// pure function of (Scenario, call index): two injectors with the same
// scenario inject drops on exactly the same calls.
func TestRPCInjectorDeterministic(t *testing.T) {
	sc := Scenario{Seed: 42, rpcDropRate: 0.3, rpcDelayRate: 0.2, rpcDelayMax: time.Microsecond}
	outcomes := func() []bool {
		in := NewInjector(sc)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.RPC("probe") != nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: schedules diverge", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("0.3 drop rate over 64 calls injected nothing")
	}
}

// TestRPCInjectorErrorsAreInjected pins the error classification: every
// dropped RPC is an ErrInjected so retry loops can tell chaos from real
// faults.
func TestRPCInjectorErrorsAreInjected(t *testing.T) {
	in := NewInjector(Scenario{Seed: 7, rpcDropRate: 1})
	err := in.RPC("restart")
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if got := in.Injected(OpDropRPC); got != 1 {
		t.Fatalf("OpDropRPC count = %d, want 1", got)
	}
}

// TestRPCPartitionSwitch pins the sever/heal behaviour fleet chaos tests
// lean on: while partitioned every call fails regardless of rates, and a
// heal restores the channel.
func TestRPCPartitionSwitch(t *testing.T) {
	in := NewInjector(Scenario{Seed: 1}) // zero rates: clean channel
	if err := in.RPC("health"); err != nil {
		t.Fatalf("clean channel injected: %v", err)
	}
	in.SetPartitioned(true)
	if !in.Partitioned() {
		t.Fatal("Partitioned() = false after SetPartitioned(true)")
	}
	for i := 0; i < 8; i++ {
		if err := in.RPC("health"); !errors.Is(err, ErrInjected) {
			t.Fatalf("partitioned call %d succeeded (err=%v)", i, err)
		}
	}
	in.SetPartitioned(false)
	if err := in.RPC("health"); err != nil {
		t.Fatalf("healed channel injected: %v", err)
	}
}

// TestRPCNilInjector: the nil pass-through contract extends to the
// control plane.
func TestRPCNilInjector(t *testing.T) {
	var in *Injector
	if err := in.RPC("anything"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	in.SetPartitioned(true) // must not panic
	if in.Partitioned() {
		t.Fatal("nil injector reports partitioned")
	}
}
