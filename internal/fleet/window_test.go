package fleet

import (
	"errors"
	"testing"
	"time"
)

// TestCanaryWindowUnarmed pins the pass-through contract: with no
// rollout in progress the gate never blocks a restart.
func TestCanaryWindowUnarmed(t *testing.T) {
	w := newCanaryWindow(0)
	done := make(chan error, 1)
	go func() { done <- w.gate() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unarmed gate: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("unarmed gate blocked")
	}
}

// TestCanaryWindowPromote: an armed window blocks the gate until the
// orchestrator delivers nil, then passes.
func TestCanaryWindowPromote(t *testing.T) {
	w := newCanaryWindow(5 * time.Second)
	entered, verdict := w.arm()
	done := make(chan error, 1)
	go func() { done <- w.gate() }()
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("gate never signalled entry")
	}
	select {
	case <-done:
		t.Fatal("gate passed before verdict")
	case <-time.After(20 * time.Millisecond):
	}
	verdict <- nil
	if err := <-done; err != nil {
		t.Fatalf("promote verdict: %v", err)
	}
}

// TestCanaryWindowRollback: an error verdict surfaces from the gate
// (failing readiness → drain-undo on the real path).
func TestCanaryWindowRollback(t *testing.T) {
	w := newCanaryWindow(5 * time.Second)
	entered, verdict := w.arm()
	done := make(chan error, 1)
	go func() { done <- w.gate() }()
	<-entered
	verdict <- errGateRejected
	if err := <-done; !errors.Is(err, errGateRejected) {
		t.Fatalf("gate returned %v, want ErrGateRejected", err)
	}
}

// TestCanaryWindowMaxHold: an abandoned canary (operator dead or
// partitioned, no verdict ever arrives) self-rolls-back after maxHold.
func TestCanaryWindowMaxHold(t *testing.T) {
	w := newCanaryWindow(30 * time.Millisecond)
	w.arm()
	start := time.Now()
	err := w.gate()
	if !errors.Is(err, errOperatorLost) {
		t.Fatalf("abandoned gate returned %v, want ErrOperatorLost", err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("gate gave up before MaxHold")
	}
}

// TestCanaryWindowOneShot: the window's entry is consumed by the first
// Gate call; a second call (a slot-level retry of a rejected hand-off)
// must NOT be silently waved through while armed — it waits for a fresh
// arm cycle's verdict or self-rolls-back. This is the invariant behind
// ProxyNode forcing AbortRetries off.
func TestCanaryWindowOneShot(t *testing.T) {
	w := newCanaryWindow(20 * time.Millisecond)
	_, verdict := w.arm()
	verdict <- nil // buffered: deliver before the gate runs
	if err := w.gate(); err != nil {
		t.Fatalf("first gate: %v", err)
	}
	// Entry consumed: a second Gate call on the same arm cycle (what a
	// slot-level hand-off retry would do) passes through instead of
	// re-entering a canary the orchestrator no longer tracks. ProxyNode
	// disables slot retries so this degenerate pass-through is never a
	// promotion path for a rejected build.
	if err := w.gate(); err != nil {
		t.Fatalf("second gate after consumption: %v", err)
	}
	w.disarm()
}
