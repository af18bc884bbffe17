package fleet

import (
	"errors"
	"sync"
	"time"
)

// errOperatorLost is returned by a canary window's Gate when no verdict
// arrived within maxHold: the orchestrator crashed, was partitioned away,
// or simply forgot the node. The readiness gate failing makes drain-undo
// unwind the hand-off, so an abandoned canary self-rolls-back to the old
// generation instead of serving an unjudged build forever.
var errOperatorLost = errors.New("fleet: no gate verdict before MaxHold, self-rolling-back")

// defaultMaxHold bounds how long an armed canary window waits for the
// orchestrator's verdict before self-rolling-back.
const defaultMaxHold = 30 * time.Second

// canaryWindow is the synchronization point between the orchestrator and
// one node's restart: installed as the proxy's ReadyGate (via the slot's
// Build closure), it turns the drain-undo protocol's committed-awaiting-
// ready state into a health-gated canary.
//
// Unarmed (no rollout in progress), Gate passes immediately and restarts
// behave exactly as before. Armed by the orchestrator, Gate blocks the
// new generation's READY frame — the node serves live traffic while the
// old generation retains its FDs as an instant rollback — until the
// orchestrator delivers a verdict: nil promotes (READY is sent, the old
// generation drains), an error rolls back (drain-undo re-arms the old
// generation with zero failed requests).
type canaryWindow struct {
	// maxHold bounds the wait for a verdict; zero means defaultMaxHold.
	// Must stay below the sender's TakeoverReadyTimeout, so the receiver
	// side always resolves the window before the sender's lease expires.
	maxHold time.Duration

	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	verdict chan error
}

// newCanaryWindow returns a window with the given hold bound (0 =
// defaultMaxHold).
func newCanaryWindow(maxHold time.Duration) *canaryWindow {
	return &canaryWindow{maxHold: maxHold}
}

// gate implements the proxy ReadyGate contract. Install as
// proxy.Config.ReadyGate on every generation the slot builds.
func (w *canaryWindow) gate() error {
	w.mu.Lock()
	if !w.armed || w.entered == nil {
		w.mu.Unlock()
		return nil
	}
	entered, verdict := w.entered, w.verdict
	w.entered = nil // consumed: one canary per arm
	w.mu.Unlock()
	close(entered)
	hold := w.maxHold
	if hold <= 0 {
		hold = defaultMaxHold
	}
	select {
	case err := <-verdict:
		return err
	case <-time.After(hold):
		return errOperatorLost
	}
}

// arm prepares the window for one canary restart. It returns the channel
// closed when the node enters its canary (the restart committed and the
// gate is holding) and the channel the orchestrator delivers the verdict
// on (buffered: delivery never blocks, even to a node that already
// self-rolled-back).
func (w *canaryWindow) arm() (entered <-chan struct{}, verdict chan<- error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = true
	w.entered = make(chan struct{})
	w.verdict = make(chan error, 1)
	return w.entered, w.verdict
}

// disarm returns the window to pass-through behaviour.
func (w *canaryWindow) disarm() {
	w.mu.Lock()
	w.armed = false
	w.entered = nil
	w.verdict = nil
	w.mu.Unlock()
}
