// Package core is the Zero Downtime Release framework itself — the
// orchestration layer that composes the three mechanisms (Socket Takeover,
// Downstream Connection Reuse, Partial Post Replay) into disruption-free
// rolling releases across a fleet (§4).
//
// The pieces:
//
//   - ProxySlot manages successive generations of one Proxygen instance on
//     a fixed takeover path: Restart spins up the new generation, performs
//     the Socket Takeover hand-off (which flips the old generation into
//     draining — triggering GOAWAY and DCR solicitations at the Origin),
//     and retires the old generation after its drain period.
//   - AppServerSlot manages an HHVM-style app server: Restart is a drain-
//     and-replace (the tier is too memory-constrained for two parallel
//     instances, §4.4) during which in-flight POSTs are handed back to the
//     downstream proxy via PPR.
//   - ReleaseReport is the machine-readable record of a traced release,
//     built from its spans; internal/fleet drives the release itself.
package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/faults"
	"zdr/internal/obs"
	"zdr/internal/proxy"
	"zdr/internal/takeover"
)

// ErrTakeoverNotArmed reports that the serving generation's takeover
// server could not bind the slot path. From a restart whose hand-off
// succeeded it is a partial success: the new generation owns the sockets
// and serves. The next Restart re-arms before it builds a generation, and
// returns this error, with the old generation still serving, if the path
// still cannot be bound. Test with errors.Is.
var ErrTakeoverNotArmed = errors.New("core: takeover server not armed")

// restartOptions configures a single Restart call. The zero value is an
// untraced restart; construct non-default calls with RestartOption values
// (WithTrace, ...).
type restartOptions struct {
	// trace, when non-nil, is the parent span under which the restart
	// records its "slot.restart" tree (with a "slot.drain" child covering
	// the old generation's retirement).
	trace *obs.Span
}

// RestartOption mutates restartOptions. Options are applied in order.
type RestartOption func(*restartOptions)

// WithTrace records the restart as a span tree under parent. The fleet
// orchestrator passes its batch span.
func WithTrace(parent *obs.Span) RestartOption {
	return func(o *restartOptions) { o.trace = parent }
}

// Restartable is one release target.
type Restartable interface {
	// Name identifies the instance.
	Name() string
	// Restart replaces the running generation with a new one, returning
	// once the new generation is serving. Options modify a single call;
	// no options means an untraced default restart.
	Restart(opts ...RestartOption) error
}

// ProxySlot manages generations of a Proxygen instance.
type ProxySlot struct {
	// SlotName identifies the slot (instance) in reports.
	SlotName string
	// Path is the fixed UNIX socket path used for Socket Takeover.
	Path string
	// Build constructs the next generation (the "new binary"). Called
	// once per Start/Restart.
	Build func() *proxy.Proxy
	// DrainWait is how long the old generation drains before termination.
	// Zero uses the old generation's own Shutdown default asynchronously.
	DrainWait time.Duration
	// rearmBackoff paces the new generation's attempts to re-bind the
	// takeover path after a hand-off (the old generation's server tears
	// its socket down asynchronously). The zero value uses the faults
	// package defaults (20ms base, doubling, 500ms cap, 10 attempts).
	rearmBackoff faults.Backoff
	// AbortRetries is how many times Restart rebuilds a fresh generation
	// and retries after a survivable hand-off failure: a pre-commit abort
	// (takeover.ErrAborted) or a post-commit undo (takeover.ErrUndone).
	// Both are the benign arm of the failure lattice — after an abort the
	// old generation never stopped accepting, and after an undo it
	// re-armed its listeners from the retained FDs and kept serving — so
	// a retry risks nothing. Zero means the default of 1 retry; negative
	// disables retries. Only non-survivable post-commit failures (the
	// sender itself died holding the sockets) surface to the caller,
	// whose last-resort remediation is RestartFresh (§5.1 rebind).
	AbortRetries int

	mu      sync.Mutex
	cur     *proxy.Proxy
	gen     int
	phase   string // restart state machine position ("" = steady state)
	armErr  error  // last takeover-server arming failure (nil = armed)
	drainWG sync.WaitGroup
}

// Start brings up the first generation, and arms Path as promote does.
// When a live generation (another process's) serves Path, the first one
// takes its sockets over as a Restart's would; with no socket file there,
// or a stale one a crashed process left, it listens.
func (s *ProxySlot) Start() error {
	s.mu.Lock()
	started := s.cur != nil
	s.mu.Unlock()
	if started {
		return errors.New("core: slot already started")
	}
	p := s.Build()
	if _, err := os.Stat(s.Path); err == nil {
		if _, err = p.TakeoverFrom(s.Path); err == nil {
			return s.promote(p)
		}
		if !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, fs.ErrNotExist) {
			p.Close()
			return fmt.Errorf("core: taking over from the generation at %s: %w", s.Path, err)
		}
	}
	if err := p.Listen(); err != nil {
		return err
	}
	return s.promote(p)
}

// Current returns the serving generation.
func (s *ProxySlot) Current() *proxy.Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Name implements Restartable.
func (s *ProxySlot) Name() string { return s.SlotName }

// Restart performs a Zero Downtime Restart: the new generation takes the
// sockets over; the old generation drains (GOAWAY + DCR solicitations
// happen inside proxy.StartDraining) and terminates in the background.
// With WithTrace, the restart is recorded as a "slot.restart" span (with
// a "slot.drain" child covering the old generation's retirement).
func (s *ProxySlot) Restart(opts ...RestartOption) error {
	var o restartOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.trace == nil {
		return s.restart(nil)
	}
	sp := o.trace.StartChild(obs.SpanSlotRestart)
	sp.SetAttr("slot", s.SlotName)
	defer sp.End()
	err := s.restart(sp)
	sp.Fail(err)
	return err
}

// setPhase publishes the slot's restart state machine position for
// State() (""/steady, "handing-off", "committed-awaiting-ready",
// "rolling-back" while a committed hand-off unwinds, and the sticky
// "rolled-back" after the unwind completes — cleared by the next
// restart attempt).
func (s *ProxySlot) setPhase(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

func (s *ProxySlot) restart(sp *obs.Span) error {
	s.mu.Lock()
	old, armErr := s.cur, s.armErr
	s.mu.Unlock()
	if old == nil {
		return errors.New("core: slot not started")
	}
	if armErr != nil {
		// The last release left the serving generation's takeover server
		// unbound, so nothing serves the path this hand-off dials.
		armErr = s.rearmBackoff.Retry(context.Background(), func() error {
			return old.ServeTakeover(s.Path)
		})
		s.mu.Lock()
		s.armErr = armErr
		s.mu.Unlock()
		if armErr != nil {
			return fmt.Errorf("%w, old generation keeps serving: %v", ErrTakeoverNotArmed, armErr)
		}
	}
	retries := s.AbortRetries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	var next *proxy.Proxy
	for attempt := 0; ; attempt++ {
		next = s.Build()
		s.setPhase("handing-off")
		_, err := next.TakeoverFromWith(s.Path, proxy.TakeoverOptions{
			Trace:         sp,
			OnCommitted:   func() { s.setPhase("committed-awaiting-ready") },
			OnRollingBack: func() { s.setPhase("rolling-back") },
		})
		if err == nil {
			break
		}
		undone := errors.Is(err, takeover.ErrUndone)
		if undone {
			// The committed hand-off unwound: the old generation re-armed
			// from its retained FDs and keeps serving. Leave the sticky
			// "rolled-back" marker for /debug/release (a paused fleet is
			// diagnosed per node by this phase) until the next attempt.
			s.setPhase("rolled-back")
		} else {
			s.setPhase("")
		}
		// The failed generation is discarded either way; a retried
		// attempt needs a fresh Build (Adopt refuses reuse).
		next.Close()
		if !undone && !errors.Is(err, takeover.ErrAborted) {
			// Protocol/config failures (bad magic, rejected manifest,
			// dial exhaustion): the old generation keeps serving, but a
			// blind retry would fail identically.
			return fmt.Errorf("core: takeover failed, old generation keeps serving: %w", err)
		}
		if attempt >= retries {
			if undone {
				return fmt.Errorf("core: hand-off undone after commit %d time(s), old generation re-armed and keeps serving: %w", attempt+1, err)
			}
			return fmt.Errorf("core: takeover aborted before commit %d time(s), old generation keeps serving: %w", attempt+1, err)
		}
		// Pre-commit abort: the hand-off died before the old generation
		// stopped accepting, so no client saw anything. Post-commit undo:
		// the new generation stepped down and the old one re-armed its
		// listeners from the retained FDs, so again no client saw
		// anything. Either way a retry with a fresh receiver is safe.
		sp.SetAttr("abort_retries", strconv.Itoa(attempt+1))
	}
	s.setPhase("")
	// The hand-off flipped the old generation into draining via its
	// takeover server callback. Retire it in the background and promote
	// the new generation.
	s.retire(old, sp)
	// New generation stands up its own takeover server for the release
	// after this one. The old generation's server closed its socket after
	// the hand-off; backoff absorbs that teardown.
	return s.promote(next)
}

// retire terminates old in the background, under a slot.drain span
// child of sp: after DrainWait it is closed, or with no DrainWait it
// drains for its own period.
func (s *ProxySlot) retire(old *proxy.Proxy, sp *obs.Span) {
	drainSp := sp.StartChild(obs.SpanSlotDrain)
	drainSp.SetAttr("slot", s.SlotName)
	s.drainWG.Add(1)
	go func() {
		defer s.drainWG.Done()
		defer drainSp.End()
		if s.DrainWait > 0 {
			time.Sleep(s.DrainWait)
			old.Close()
			return
		}
		old.Shutdown()
	}()
}

// WaitDrains blocks until every background drain started by Restart or
// restartFresh has retired its old generation: a traced release waits
// for it before it reads the spans, so that every slot.drain span has
// ended.
func (s *ProxySlot) WaitDrains() { s.drainWG.Wait() }

// State summarises the slot for /debug/release.
func (s *ProxySlot) State() obs.SlotState {
	s.mu.Lock()
	cur, gen, phase, armErr := s.cur, s.gen, s.phase, s.armErr
	s.mu.Unlock()
	st := obs.SlotState{
		Name:          s.SlotName,
		Generation:    gen,
		Phase:         phase,
		TakeoverArmed: cur != nil && armErr == nil,
	}
	if armErr != nil {
		st.ArmError = armErr.Error()
	}
	if cur != nil {
		ps := cur.ReleaseState()
		st.Draining = ps.Draining
		if len(ps.Slots) > 0 {
			st.Takeovers = ps.Slots[0].Takeovers
			st.TakeoverAborts = ps.Slots[0].TakeoverAborts
			st.TakeoverUndos = ps.Slots[0].TakeoverUndos
			st.Drains = ps.Slots[0].Drains
			st.UpstreamIdle = ps.Slots[0].UpstreamIdle
			if st.Phase == "" {
				st.Phase = ps.Slots[0].Phase
			}
		}
	}
	return st
}

// promote records next as the serving generation and arms its takeover
// server. next already owns the sockets at this point, so it is promoted
// even if arming fails — the alternative (an error pointing at a
// draining, soon-to-die generation) would strand the slot. An arming
// failure is surfaced via ErrTakeoverNotArmed; the next restart retries
// the arming first.
func (s *ProxySlot) promote(next *proxy.Proxy) error {
	armErr := s.rearmBackoff.Retry(context.Background(), func() error {
		return next.ServeTakeover(s.Path)
	})
	s.mu.Lock()
	s.cur = next
	s.gen++
	gen := s.gen
	s.armErr = armErr
	s.mu.Unlock()
	if armErr != nil {
		return fmt.Errorf("%w (gen %d serves traffic; the next Restart re-arms first): %v", ErrTakeoverNotArmed, gen, armErr)
	}
	return nil
}

// restartFresh performs the §5.1 remediation restart: instead of passing
// the existing socket FDs (whose in-kernel state survives a process
// restart — the pitfall behind the UDP GSO sk_buff bug the paper
// describes), the next generation binds BRAND-NEW sockets on the same
// addresses. SO_REUSEPORT lets old and new coexist during the switch, so
// TCP service continues; the trade-off is exactly the paper's: UDP VIPs
// suffer socket-ring flux during a fresh rebind, which is why this path
// is a rollback/mitigation tool, not the default.
//
// With drain-undo (takeover's post-commit lease) this is a LAST
// resort: a receiver that dies after COMMIT no longer needs it — the old
// generation re-arms from its retained FDs and Restart retries. The
// remaining case is the sender itself crashing post-commit while still
// holding the sockets.
//
// build receives the current generation's bound VIP addresses and must
// return a proxy configured to bind them (Config.VIPAddrs).
func (s *ProxySlot) restartFresh(build func(vipAddrs map[string]string) *proxy.Proxy) error {
	s.mu.Lock()
	old := s.cur
	s.mu.Unlock()
	if old == nil {
		return errors.New("core: slot not started")
	}
	next := build(old.VIPAddrs())
	if next == nil {
		return errors.New("core: build returned nil")
	}
	if err := next.Listen(); err != nil {
		return fmt.Errorf("core: fresh rebind failed, old generation keeps serving: %w", err)
	}
	// Old generation leaves the pool: health answers DRAIN and its accept
	// loops stop, so the new sockets receive all new connections.
	old.StopTakeoverServer()
	old.StartDraining()
	s.retire(old, nil)
	return s.promote(next)
}

// Close shuts the current generation down; a Start after it counts
// generations from 1 again.
func (s *ProxySlot) Close() {
	s.mu.Lock()
	cur := s.cur
	s.cur, s.gen = nil, 0
	s.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

// AppServerSlot manages generations of an app server on a fixed address.
type AppServerSlot struct {
	// SlotName identifies the slot.
	SlotName string
	// Build constructs the next generation.
	Build func() *appserver.Server

	mu   sync.Mutex
	cur  *appserver.Server
	addr string
	gen  int
}

// Start brings up the first generation on addr ("127.0.0.1:0" for an
// ephemeral port; later generations reuse the resolved address).
func (s *AppServerSlot) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		return errors.New("core: slot already started")
	}
	as := s.Build()
	bound, err := as.Listen(addr)
	if err != nil {
		return err
	}
	s.cur = as
	s.addr = bound
	s.gen = 1
	return nil
}

// Addr returns the slot's serving address.
func (s *AppServerSlot) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Name implements Restartable.
func (s *AppServerSlot) Name() string { return s.SlotName }

// Restart drains the old generation (handing in-flight POSTs back via
// PPR), then binds the new generation on the same address. The brief
// listening gap is what the downstream proxy's retry logic (§4.4) covers.
// With WithTrace, the restart is recorded as a "slot.restart" span with a
// "slot.drain" child covering the old generation's synchronous drain.
func (s *AppServerSlot) Restart(opts ...RestartOption) error {
	var o restartOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.trace == nil {
		return s.restart(nil)
	}
	sp := o.trace.StartChild(obs.SpanSlotRestart)
	sp.SetAttr("slot", s.SlotName)
	defer sp.End()
	err := s.restart(sp)
	sp.Fail(err)
	return err
}

func (s *AppServerSlot) restart(sp *obs.Span) error {
	s.mu.Lock()
	old := s.cur
	addr := s.addr
	s.mu.Unlock()
	if old == nil {
		return errors.New("core: slot not started")
	}
	drainSp := sp.StartChild(obs.SpanSlotDrain)
	drainSp.SetAttr("slot", s.SlotName)
	old.Shutdown()
	drainSp.End()
	next := s.Build()
	// faults' default backoff paces the new generation's attempts to
	// re-bind the address the old generation is releasing.
	err := faults.Backoff{}.Retry(context.Background(), func() error {
		_, e := next.Listen(addr)
		return e
	})
	if err != nil {
		return fmt.Errorf("core: new generation cannot bind %s: %w", addr, err)
	}
	s.mu.Lock()
	s.cur = next
	s.gen++
	s.mu.Unlock()
	return nil
}

// Close shuts the current generation down.
func (s *AppServerSlot) Close() {
	s.mu.Lock()
	cur := s.cur
	s.cur = nil
	s.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}
