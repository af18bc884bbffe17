// Package fleet is the release control plane: a reconciler that drives
// staged, health-gated rollouts across a fleet of core.Restartable
// nodes (§6 scaled down to an in-process simulation).
//
// The mechanism under the mechanism is drain-undo (takeover's
// post-commit lease): every node's proxy generations install a canaryWindow
// as their readiness gate, so a restart commits the hand-off, serves
// live traffic in committed-awaiting-ready, and then waits for the
// orchestrator's verdict. Promote releases READY and the old generation
// drains; Rollback fails the gate and the old generation re-arms from
// its retained FDs with zero failed requests. The canary is therefore
// not a separate traffic-splitting layer — it IS the release protocol's
// post-commit window, held open long enough to judge the new build.
//
// Rollouts are canary-first (a small first batch, then doubling ones),
// health-gated per batch against each node's own pre-release baseline
// (one scrape before the restart and one after the window, plus
// orchestrator-side probes), never drain two nodes of one VIP group
// together, and are journaled to disk so a crashed operator resumes — or
// safely abandons, letting maxHold self-rollback reclaim the canaries —
// without guessing.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"zdr/internal/core"
	"zdr/internal/faults"
	"zdr/internal/obs"
)

// Rollout states reported by Status.
const (
	stateIdle    = "idle"
	stateRunning = "running"
	StatePaused  = "paused"
	StateDone    = "done"
	stateAborted = "aborted"
	stateStopped = "stopped" // operator closed/crashed mid-rollout
)

// errClosed reports that Close tore the orchestrator down mid-rollout.
var errClosed = errors.New("fleet: orchestrator closed")

// errNotPaused reports a Decide call outside a pause.
var errNotPaused = errors.New("fleet: rollout is not paused")

// errDecidePending reports a Decide call while a decision for the
// current pause is already queued and not yet consumed.
var errDecidePending = errors.New("fleet: a decision for this pause is already pending")

// errGateRejected is the verdict delivered into a canary window when the
// health gate votes against the batch; it surfaces (wrapped) from the
// node's Restart as the drain-undo cause.
var errGateRejected = errors.New("fleet: health gate rejected the new build")

// Config parameterises a rollout.
type Config struct {
	// Name identifies the rollout in its journal records.
	Name string
	// CanarySize is the first batch's size; each batch after it doubles.
	// Default 1.
	CanarySize int
	// MaxBatchSize caps batch growth. 0 = no cap.
	MaxBatchSize int
	// HealthWindow is the post-commit observation window per batch. Must
	// comfortably undercut every node window's maxHold. Default 2s.
	HealthWindow time.Duration
	// ProbeInterval paces orchestrator-side probes. Default 50ms.
	ProbeInterval time.Duration
	// WindowTimeout bounds the wait for a restarted node to enter its
	// canary window. Default 10s.
	WindowTimeout time.Duration
	// Gate is the health-gate parameterisation.
	Gate GateConfig
	// Ungated disables canary windows and gating entirely: batches are
	// restarted and immediately promoted. This is the paper's pre-gate
	// release process, kept for the §6-style disruption comparison.
	Ungated bool
	// Journal, when non-nil, receives the rollout's write-ahead log.
	Journal *Journal
	// Resume, when non-nil, is a Recover()ed journal: promoted nodes are
	// skipped and the interrupted batch is re-driven after its abandoned
	// canaries settle.
	Resume *Progress
	// Trace, when non-nil, records the rollout span tree.
	Trace *obs.Tracer
	// control, when non-nil, injects faults into the operator↔node
	// control channel (every RPC the orchestrator issues).
	control *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "rollout"
	}
	if c.CanarySize <= 0 {
		c.CanarySize = 1
	}
	if c.HealthWindow <= 0 {
		c.HealthWindow = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
	if c.WindowTimeout <= 0 {
		c.WindowTimeout = 10 * time.Second
	}
	return c
}

// NodeStatus is one node's row in Status.
type NodeStatus struct {
	Name       string `json:"name"`
	VIP        string `json:"vip,omitempty"`
	Generation int    `json:"generation"`
	Phase      string `json:"phase,omitempty"`
	Promoted   bool   `json:"promoted"`
	RolledBack bool   `json:"rolled_back"`
}

// Status is the rollout's operator-visible state (served at
// /debug/rollout by cmd/zdr-operator).
type Status struct {
	Name        string        `json:"rollout"`
	State       string        `json:"state"`
	Reason      string        `json:"reason,omitempty"`
	Batch       int           `json:"batch"`
	Batches     [][]string    `json:"batches,omitempty"`
	Nodes       []NodeStatus  `json:"nodes"`
	LastGate    []nodeVerdict `json:"last_gate,omitempty"`
	GateOutcome string        `json:"gate_outcome,omitempty"`
	// Telemetry is the live per-batch disruption/latency roll-up, one
	// entry per batch driven so far (gated and ungated alike).
	Telemetry []batchTelemetrySum `json:"telemetry,omitempty"`
}

// Orchestrator drives one rollout over a fixed node set.
type Orchestrator struct {
	cfg   Config
	nodes []*Node

	mu         sync.Mutex
	state      string
	reason     string
	batch      int
	batches    [][]*Node
	promoted   map[string]bool
	rolledBack map[string]bool
	lastGate   []nodeVerdict
	gateOut    string
	telemetry  []batchTelemetrySum
	// inflight maps node name → the done channel of a restart that
	// outlived its settle timeout. The node must not be re-driven until
	// that restart resolves.
	inflight map[string]chan error

	decide chan bool
	closed chan struct{}
	once   sync.Once
}

// New validates the configuration and prepares (but does not start) a
// rollout over nodes.
func New(cfg Config, nodes []*Node) (*Orchestrator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Gate.validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, errors.New("fleet: no nodes")
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.Name == "" {
			return nil, errors.New("fleet: node with empty name")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("fleet: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		if n.Target == nil {
			return nil, fmt.Errorf("fleet: node %q has no restart target", n.Name)
		}
		if !cfg.Ungated && n.window == nil {
			return nil, fmt.Errorf("fleet: node %q has no canary window (required for gated rollouts)", n.Name)
		}
	}
	return &Orchestrator{
		cfg:        cfg,
		nodes:      nodes,
		state:      stateIdle,
		promoted:   map[string]bool{},
		rolledBack: map[string]bool{},
		inflight:   map[string]chan error{},
		decide:     make(chan bool, 1),
		closed:     make(chan struct{}),
	}, nil
}

// Close tears the orchestrator down without journaling a terminal
// record — deliberately indistinguishable (to the journal) from the
// operator process dying. Canaries left holding their windows
// self-roll-back once maxHold expires; a later orchestrator resumes
// from the journal.
func (o *Orchestrator) Close() {
	o.once.Do(func() { close(o.closed) })
}

// Decide resolves a paused rollout: resume=true re-drives the remaining
// (and rolled-back) nodes, resume=false aborts the rollout. The state
// check and the send are atomic under o.mu, so concurrent Decide calls
// cannot queue a second, stale decision that would silently auto-resolve
// a later pause.
func (o *Orchestrator) Decide(resume bool) error {
	select {
	case <-o.closed:
		return errClosed
	default:
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.state != StatePaused {
		return errNotPaused
	}
	select {
	case o.decide <- resume:
		return nil
	default:
		return errDecidePending
	}
}

// Status snapshots the rollout for the admin endpoint.
func (o *Orchestrator) Status() Status {
	o.mu.Lock()
	st := Status{
		Name:        o.cfg.Name,
		State:       o.state,
		Reason:      o.reason,
		Batch:       o.batch,
		LastGate:    append([]nodeVerdict(nil), o.lastGate...),
		GateOutcome: o.gateOut,
		Telemetry:   append([]batchTelemetrySum(nil), o.telemetry...),
	}
	for _, b := range o.batches {
		var names []string
		for _, n := range b {
			names = append(names, n.Name)
		}
		st.Batches = append(st.Batches, names)
	}
	promoted := make(map[string]bool, len(o.promoted))
	for k, v := range o.promoted {
		promoted[k] = v
	}
	rolledBack := make(map[string]bool, len(o.rolledBack))
	for k, v := range o.rolledBack {
		rolledBack[k] = v
	}
	o.mu.Unlock()
	for _, n := range o.nodes {
		ns := NodeStatus{
			Name:       n.Name,
			VIP:        n.vip,
			Promoted:   promoted[n.Name],
			RolledBack: rolledBack[n.Name],
		}
		if n.state != nil {
			s := n.state()
			ns.Generation = s.Generation
			ns.Phase = s.Phase
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

func (o *Orchestrator) setState(state, reason string) {
	o.mu.Lock()
	o.state = state
	o.reason = reason
	o.mu.Unlock()
}

// pauseState enters StatePaused, first discarding any decision that
// slipped into the buffer after the previous pause resolved (a Decide
// racing the paused→running transition), so each pause consumes exactly
// one fresh decision.
func (o *Orchestrator) pauseState(reason string) {
	o.mu.Lock()
	select {
	case <-o.decide:
	default:
	}
	o.state = StatePaused
	o.reason = reason
	o.mu.Unlock()
}

// inflightResolved reports whether name is clear of any previous
// restart that outlived its settle timeout, clearing the record once
// that restart finally resolves.
func (o *Orchestrator) inflightResolved(name string) bool {
	o.mu.Lock()
	ch := o.inflight[name]
	o.mu.Unlock()
	if ch == nil {
		return true
	}
	select {
	case <-ch:
		o.mu.Lock()
		delete(o.inflight, name)
		o.mu.Unlock()
		return true
	default:
		return false
	}
}

// rpc passes one control-plane call through the fault injector. Every
// operator→node interaction funnels here, so a partitioned or lossy
// control channel degrades the rollout, never the data plane.
func (o *Orchestrator) rpc(op string) error {
	return o.cfg.control.RPC(op)
}

// Run executes the rollout to a terminal state: StateDone (all nodes
// promoted), stateAborted (operator Decide), or StatePaused left
// standing when Close unwinds a pause wait. Close mid-flight returns
// errClosed with the journal reflecting exactly what had been committed.
func (o *Orchestrator) Run() error {
	resuming := o.cfg.Resume != nil && o.cfg.Resume.Rollout == o.cfg.Name
	if resuming {
		for _, name := range sortedKeys(o.cfg.Resume.Promoted) {
			o.mu.Lock()
			o.promoted[name] = true
			o.mu.Unlock()
		}
		if err := o.journal(record{Kind: recResume, Reason: "journal recovery"}); err != nil {
			return err
		}
		if err := o.reconcileAbandoned(o.cfg.Resume); err != nil {
			return err
		}
	} else {
		var names []string
		for _, n := range o.nodes {
			names = append(names, n.Name)
		}
		if err := o.journal(record{Kind: recBegin, Nodes: names}); err != nil {
			return err
		}
	}

	// A window left armed by a dead operator must not leak into this run.
	for _, n := range o.nodes {
		if n.window != nil {
			n.window.disarm()
		}
	}

	root := o.cfg.Trace.StartSpan(obs.SpanRollout, obs.SpanContext{})
	root.SetAttr("rollout", o.cfg.Name)
	root.SetAttr("nodes", strconv.Itoa(len(o.nodes)))
	defer root.End()

	o.setState(stateRunning, "")
	err := o.run(root)
	root.Fail(err)
	return err
}

func (o *Orchestrator) run(root *obs.Span) error {
	for {
		remaining := o.remaining()
		if len(remaining) == 0 {
			if err := o.journal(record{Kind: recDone, Decision: StateDone}); err != nil {
				return err
			}
			o.setState(StateDone, "")
			return nil
		}
		batches := planBatches(remaining, o.cfg.CanarySize, o.cfg.MaxBatchSize)
		o.mu.Lock()
		o.batches = batches
		o.mu.Unlock()
		paused := false
		for i, batch := range batches {
			o.mu.Lock()
			o.batch = i
			o.mu.Unlock()
			decision, verdicts, err := o.runBatch(i, batch, root)
			if err != nil {
				o.setState(stateStopped, err.Error())
				return err
			}
			o.mu.Lock()
			o.lastGate = verdicts
			o.gateOut = decision.String()
			o.mu.Unlock()
			if decision != promote {
				reason := pauseReason(decision, verdicts)
				if err := o.journal(record{Kind: recPause, Batch: i, Reason: reason}); err != nil {
					return err
				}
				o.pauseState(reason)
				resume, err := o.awaitDecide()
				if err != nil {
					return err // Close during pause: state stays paused on disk
				}
				if !resume {
					if err := o.journal(record{Kind: recDone, Decision: stateAborted}); err != nil {
						return err
					}
					o.setState(stateAborted, reason)
					return nil
				}
				if err := o.journal(record{Kind: recResume, Reason: "operator resume"}); err != nil {
					return err
				}
				o.setState(stateRunning, "")
				paused = true
				break // re-plan over what is still unpromoted
			}
		}
		if !paused {
			continue // loop re-checks remaining; normally it is empty now
		}
	}
}

// remaining lists nodes not yet promoted, preserving rollout order.
// Rolled-back nodes remain candidates: an operator resume re-drives
// them.
func (o *Orchestrator) remaining() []*Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []*Node
	for _, n := range o.nodes {
		if !o.promoted[n.Name] {
			out = append(out, n)
		}
	}
	return out
}

func (o *Orchestrator) awaitDecide() (bool, error) {
	select {
	case resume := <-o.decide:
		return resume, nil
	case <-o.closed:
		return false, errClosed
	}
}

// reconcileAbandoned settles the batch a dead operator left mid-flight.
// First it waits for each node to exit its transition phases (the
// maxHold self-rollback resolves a held window; an in-progress hand-off
// completes or unwinds on its own) — re-driving a node that is still
// transitioning would race its previous restart. Then it reconciles the
// journal against reality: a node whose observed generation advanced
// past its journaled pre-restart generation received its promote
// verdict before the crash and only the journal record was lost, so it
// is promoted now rather than restarted a second time.
func (o *Orchestrator) reconcileAbandoned(p *Progress) error {
	byName := map[string]*Node{}
	for _, n := range o.nodes {
		byName[n.Name] = n
	}
	deadline := time.Now().Add(o.cfg.WindowTimeout + defaultMaxHold)
	for _, name := range p.InFlight {
		n := byName[name]
		if n == nil || n.state == nil {
			continue
		}
		for {
			switch n.phase() {
			// "" and "serving" are the steady states (slot idle / proxy
			// serving); "rolled-back" is the settled undo marker.
			case "", "serving", "rolled-back":
			default:
				if time.Now().Before(deadline) {
					select {
					case <-time.After(10 * time.Millisecond):
						continue
					case <-o.closed:
						return errClosed
					}
				}
				return fmt.Errorf("fleet: abandoned canary %s stuck in phase %q", name, n.phase())
			}
			break
		}
		startGen, known := p.inFlightGens[name]
		if known && n.generation() > startGen {
			if err := o.journal(record{Kind: recNodePromoted, Node: name,
				Reason: "reconciled: promoted before operator death"}); err != nil {
				return err
			}
			o.mu.Lock()
			o.promoted[name] = true
			o.mu.Unlock()
		}
	}
	return nil
}

// canary is one node's in-batch bookkeeping.
type canary struct {
	node        *Node
	telBefore   nodeTelemetry
	entered     <-chan struct{}
	verdict     chan<- error
	done        chan error
	inWindow    bool
	delivered   bool
	preRejected bool   // rollback verdict pre-loaded before window entry (timeout)
	failed      string // pre-window failure (rpc drop, restart abort, timeout)
}

// runBatch drives one batch through restart → observe → gate → settle
// and returns the gate decision. Journal invariants: recBatchStart
// precedes any node action; every node that entered its window gets a
// terminal recNodePromoted or recNodeRolledBack before recGate.
func (o *Orchestrator) runBatch(idx int, batch []*Node, root *obs.Span) (decision, []nodeVerdict, error) {
	var names []string
	gens := map[string]int{}
	for _, n := range batch {
		names = append(names, n.Name)
		gens[n.Name] = n.generation()
	}
	if err := o.journal(record{Kind: recBatchStart, Batch: idx, Nodes: names, Gens: gens}); err != nil {
		return pause, nil, err
	}
	sp := root.StartChild(obs.SpanRolloutBatch)
	sp.SetAttr("batch", strconv.Itoa(idx))
	sp.SetAttr("nodes", strings.Join(names, ","))
	defer sp.End()

	if o.cfg.Ungated {
		verdicts, err := o.runUngatedBatch(idx, batch, sp)
		return promote, verdicts, err
	}

	// Baseline: one scrape per node, before any restart. Each node is
	// judged against itself.
	cans := make([]*canary, len(batch))
	for i, n := range batch {
		c := &canary{node: n, done: make(chan error, 1)}
		cans[i] = c
		if err := o.rpc("scrape " + n.Name); err == nil {
			c.telBefore = scrapeNode(n)
		}
	}

	// Restart every node; each blocks inside its canary window. A node
	// whose previous restart outlived its settle timeout is skipped —
	// re-arming its window and restarting it again would race the still
	// in-flight restart.
	for _, c := range cans {
		if !o.inflightResolved(c.node.Name) {
			c.failed = "previous restart still in flight"
			continue
		}
		if err := o.rpc("restart " + c.node.Name); err != nil {
			c.failed = fmt.Sprintf("restart rpc: %v", err)
			continue
		}
		c.entered, c.verdict = c.node.window.arm()
		go func(c *canary) {
			c.done <- c.node.Target.Restart(core.WithTrace(sp))
		}(c)
	}
	// Wait for each to reach committed-awaiting-ready (or fail early).
	// The deadline is absolute so every canary in the batch observes
	// WindowTimeout, not just whichever node consumes the timer first.
	deadline := time.Now().Add(o.cfg.WindowTimeout)
	for _, c := range cans {
		if c.failed != "" {
			continue
		}
		select {
		case <-c.entered:
			c.inWindow = true
		case err := <-c.done:
			// Restart resolved without entering the window: a pre-commit
			// abort (old generation never stopped serving). Benign; the
			// restart is over, so disarming cannot race it.
			c.node.window.disarm()
			c.failed = fmt.Sprintf("restart did not reach canary window: %v", err)
		case <-time.After(time.Until(deadline)):
			// The restart is still in flight. Disarming here would let a
			// late-arriving Gate pass straight through — silently
			// promoting an unjudged build with no journal record — so
			// instead pre-load a rollback verdict (the channel is
			// buffered: delivery never blocks). If the node ever reaches
			// its window, drain-undo unwinds it; the window is disarmed
			// only once the restart resolves (settle loop below).
			c.verdict <- fmt.Errorf("%w: timeout waiting for canary window", errGateRejected)
			c.preRejected = true
			c.failed = "timeout waiting for canary window"
		case <-o.closed:
			return pause, nil, errClosed
		}
	}

	// Observation window: the new generations serve live traffic while
	// the old ones hold their FDs as the instant rollback.
	gateSp := sp.StartChild(obs.SpanRolloutGate)
	windows := make([]probeWindow, len(cans))
	var obsWG sync.WaitGroup
	for i, c := range cans {
		if !c.inWindow {
			continue
		}
		obsWG.Add(1)
		go func(i int, c *canary) {
			defer obsWG.Done()
			windows[i] = o.probeWindow(c.node, o.cfg.HealthWindow)
		}(i, c)
	}
	obsWG.Wait()

	// Evaluate: the window between each node's two scrapes, against its
	// own baseline, plus the probe window. A lost scrape abstains rather
	// than judge the node's whole history against a zero baseline. Nodes
	// that never entered their window vote Pause — the control plane could
	// not judge them, so a human must.
	verdicts := make([]nodeVerdict, len(cans))
	telWindows := make([]telemetryWindow, len(cans))
	for i, c := range cans {
		if !c.inWindow {
			verdicts[i] = nodeVerdict{
				Node:     c.node.Name,
				Decision: pause,
				Outcome:  pause.String(),
				Reason:   c.failed,
			}
			continue
		}
		var telAfter nodeTelemetry
		if err := o.rpc("scrape " + c.node.Name); err == nil {
			telAfter = scrapeNode(c.node)
		}
		telWindows[i] = telemetryWindowBetween(c.telBefore, telAfter)
		verdicts[i] = evalNode(o.cfg.Gate, c.node.Name, windows[i], telWindows[i])
	}
	o.mu.Lock()
	o.telemetry = append(o.telemetry, batchTelemetry(idx, names, telWindows))
	o.mu.Unlock()
	decision := aggregate(verdicts)
	gateSp.SetAttr("decision", decision.String())
	if decision != promote {
		gateSp.Fail(fmt.Errorf("fleet: batch %d gate: %s", idx, pauseReason(decision, verdicts)))
	}
	gateSp.End()

	// Settle every node that holds a window. Promote → nil verdict, the
	// READY frame goes out and the old generation drains. Anything else →
	// error verdict, drain-undo re-arms the old generation. A dropped
	// verdict RPC delivers nothing: maxHold self-rollback reclaims the
	// node, and it is accounted rolled-back like the rest. A node that
	// SHOULD have promoted but could not (verdict lost, restart error)
	// downgrades the batch to Pause — the control plane is unhealthy, so
	// the rollout must not march on.
	var rbSp *obs.Span
	rollbackSpan := func() *obs.Span {
		if rbSp == nil {
			rbSp = sp.StartChild(obs.SpanRolloutRollback)
			rbSp.SetAttr("batch", strconv.Itoa(idx))
		}
		return rbSp
	}
	defer func() {
		if rbSp != nil {
			rbSp.End()
		}
	}()
	// Deliver every verdict before waiting on any settle: a held window
	// ages against its maxHold the whole time, so queueing node N's
	// verdict behind node N-1's drain would spuriously self-roll-back the
	// tail of a large batch.
	for _, c := range cans {
		if !c.inWindow {
			continue
		}
		if err := o.rpc("verdict " + c.node.Name); err == nil {
			if decision == promote {
				c.verdict <- nil
			} else {
				c.verdict <- fmt.Errorf("%w (batch %d)", errGateRejected, idx)
			}
			c.delivered = true
		}
	}
	for _, c := range cans {
		if !c.inWindow && !c.preRejected {
			continue
		}
		settleTimeout := o.cfg.WindowTimeout
		if !c.delivered && !c.preRejected {
			// The node never hears from us again; wait out its maxHold.
			settleTimeout += maxHold(c.node)
		}
		var restartErr error
		settled := true
		select {
		case restartErr = <-c.done:
		case <-time.After(settleTimeout):
			settled = false
			restartErr = fmt.Errorf("fleet: node %s did not settle within %s", c.node.Name, settleTimeout)
		case <-o.closed:
			if c.inWindow {
				c.node.window.disarm()
			}
			return pause, nil, errClosed
		}
		if settled {
			c.node.window.disarm()
		} else {
			// The restart is still in flight: keep the window armed (a
			// pre-rejected node's queued verdict still fails a late Gate)
			// and remember the outstanding done channel so this node is
			// not re-driven concurrently with it.
			o.mu.Lock()
			o.inflight[c.node.Name] = c.done
			o.mu.Unlock()
		}
		promoted := c.delivered && decision == promote && (restartErr == nil || errors.Is(restartErr, core.ErrTakeoverNotArmed))
		if promoted {
			// ErrTakeoverNotArmed means the new generation serves but is
			// not yet releasable; that is a promotion with a warning, not
			// a rollback.
			if err := o.journal(record{Kind: recNodePromoted, Node: c.node.Name, Batch: idx}); err != nil {
				return pause, verdicts, err
			}
			o.mu.Lock()
			o.promoted[c.node.Name] = true
			o.mu.Unlock()
			continue
		}
		reason := "gate rollback"
		switch {
		case c.preRejected:
			reason = c.failed // timeout waiting for canary window
		case !c.delivered:
			reason = "verdict lost, MaxHold self-rollback"
		case decision == promote:
			reason = fmt.Sprintf("promote failed: %v", restartErr)
		}
		if decision == promote {
			decision = pause
			verdicts = append(verdicts, nodeVerdict{
				Node: c.node.Name, Decision: pause, Outcome: pause.String(), Reason: reason,
			})
		}
		rollbackSpan()
		if err := o.journal(record{Kind: recNodeRolledBack, Node: c.node.Name, Batch: idx, Reason: reason}); err != nil {
			return pause, verdicts, err
		}
		o.mu.Lock()
		o.rolledBack[c.node.Name] = true
		o.mu.Unlock()
	}
	if err := o.journal(record{Kind: recGate, Batch: idx, Decision: decision.String(), Verdicts: verdicts}); err != nil {
		return pause, verdicts, err
	}
	return decision, verdicts, nil
}

// runUngatedBatch restarts the batch with no window and no gate — the
// pre-gate release process kept for disruption comparisons. Every node
// is promoted regardless of health.
func (o *Orchestrator) runUngatedBatch(idx int, batch []*Node, sp *obs.Span) ([]nodeVerdict, error) {
	befores := make([]nodeTelemetry, len(batch))
	for i, n := range batch {
		if err := o.rpc("scrape " + n.Name); err == nil {
			befores[i] = scrapeNode(n)
		}
	}
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, n := range batch {
		if err := o.rpc("restart " + n.Name); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Target.Restart(core.WithTrace(sp))
		}(i, n)
	}
	wg.Wait()
	// The telemetry window brackets the restart itself: with no canary
	// window, whatever the ungated restart disrupted is exactly what the
	// gated-vs-ungated §6 comparison wants counted.
	telWindows := make([]telemetryWindow, len(batch))
	names := make([]string, len(batch))
	for i, n := range batch {
		names[i] = n.Name
		var after nodeTelemetry
		if err := o.rpc("scrape " + n.Name); err == nil {
			after = scrapeNode(n)
		}
		telWindows[i] = telemetryWindowBetween(befores[i], after)
	}
	o.mu.Lock()
	o.telemetry = append(o.telemetry, batchTelemetry(idx, names, telWindows))
	o.mu.Unlock()
	verdicts := make([]nodeVerdict, len(batch))
	for i, n := range batch {
		verdicts[i] = nodeVerdict{Node: n.Name, Decision: promote, Outcome: promote.String()}
		if errs[i] != nil {
			verdicts[i].Reason = errs[i].Error()
		}
		if err := o.journal(record{Kind: recNodePromoted, Node: n.Name, Batch: idx, Reason: verdicts[i].Reason}); err != nil {
			return verdicts, err
		}
		o.mu.Lock()
		o.promoted[n.Name] = true
		o.mu.Unlock()
	}
	if err := o.journal(record{Kind: recGate, Batch: idx, Decision: promote.String(), Verdicts: verdicts}); err != nil {
		return verdicts, err
	}
	return verdicts, nil
}

// probeWindow issues probes against one node for the given window and
// aggregates them. Dropped probe RPCs are not counted at all — a lossy
// control plane must not masquerade as node badness (it surfaces as an
// inconclusive channel instead).
func (o *Orchestrator) probeWindow(n *Node, window time.Duration) probeWindow {
	var pw probeWindow
	if n.probe == nil || window <= 0 {
		return pw
	}
	var lat []time.Duration
	deadline := time.Now().Add(window)
	for {
		if err := o.rpc("probe " + n.Name); err == nil {
			start := time.Now()
			err := n.probe()
			pw.Sent++
			if err != nil {
				pw.Failures++
			} else {
				lat = append(lat, time.Since(start))
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
		select {
		case <-time.After(o.cfg.ProbeInterval):
		case <-o.closed:
			pw.P99 = quantile(lat, 0.99)
			return pw
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	pw.P99 = quantile(lat, 0.99)
	return pw
}

// quantile returns the q-quantile of samples (0 when empty).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// maxHold is the node window's effective hold bound.
func maxHold(n *Node) time.Duration {
	if n.window == nil || n.window.maxHold <= 0 {
		return defaultMaxHold
	}
	return n.window.maxHold
}

// journal appends to the rollout's write-ahead log (no-op when
// unjournaled). Records carry the rollout name for attribution.
func (o *Orchestrator) journal(rec record) error {
	if o.cfg.Journal == nil {
		return nil
	}
	rec.Rollout = o.cfg.Name
	return o.cfg.Journal.append(rec)
}

// planBatches slices nodes into canary-first batches: the first batch
// has canary nodes, each next batch doubles (capped at maxBatch; 0 =
// uncapped). Within a batch VIP groups are disjoint — two nodes sharing
// a VIP are never drained concurrently — so same-VIP peers are deferred
// to later batches.
func planBatches(nodes []*Node, canary, maxBatch int) [][]*Node {
	var batches [][]*Node
	remaining := append([]*Node(nil), nodes...)
	if maxBatch <= 0 || maxBatch > len(nodes) {
		maxBatch = len(nodes)
	}
	for take := 0; len(remaining) > 0; {
		take = rampBatch(take, canary, maxBatch)
		var batch, deferred []*Node
		used := map[string]bool{}
		for _, n := range remaining {
			if len(batch) < take && (n.vip == "" || !used[n.vip]) {
				batch = append(batch, n)
				used[n.vip] = true
			} else {
				deferred = append(deferred, n)
			}
		}
		batches = append(batches, batch)
		remaining = deferred
	}
	return batches
}

// rampBatch is the canary-first size rule: the batch after one of prev
// nodes (0 before the first batch) has canary nodes first (at least 1),
// then twice prev, never more than maxBatch (> 0). Once a batch reaches
// maxBatch the size stops growing, so it cannot overflow however many
// batches a release takes.
func rampBatch(prev, canary, maxBatch int) int {
	if prev == 0 {
		return min(max(canary, 1), maxBatch)
	}
	if prev > maxBatch/2 {
		return maxBatch
	}
	return prev * 2
}

// BatchSizes is the canary-first staging of n nodes that share no VIP:
// the size of each batch in turn. The cluster simulator stages its
// releases by it.
func BatchSizes(n, canary, maxBatch int) []int {
	if maxBatch <= 0 || maxBatch > n {
		maxBatch = n
	}
	var sizes []int
	for take := 0; n > 0; n -= take {
		take = min(rampBatch(take, canary, maxBatch), n)
		sizes = append(sizes, take)
	}
	return sizes
}

func pauseReason(d decision, verdicts []nodeVerdict) string {
	for _, v := range verdicts {
		if v.Decision == d && v.Reason != "" {
			return fmt.Sprintf("%s: %s (%s)", d, v.Node, v.Reason)
		}
	}
	return d.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
