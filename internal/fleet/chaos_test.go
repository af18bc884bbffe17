// Fleet chaos: the acceptance scenarios for the release control plane.
// A 24-node simulated fleet of real Edge proxies (real sockets, real
// Socket Takeover hand-offs) is rolled out under live HTTP load:
//
//   - a bad build fails the canary batch's health gate → the rollout
//     auto-pauses, the canaries roll back via drain-undo with zero
//     transport-level client failures, and every other node never
//     leaves the old generation;
//   - the operator is killed mid-batch → abandoned canaries self-roll-
//     back via MaxHold, and a second operator resumes from the journal
//     and converges to the same terminal state as an uninterrupted run;
//   - the operator↔node control channel is partitioned mid-window → the
//     verdict is lost, the canary reclaims itself, the data plane never
//     drops a request.
package fleet_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/fleet"
	"zdr/internal/metrics"
	"zdr/internal/netx"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// simNode is one node of the fleet under test, named for its audits.
type simNode struct {
	name string
	slot *core.ProxySlot
	reg  *metrics.Registry
	led  *disrupt.Ledger
	inj  *faults.Injector
}

// newSimFleet starts n gated Edge nodes (fleet.NewFleet); build completes
// node i's config for each generation.
func newSimFleet(t *testing.T, n int, maxHold time.Duration, build func(i int, cfg *proxy.Config)) (*fleet.Fleet, []*simNode) {
	t.Helper()
	f, err := fleet.NewFleet(n, true, maxHold, build)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	sims := make([]*simNode, n)
	for i := range sims {
		sims[i] = &simNode{name: f.Nodes[i].Name, slot: f.Slots[i], reg: f.Regs[i]}
	}
	return f, sims
}

// badWhile makes bad builds while bad holds. A good build serves /hello
// from static content (the DSR path); a bad build omits it AND has no
// origins, so every request is answered 503 + edge.http.errors.no_origin
// — counter-visible badness with zero transport failures.
func badWhile(bad *atomic.Bool) func(int, *proxy.Config) {
	return func(_ int, cfg *proxy.Config) {
		if !bad.Load() {
			cfg.StaticContent = map[string][]byte{"/hello": []byte("hello")}
		}
	}
}

// loadCounts separates the two failure classes: transport failures
// (dial/read/reset — what Zero Downtime Release must keep at zero) and
// server errors (5xx — what a bad build produces and the gate detects).
type loadCounts struct {
	ok        atomic.Int64
	serverErr atomic.Int64
	transport atomic.Int64
	lastErr   atomic.Value
}

// hammer drives GETs at every node of f until f closes, counting each
// node's outcomes.
func hammer(f *fleet.Fleet) []*loadCounts {
	perNode := make([]*loadCounts, len(f.Nodes))
	for i := range perNode {
		perNode[i] = &loadCounts{}
	}
	f.Load(func(i, code int, err error) {
		c := perNode[i]
		switch {
		case err != nil:
			c.transport.Add(1)
			c.lastErr.Store(fmt.Errorf("%s: %w", f.Nodes[i].Name, err))
		case code == 200:
			c.ok.Add(1)
		default:
			c.serverErr.Add(1)
		}
	})
	return perNode
}

func waitOrchestratorState(t *testing.T, o *fleet.Orchestrator, state string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if o.Status().State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := o.Status()
	t.Fatalf("orchestrator never reached %q (state %q, reason %q)", state, st.State, st.Reason)
}

// TestFleetCloseLeavesNothing: a fleet that served load through one
// gated rollout leaves no descriptor and no goroutine behind once closed.
// Every harness that stands up a fleet shares this code.
func TestFleetCloseLeavesNothing(t *testing.T) {
	fds0, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	goroutines0 := runtime.NumGoroutine()

	f, err := fleet.NewFleet(3, true, 5*time.Second, badWhile(new(atomic.Bool)))
	if err != nil {
		t.Fatal(err)
	}
	perNode := hammer(f)
	o, err := fleet.New(fleet.Config{
		Name:          "leak",
		HealthWindow:  100 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
	}, f.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if st := o.Status(); st.State != fleet.StateDone {
		t.Fatalf("rollout state %q (reason %q), want done", st.State, st.Reason)
	}
	f.Close()
	for i, c := range perNode {
		if c.ok.Load() == 0 || c.transport.Load() != 0 {
			t.Fatalf("node %d: %d ok, %d transport failures (last: %v)", i, c.ok.Load(), c.transport.Load(), c.lastErr.Load())
		}
	}

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		fds, _ := netx.OpenFDCount()
		if fds <= fds0 && runtime.NumGoroutine() <= goroutines0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d descriptors and %d goroutines, at start %d and %d",
				fds, runtime.NumGoroutine(), fds0, goroutines0)
		}
	}
}

// TestFleetChaosBadCanaryRollsBack is the headline acceptance scenario:
// a 24-node rollout of a broken build. The canary batch fails its gate,
// rolls back via drain-undo, the rollout pauses, and nobody else is
// touched — all under live client load with zero transport failures.
func TestFleetChaosBadCanaryRollsBack(t *testing.T) {
	var bad atomic.Bool
	f, sims := newSimFleet(t, 24, 10*time.Second, badWhile(&bad))
	perNode := hammer(f)
	// Let the baseline accumulate error-free history on every node.
	time.Sleep(150 * time.Millisecond)

	// Ship the bad build.
	bad.Store(true)

	jpath := filepath.Join(t.TempDir(), "rollout.jsonl")
	j, err := fleet.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tracer := obs.NewTracer("fleet-chaos")
	cfg := fleet.Config{
		Name:          "bad-build",
		CanarySize:    2,
		GrowthFactor:  2,
		HealthWindow:  300 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Journal:       j,
		Trace:         tracer,
		Fence:         fleet.NewFence(),
	}
	o, err := fleet.New(cfg, f.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitOrchestratorState(t, o, fleet.StatePaused, 30*time.Second)

	st := o.Status()
	if st.GateOutcome != "rollback" {
		t.Fatalf("gate outcome %q, want rollback (reason %q)", st.GateOutcome, st.Reason)
	}
	canaries := map[string]bool{}
	if len(st.Batches) == 0 || len(st.Batches[0]) != 2 {
		t.Fatalf("canary batch %v, want 2 nodes", st.Batches)
	}
	for _, n := range st.Batches[0] {
		canaries[n] = true
	}
	for _, s := range sims {
		state := s.slot.State()
		if state.Generation != 1 {
			t.Fatalf("%s reached generation %d — nobody may be promoted", s.name, state.Generation)
		}
		if canaries[s.name] {
			if state.Phase != "rolled-back" {
				t.Fatalf("canary %s phase %q, want rolled-back", s.name, state.Phase)
			}
			// The rollback mechanism must be drain-undo, not a rebind.
			// The sender's undo settles asynchronously after its lease
			// breaks, so poll briefly.
			undoDeadline := time.Now().Add(3 * time.Second)
			for s.reg.Snapshot().Counters["proxy.takeover_undos"] != 1 && time.Now().Before(undoDeadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := s.reg.Snapshot().Counters["proxy.takeover_undos"]; got != 1 {
				t.Fatalf("canary %s takeover_undos = %d, want 1", s.name, got)
			}
		} else {
			if got := s.reg.Snapshot().Counters["proxy.takeover_commits"]; got != 0 {
				t.Fatalf("untouched node %s saw %d takeover commits", s.name, got)
			}
		}
	}

	// The paused rollout is then explicitly abandoned.
	if err := o.Decide(false); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := o.Status().State; got != fleet.StateAborted {
		t.Fatalf("state %q after abort", got)
	}

	// Let the un-drained canaries serve a little longer, then audit load.
	time.Sleep(100 * time.Millisecond)
	f.Close()
	for i, s := range sims {
		c := perNode[i]
		if tf := c.transport.Load(); tf != 0 {
			t.Fatalf("%s: %d transport-level failures (last: %v) — drain-undo must be invisible",
				s.name, tf, c.lastErr.Load())
		}
		if c.ok.Load() == 0 {
			t.Fatalf("%s: load loop starved", s.name)
		}
		if !canaries[s.name] {
			if se := c.serverErr.Load(); se != 0 {
				t.Fatalf("untouched node %s served %d errors — bad build leaked past the canary", s.name, se)
			}
		}
	}

	// Journal audit: both canaries rolled back, nobody promoted, and the
	// pause is on disk.
	recs, err := fleet.Replay(jpath)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	if counts[fleet.RecNodeRolledBack] != 2 || counts[fleet.RecNodePromoted] != 0 {
		t.Fatalf("journal counts %v: want 2 rollbacks, 0 promotions", counts)
	}
	if counts[fleet.RecPause] != 1 || counts[fleet.RecDone] != 1 {
		t.Fatalf("journal counts %v: want 1 pause, 1 done", counts)
	}

	// Trace audit: the rollout tree records the rollback.
	var sawRollback bool
	for _, r := range tracer.Finished() {
		if r.Name == obs.SpanRolloutRollback {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatal("no rollout.rollback span recorded")
	}
}

// TestFleetChaosOperatorCrashResume: the operator dies mid-batch; its
// abandoned canaries self-roll-back via MaxHold; a second operator
// recovers the journal, skips the promoted nodes, re-drives the rest,
// and lands in the same terminal state an uninterrupted rollout reaches
// — every node on generation 2, zero failed requests throughout.
func TestFleetChaosOperatorCrashResume(t *testing.T) {
	const fleetSize = 24
	f, sims := newSimFleet(t, fleetSize, 500*time.Millisecond, badWhile(new(atomic.Bool)))
	perNode := hammer(f)
	time.Sleep(100 * time.Millisecond)

	jpath := filepath.Join(t.TempDir(), "rollout.jsonl")
	j, err := fleet.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.Config{
		Name:          "crash-resume",
		CanarySize:    1,
		GrowthFactor:  2,
		HealthWindow:  250 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Journal:       j,
	}
	o1, err := fleet.New(cfg, f.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o1.Run() }()

	// Kill the operator once at least one node is promoted AND a later
	// batch is inside its canary window — mid-batch by construction.
	killDeadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(killDeadline) {
			t.Fatal("never caught the rollout mid-batch")
		}
		st := o1.Status()
		promoted := 0
		for _, n := range st.Nodes {
			if n.Promoted {
				promoted++
			}
		}
		inWindow := false
		for _, s := range sims {
			if s.slot.State().Phase == "committed-awaiting-ready" {
				inWindow = true
			}
		}
		if promoted >= 1 && inWindow {
			break
		}
		if st.State == fleet.StateDone {
			t.Fatal("rollout finished before the kill — shrink the windows")
		}
		time.Sleep(2 * time.Millisecond)
	}
	o1.Close() // simulated crash: no terminal journal record
	if err := <-runDone; err != fleet.ErrClosed {
		t.Fatalf("killed run returned %v, want ErrClosed", err)
	}
	j.Close()

	// Recover from the journal exactly as a fresh operator process would.
	recs, err := fleet.Replay(jpath)
	if err != nil {
		t.Fatal(err)
	}
	prog := fleet.Recover(recs)
	if prog.Rollout != "crash-resume" {
		t.Fatalf("recovered rollout %q", prog.Rollout)
	}
	if len(prog.Promoted) == 0 {
		t.Fatal("kill landed before any promotion — wanted mid-rollout")
	}
	if len(prog.Promoted) == fleetSize {
		t.Fatal("every node already promoted — kill landed too late")
	}

	j2, err := fleet.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg2 := cfg
	cfg2.Journal = j2
	cfg2.Resume = &prog
	o2, err := fleet.New(cfg2, f.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	run2Done := make(chan error, 1)
	go func() { run2Done <- o2.Run() }()
	resumeDeadline := time.Now().Add(60 * time.Second)
wait2:
	for {
		select {
		case err := <-run2Done:
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			break wait2
		default:
		}
		if st := o2.Status(); st.State == fleet.StatePaused {
			t.Fatalf("resumed rollout paused: %q (gate %+v)", st.Reason, st.LastGate)
		}
		if time.Now().After(resumeDeadline) {
			st := o2.Status()
			t.Fatalf("resumed rollout never finished (state %q, reason %q)", st.State, st.Reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := o2.Status().State; got != fleet.StateDone {
		t.Fatalf("resumed rollout state %q, want done", got)
	}

	// Convergence: the terminal fleet state is indistinguishable from an
	// uninterrupted rollout — every node on generation 2, steady phase.
	for _, s := range sims {
		st := s.slot.State()
		if st.Generation != 2 {
			t.Fatalf("%s generation %d, want 2", s.name, st.Generation)
		}
		if st.Phase != "serving" {
			t.Fatalf("%s phase %q, want serving", s.name, st.Phase)
		}
	}

	f.Close()
	for i, s := range sims {
		c := perNode[i]
		if tf := c.transport.Load(); tf != 0 {
			t.Fatalf("%s: %d transport failures across crash+resume (last: %v)",
				s.name, tf, c.lastErr.Load())
		}
		if se := c.serverErr.Load(); se != 0 {
			t.Fatalf("%s: %d server errors from a good build", s.name, se)
		}
	}
}

// TestFleetChaosControlPartitionMidWindow: the control channel is
// severed while canaries hold their windows. The verdict never arrives;
// MaxHold self-rollback reclaims the nodes; the rollout pauses; the data
// plane never failed a request. Control-plane loss must degrade the
// ROLLOUT, never the traffic.
func TestFleetChaosControlPartitionMidWindow(t *testing.T) {
	f, sims := newSimFleet(t, 4, 400*time.Millisecond, badWhile(new(atomic.Bool)))
	perNode := hammer(f)
	time.Sleep(100 * time.Millisecond)

	in := faults.NewInjector(faults.Scenario{Seed: 7})
	cfg := fleet.Config{
		Name:          "partition",
		CanarySize:    1,
		HealthWindow:  300 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Control:       in,
	}
	o, err := fleet.New(cfg, f.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()

	// Sever the control plane the moment the canary enters its window.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("canary never entered its window")
		}
		entered := false
		for _, s := range sims {
			if s.slot.State().Phase == "committed-awaiting-ready" {
				entered = true
			}
		}
		if entered {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	in.SetPartitioned(true)

	waitOrchestratorState(t, o, fleet.StatePaused, 30*time.Second)
	if in.Injected(faults.OpDropRPC) == 0 {
		t.Fatal("partition never dropped an RPC")
	}

	// The abandoned canary reclaimed itself: old generation serving, no
	// promotion anywhere.
	rolledBack := 0
	for _, s := range sims {
		st := s.slot.State()
		if st.Generation != 1 {
			t.Fatalf("%s generation %d under a partitioned control plane", s.name, st.Generation)
		}
		if st.Phase == "rolled-back" {
			rolledBack++
			// The sender's undo settles asynchronously; poll briefly.
			undoDeadline := time.Now().Add(3 * time.Second)
			for s.reg.Snapshot().Counters["proxy.takeover_undos"] != 1 && time.Now().Before(undoDeadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := s.reg.Snapshot().Counters["proxy.takeover_undos"]; got != 1 {
				t.Fatalf("%s takeover_undos = %d, want 1", s.name, got)
			}
		}
	}
	if rolledBack == 0 {
		t.Fatal("no node self-rolled-back after the partition")
	}

	// Heal the partition and abandon the rollout cleanly.
	in.SetPartitioned(false)
	if err := o.Decide(false); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}

	time.Sleep(50 * time.Millisecond)
	f.Close()
	for i, s := range sims {
		c := perNode[i]
		if tf := c.transport.Load(); tf != 0 {
			t.Fatalf("%s: %d transport failures (last: %v) — partition hit the data plane",
				s.name, tf, c.lastErr.Load())
		}
		if se := c.serverErr.Load(); se != 0 {
			t.Fatalf("%s: %d server errors from a good build", s.name, se)
		}
	}
}
