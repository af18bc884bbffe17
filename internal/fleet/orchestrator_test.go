package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/core"
	"zdr/internal/faults"
	"zdr/internal/metrics"
	"zdr/internal/obs"
)

// fakeTarget simulates a node's restart state machine without sockets:
// Restart "commits", runs the canary window's gate (exactly where a real
// proxy generation runs its ReadyGate), and either promotes or unwinds.
type fakeTarget struct {
	name     string
	win      *canaryWindow
	preGate  func() // runs before the commit + gate (simulates a slow hand-off)
	mu       sync.Mutex
	gen      int
	phase    string
	restarts int
	abortErr error // non-nil: fail before ever entering the window
}

func (f *fakeTarget) Name() string { return f.name }

func (f *fakeTarget) Restart(...core.RestartOption) error {
	f.mu.Lock()
	f.restarts++
	f.mu.Unlock()
	if f.abortErr != nil {
		return f.abortErr
	}
	if f.preGate != nil {
		f.preGate()
	}
	f.setPhase("committed-awaiting-ready")
	if err := f.win.gate(); err != nil {
		f.setPhase("rolled-back")
		return fmt.Errorf("fake: hand-off undone: %w", err)
	}
	f.mu.Lock()
	f.gen++
	f.phase = ""
	f.mu.Unlock()
	return nil
}

func (f *fakeTarget) setPhase(p string) {
	f.mu.Lock()
	f.phase = p
	f.mu.Unlock()
}

func (f *fakeTarget) state() obs.SlotState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return obs.SlotState{Name: f.name, Generation: f.gen, Phase: f.phase}
}

func (f *fakeTarget) restartCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.restarts
}

// fakeCounters self-advance on every scrape, so the orchestrator's
// before/after pair always brackets traffic. bad() controls whether the
// advance includes errors.
type fakeCounters struct {
	mu    sync.Mutex
	reqs  int64
	errs  int64
	bad   func() bool
	calls int
}

func (c *fakeCounters) snapshot() metrics.RegistrySnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls == 1 {
		// First scrape: the node's error-free pre-rollout history — the
		// baseline the gate compares windows against.
		c.reqs += 1000
	} else {
		c.reqs += 200
		if c.bad != nil && c.bad() {
			c.errs += 40 // 20% of the window's traffic errors
		}
	}
	return metrics.RegistrySnapshot{Counters: map[string]int64{
		"edge.http.requests":         c.reqs,
		"edge.http.errors.no_origin": c.errs,
	}}
}

// newFakeNode builds a gated fake node. bad (optional) makes its counter
// window erroring when it returns true.
func newFakeNode(name, vip string, bad func() bool) (*Node, *fakeTarget) {
	win := newCanaryWindow(5 * time.Second)
	ft := &fakeTarget{name: name, win: win}
	ctrs := &fakeCounters{bad: bad}
	return &Node{
		Name:    name,
		vip:     vip,
		Target:  ft,
		metrics: ctrs.snapshot,
		probe:   func() error { return nil },
		window:  win,
		state:   ft.state,
	}, ft
}

func fastConfig(name string) Config {
	return Config{
		Name:          name,
		CanarySize:    1,
		HealthWindow:  30 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
		WindowTimeout: 5 * time.Second,
	}
}

func waitState(t *testing.T, o *Orchestrator, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if o.Status().State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("orchestrator never reached %q (state %q, reason %q)",
		state, o.Status().State, o.Status().Reason)
}

// TestPlanBatchesCanaryGrowth pins the canary-first shape: a small
// first batch, then exponential growth up to the cap.
func TestPlanBatchesCanaryGrowth(t *testing.T) {
	var nodes []*Node
	for i := 0; i < 24; i++ {
		nodes = append(nodes, &Node{Name: fmt.Sprintf("n%02d", i)})
	}
	batches := planBatches(nodes, 2, 8)
	var sizes []int
	for _, b := range batches {
		sizes = append(sizes, len(b))
	}
	want := []int{2, 4, 8, 8, 2}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
}

// TestBatchSizesManyBatches: a release of more batches than an int has
// bits still ends. The size stops growing at the cap, so it never
// overflows to an empty batch.
func TestBatchSizesManyBatches(t *testing.T) {
	sizes := BatchSizes(100, 1, 1)
	if len(sizes) != 100 {
		t.Fatalf("BatchSizes(100, 1, 1) planned %d batches, want 100", len(sizes))
	}
	for i, s := range sizes {
		if s != 1 {
			t.Fatalf("batch %d has %d nodes, want 1: %v", i, s, sizes)
		}
	}
	if got, want := fmt.Sprint(BatchSizes(24, 2, 8)), "[2 4 8 8 2]"; got != want {
		t.Fatalf("BatchSizes(24, 2, 8) = %s, want %s (planBatches' shape)", got, want)
	}

	// Uncapped, 100 nodes behind one VIP go one per batch.
	var nodes []*Node
	for i := 0; i < 100; i++ {
		nodes = append(nodes, &Node{Name: fmt.Sprintf("n%03d", i), vip: "vip-a"})
	}
	if got := len(planBatches(nodes, 1, 0)); got != 100 {
		t.Fatalf("100 same-VIP nodes planned into %d batches, want 100", got)
	}
}

// TestPlanBatchesVIPDisjoint: two nodes sharing a VIP group are never
// co-scheduled — the batch planner defers the second to a later batch,
// so they never drain together.
func TestPlanBatchesVIPDisjoint(t *testing.T) {
	nodes := []*Node{
		{Name: "a1", vip: "vip-a"},
		{Name: "a2", vip: "vip-a"},
		{Name: "b1", vip: "vip-b"},
		{Name: "a3", vip: "vip-a"},
	}
	batches := planBatches(nodes, 4, 0)
	for bi, b := range batches {
		seen := map[string]bool{}
		for _, n := range b {
			if n.vip != "" && seen[n.vip] {
				t.Fatalf("batch %d co-schedules two %s nodes: %v", bi, n.vip, names(b))
			}
			seen[n.vip] = true
		}
	}
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total != len(nodes) {
		t.Fatalf("planner lost nodes: %d of %d scheduled", total, len(nodes))
	}
	if len(batches) < 3 {
		t.Fatalf("three same-VIP nodes need >= 3 batches, got %d", len(batches))
	}
}

func names(b []*Node) []string {
	var out []string
	for _, n := range b {
		out = append(out, n.Name)
	}
	return out
}

// TestOrchestratorHappyPath: five healthy nodes promote through
// canary-first batches to a done rollout, with the journal recording
// every promotion.
func TestOrchestratorHappyPath(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "r.jsonl")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var nodes []*Node
	var fts []*fakeTarget
	for i := 0; i < 5; i++ {
		n, ft := newFakeNode(fmt.Sprintf("n%d", i), "", nil)
		nodes = append(nodes, n)
		fts = append(fts, ft)
	}
	cfg := fastConfig("happy")
	cfg.Journal = j
	cfg.Trace = obs.NewTracer("test")
	o, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := o.Status()
	if st.State != StateDone {
		t.Fatalf("state %q, want done", st.State)
	}
	for i, ft := range fts {
		if ft.state().Generation != 1 {
			t.Fatalf("node %d generation %d, want 1", i, ft.state().Generation)
		}
	}
	recs, err := Replay(jpath)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	if counts[recBegin] != 1 || counts[recNodePromoted] != 5 || counts[recDone] != 1 {
		t.Fatalf("journal counts %v", counts)
	}
	// Canary-first: batches of 1, 2, 2.
	if counts[recBatchStart] != 3 {
		t.Fatalf("batch starts %d, want 3", counts[recBatchStart])
	}
	// Span tree: one rollout root with batch children carrying gates.
	roots := obs.BuildTree(cfg.Trace.Finished())
	var sawGate bool
	obs.Walk(roots, func(n *obs.SpanNode) {
		if n.Name == obs.SpanRolloutGate {
			sawGate = true
		}
	})
	if !sawGate {
		t.Fatal("no rollout.gate span recorded")
	}
}

// TestOrchestratorBadCanaryPausesFleet: the canary batch fails its gate;
// the rollout rolls the canary back and auto-pauses with every other
// node still on the old generation.
func TestOrchestratorBadCanaryPausesFleet(t *testing.T) {
	var bad atomic.Bool
	bad.Store(true)
	var nodes []*Node
	var fts []*fakeTarget
	for i := 0; i < 4; i++ {
		var b func() bool
		if i == 0 {
			b = bad.Load // the canary (first node) errors
		}
		n, ft := newFakeNode(fmt.Sprintf("n%d", i), "", b)
		nodes = append(nodes, n)
		fts = append(fts, ft)
	}
	o, err := New(fastConfig("bad-canary"), nodes)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitState(t, o, StatePaused)
	st := o.Status()
	if st.GateOutcome != "rollback" {
		t.Fatalf("gate outcome %q, want rollback", st.GateOutcome)
	}
	if ph := fts[0].state().Phase; ph != "rolled-back" {
		t.Fatalf("canary phase %q, want rolled-back", ph)
	}
	if fts[0].state().Generation != 0 {
		t.Fatalf("canary promoted to gen %d despite gate", fts[0].state().Generation)
	}
	for i := 1; i < 4; i++ {
		if fts[i].restartCount() != 0 {
			t.Fatalf("node %d restarted while canary failed", i)
		}
	}
	if err := o.Decide(false); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	if o.Status().State != stateAborted {
		t.Fatalf("state %q after abort", o.Status().State)
	}
}

// TestOrchestratorPauseResume: the operator fixes the build (the bad
// knob flips off) and resumes; the rolled-back canary is re-driven and
// the rollout completes.
func TestOrchestratorPauseResume(t *testing.T) {
	var bad atomic.Bool
	bad.Store(true)
	n0, ft0 := newFakeNode("n0", "", bad.Load)
	n1, ft1 := newFakeNode("n1", "", nil)
	o, err := New(fastConfig("pause-resume"), []*Node{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitState(t, o, StatePaused)
	bad.Store(false) // "ship the fixed build"
	if err := o.Decide(true); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run after resume: %v", err)
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q, want done", o.Status().State)
	}
	if ft0.state().Generation != 1 || ft1.state().Generation != 1 {
		t.Fatalf("generations %d/%d, want 1/1", ft0.state().Generation, ft1.state().Generation)
	}
	if ft0.restartCount() != 2 {
		t.Fatalf("canary restarted %d times, want 2 (rollback then retry)", ft0.restartCount())
	}
}

// TestOrchestratorResumeSkipsPromoted: a resumed rollout never
// re-restarts nodes whose promotion was journaled.
func TestOrchestratorResumeSkipsPromoted(t *testing.T) {
	n0, ft0 := newFakeNode("n0", "", nil)
	n1, ft1 := newFakeNode("n1", "", nil)
	cfg := fastConfig("resumed")
	cfg.Resume = &Progress{
		Rollout:  "resumed",
		nodes:    []string{"n0", "n1"},
		Promoted: map[string]bool{"n0": true},
	}
	o, err := New(cfg, []*Node{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if ft0.restartCount() != 0 {
		t.Fatalf("promoted node restarted %d times on resume", ft0.restartCount())
	}
	if ft1.restartCount() != 1 {
		t.Fatalf("unpromoted node restarted %d times, want 1", ft1.restartCount())
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q", o.Status().State)
	}
}

// TestOrchestratorGateDuringAwaitingReady (the release-state edge case):
// the health window runs precisely while the canary is
// committed-awaiting-ready — probes observe that phase, and the gate
// still promotes on a healthy window.
func TestOrchestratorGateDuringAwaitingReady(t *testing.T) {
	win := newCanaryWindow(5 * time.Second)
	ft := &fakeTarget{name: "n0", win: win}
	ctrs := &fakeCounters{}
	var sawAwaitingReady atomic.Bool
	node := &Node{
		Name:    "n0",
		Target:  ft,
		metrics: ctrs.snapshot,
		probe: func() error {
			if ft.state().Phase == "committed-awaiting-ready" {
				sawAwaitingReady.Store(true)
			}
			return nil
		},
		window: win,
		state:  ft.state,
	}
	o, err := New(fastConfig("awaiting-ready"), []*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sawAwaitingReady.Load() {
		t.Fatal("health window never observed committed-awaiting-ready — the gate did not run inside the canary window")
	}
	if ft.state().Generation != 1 {
		t.Fatalf("generation %d, want 1", ft.state().Generation)
	}
}

// TestOrchestratorUngated: the pre-gate release process promotes a bad
// build everywhere — kept as the §6 comparison arm, and as proof the
// gating is what blocks the disruption.
func TestOrchestratorUngated(t *testing.T) {
	alwaysBad := func() bool { return true }
	var nodes []*Node
	var fts []*fakeTarget
	for i := 0; i < 4; i++ {
		n, ft := newFakeNode(fmt.Sprintf("n%d", i), "", alwaysBad)
		n.window = nil // ungated rollouts need no canary window
		nodes = append(nodes, n)
		fts = append(fts, ft)
	}
	cfg := fastConfig("ungated")
	cfg.Ungated = true
	o, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q", o.Status().State)
	}
	for i, ft := range fts {
		if ft.state().Generation != 1 {
			t.Fatalf("node %d generation %d: ungated rollout must promote unconditionally", i, ft.state().Generation)
		}
	}
}

// timedTarget is a scripted ungated restart: it takes delay, returns err,
// and records when it began and ended.
type timedTarget struct {
	name       string
	delay      time.Duration
	err        error
	began, end time.Time
}

func (f *timedTarget) Name() string { return f.name }

func (f *timedTarget) Restart(...core.RestartOption) error {
	f.began = time.Now()
	time.Sleep(f.delay)
	f.end = time.Now()
	return f.err
}

// runUngated runs an ungated rollout over targets, one node each, with
// batches capped at maxBatch, and returns its journal.
func runUngated(t *testing.T, maxBatch int, targets ...*timedTarget) []record {
	t.Helper()
	jpath := filepath.Join(t.TempDir(), "r.jsonl")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var nodes []*Node
	for _, ft := range targets {
		nodes = append(nodes, &Node{Name: ft.name, Target: ft})
	}
	cfg := fastConfig("ungated")
	cfg.Ungated, cfg.MaxBatchSize, cfg.Journal = true, maxBatch, j
	o, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q", o.Status().State)
	}
	recs, err := Replay(jpath)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestOrchestratorUngatedRecordsFailedRestart: an ungated restart that
// fails is recorded against its node, and the rollout goes on to the
// next batch.
func TestOrchestratorUngatedRecordsFailedRestart(t *testing.T) {
	bad := &timedTarget{name: "a", err: errors.New("boom")}
	next := &timedTarget{name: "b"}
	recs := runUngated(t, 1, bad, next)
	if next.began.IsZero() {
		t.Fatal("the rollout stopped at the failed restart")
	}
	reasons := map[string]string{}
	for _, r := range recs {
		if r.Kind == recNodePromoted {
			reasons[r.Node] = r.Reason
		}
	}
	if !strings.Contains(reasons["a"], "boom") || reasons["b"] != "" {
		t.Fatalf("journaled restart outcomes %q, want a's error and none for b", reasons)
	}
}

// TestOrchestratorUngatedBatchConcurrency: a batch restarts its nodes
// concurrently, and the next batch starts only after the whole batch
// has finished.
func TestOrchestratorUngatedBatchConcurrency(t *testing.T) {
	const delay = 100 * time.Millisecond
	// Batches of 1 then 2: a, then b and c together, then d.
	a := &timedTarget{name: "a"}
	b := &timedTarget{name: "b", delay: delay}
	c := &timedTarget{name: "c", delay: delay}
	d := &timedTarget{name: "d"}
	runUngated(t, 2, a, b, c, d)
	if b.began.After(c.end) || c.began.After(b.end) {
		t.Fatal("b and c share a batch but restarted one after the other")
	}
	if d.began.Before(b.end) || d.began.Before(c.end) {
		t.Fatal("the next batch started before the batch ahead of it finished")
	}
}

// TestOrchestratorPartitionedControlPlane: with the operator↔node
// channel severed before the rollout starts, no restart command gets
// through — the fleet stays untouched and the rollout pauses for a
// human.
func TestOrchestratorPartitionedControlPlane(t *testing.T) {
	in := faults.NewInjector(faults.Scenario{Seed: 1})
	in.SetPartitioned(true)
	n0, ft0 := newFakeNode("n0", "", nil)
	cfg := fastConfig("partitioned")
	cfg.control = in
	o, err := New(cfg, []*Node{n0})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitState(t, o, StatePaused)
	if ft0.restartCount() != 0 {
		t.Fatal("restart crossed a partitioned control plane")
	}
	if err := o.Decide(false); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// waitReason blocks until the paused rollout's reason contains want.
func waitReason(t *testing.T, o *Orchestrator, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := o.Status()
		if st.State == StatePaused && strings.Contains(st.Reason, want) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("orchestrator never paused with reason containing %q (state %q, reason %q)",
		want, o.Status().State, o.Status().Reason)
}

// TestOrchestratorLateWindowEntryRollsBack pins the window-timeout
// contract: a canary whose restart outlives WindowTimeout must NOT be
// silently promoted when it finally reaches its gate. The orchestrator
// pre-loads a rollback verdict instead of disarming, so the late Gate
// fails and drain-undo unwinds; and while that restart is still in
// flight, an operator resume must not re-drive the node concurrently.
func TestOrchestratorLateWindowEntryRollsBack(t *testing.T) {
	gateCh := make(chan struct{})
	n0, ft0 := newFakeNode("n0", "", nil)
	ft0.preGate = func() { <-gateCh }
	cfg := fastConfig("late-entry")
	cfg.WindowTimeout = 50 * time.Millisecond
	o, err := New(cfg, []*Node{n0})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitReason(t, o, "timeout waiting for canary window")
	if ft0.state().Generation != 0 {
		t.Fatalf("timed-out canary promoted to gen %d", ft0.state().Generation)
	}
	// Resume while the first restart is still stuck pre-gate: the node
	// must be fenced off, not restarted a second time in parallel.
	if err := o.Decide(true); err != nil {
		t.Fatal(err)
	}
	waitReason(t, o, "previous restart still in flight")
	if got := ft0.restartCount(); got != 1 {
		t.Fatalf("stuck node restarted %d times, want 1 (no concurrent re-drive)", got)
	}
	// Release the stuck restart: its Gate must consume the pre-loaded
	// rollback verdict and unwind, never promote.
	close(gateCh)
	settleDeadline := time.Now().Add(5 * time.Second)
	for ft0.state().Phase != "rolled-back" {
		if !time.Now().Before(settleDeadline) {
			t.Fatalf("late canary never rolled back (phase %q, gen %d)",
				ft0.state().Phase, ft0.state().Generation)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ft0.state().Generation != 0 {
		t.Fatalf("late canary gen %d after rollback, want 0", ft0.state().Generation)
	}
	// With the old restart resolved, a resume re-drives the node cleanly.
	if err := o.Decide(true); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q, want done", o.Status().State)
	}
	if ft0.state().Generation != 1 {
		t.Fatalf("gen %d after clean re-drive, want 1", ft0.state().Generation)
	}
}

// TestOrchestratorWindowTimeoutPerCanary: WindowTimeout is a batch-wide
// absolute deadline every canary observes. With the old shared
// time.After channel the first timed-out canary consumed the only
// timer value and the second blocked forever.
func TestOrchestratorWindowTimeoutPerCanary(t *testing.T) {
	gateCh := make(chan struct{})
	var nodes []*Node
	var fts []*fakeTarget
	for i := 0; i < 2; i++ {
		n, ft := newFakeNode(fmt.Sprintf("n%d", i), "", nil)
		ft.preGate = func() { <-gateCh }
		nodes = append(nodes, n)
		fts = append(fts, ft)
	}
	cfg := fastConfig("slow-batch")
	cfg.CanarySize = 2
	cfg.WindowTimeout = 50 * time.Millisecond
	o, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run() }()
	waitState(t, o, StatePaused) // hangs here without the absolute deadline
	close(gateCh)                // both stuck restarts resolve via their queued rollbacks
	if err := o.Decide(false); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, ft := range fts {
		if ft.state().Generation != 0 {
			t.Fatalf("node %d promoted to gen %d despite window timeout", i, ft.state().Generation)
		}
	}
}

// TestOrchestratorBaselineSnapshotDropAbstains: a lost baseline scrape
// must make the node's own report abstain, not judge the node's full
// cumulative history against a zero baseline. This node's lifetime
// error rate (50%) dwarfs MaxErrorRateDelta; only the missing-baseline
// guard keeps the healthy window from being spuriously rolled back.
func TestOrchestratorBaselineSnapshotDropAbstains(t *testing.T) {
	win := newCanaryWindow(5 * time.Second)
	ft := &fakeTarget{name: "n0", win: win}
	node := &Node{
		Name:   "n0",
		Target: ft,
		probe:  func() error { return nil },
		window: win,
		state:  ft.state,
	}
	// The baseline scrape is lost: the node has no surface to read until
	// its restart is under way, and then reports its lifetime totals.
	ft.preGate = func() {
		node.metrics = func() metrics.RegistrySnapshot {
			return metrics.RegistrySnapshot{Counters: map[string]int64{
				"edge.http.requests":         10000,
				"edge.http.errors.no_origin": 5000,
			}}
		}
	}
	o, err := New(fastConfig("no-baseline"), []*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if o.Status().State != StateDone {
		t.Fatalf("state %q (reason %q): missing baseline must abstain, not roll back",
			o.Status().State, o.Status().Reason)
	}
	if ft.state().Generation != 1 {
		t.Fatalf("gen %d, want 1", ft.state().Generation)
	}
}

// TestDecideSingleFlight: each pause consumes exactly one decision — a
// second Decide cannot queue a stale value, and a decision left over
// from a resolved pause is discarded when the next pause begins.
func TestDecideSingleFlight(t *testing.T) {
	n, _ := newFakeNode("n0", "", nil)
	o, err := New(fastConfig("decide"), []*Node{n})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Decide(true); !errors.Is(err, errNotPaused) {
		t.Fatalf("Decide on idle rollout: %v, want ErrNotPaused", err)
	}
	o.setState(StatePaused, "test")
	if err := o.Decide(true); err != nil {
		t.Fatalf("first Decide: %v", err)
	}
	if err := o.Decide(true); !errors.Is(err, errDecidePending) {
		t.Fatalf("second Decide: %v, want ErrDecidePending", err)
	}
	// Entering a new pause discards the undelivered decision.
	o.pauseState("again")
	select {
	case <-o.decide:
		t.Fatal("stale decision survived pause entry")
	default:
	}
	o.Close()
	if err := o.Decide(true); !errors.Is(err, errClosed) {
		t.Fatalf("Decide after Close: %v, want ErrClosed", err)
	}
}

// TestOrchestratorUngatedRequiresNoWindow / gated requires windows.
func TestOrchestratorValidation(t *testing.T) {
	n := &Node{Name: "n0", Target: &fakeTarget{name: "n0"}}
	if _, err := New(fastConfig("v"), []*Node{n}); err == nil {
		t.Fatal("gated rollout accepted a windowless node")
	}
	if _, err := New(fastConfig("v"), nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	cfg := fastConfig("v")
	cfg.Gate.maxP99Factor = 0.3
	if _, err := New(cfg, []*Node{n}); err == nil {
		t.Fatal("invalid gate config accepted")
	}
}
