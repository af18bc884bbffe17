// Drain-undo chaos: the acceptance scenario for the post-commit recovery
// window (ProtoDrainUndo). The receiver is killed at each instant between
// COMMIT and READY — failed readiness gate, READY frame lost on the wire,
// silent wedge past the lease timeout — under live HTTP load, and every
// time the release must be a non-event: the sender un-drains from its
// retained FD dups and keeps serving the same generation, no client sees
// a reset, no RestartFresh is needed, the FD ledger returns to baseline,
// and the trace shows a takeover.undo span carrying the retained-FD
// count.
package faults_test

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/netx"
	"zdr/internal/obs"
	"zdr/internal/proxy"
	"zdr/internal/takeover"
)

// frameReady mirrors the wire protocol's READY frame kind (msgReady). The
// injection keys on the first byte of outgoing frames; drift fails the
// "injection fired" assertion rather than silently passing.
const frameReady = 8

const (
	gateHealthy = iota // readiness gate passes
	gateFailing        // receiver death instant A: gate reports unhealthy
	gateWedged         // receiver death instant C: gate hangs past the lease
)

func TestChaosReceiverDeathPostCommit(t *testing.T) {
	tracer := obs.NewTracer("undo-chaos")
	var gateMode atomic.Int64
	tp := buildChaosTopo(t, nil, func(cfg *proxy.Config) {
		cfg.Trace = tracer
		cfg.TakeoverReadyTimeout = 250 * time.Millisecond
		cfg.ReadyGate = func() error {
			switch gateMode.Load() {
			case gateFailing:
				return errors.New("injected unhealthy receiver")
			case gateWedged:
				time.Sleep(1200 * time.Millisecond) // sender's lease expires underneath
			}
			return nil
		}
	})
	addr := tp.edge.Current().Addr(proxy.VIPWeb)

	for i := 0; i < 3; i++ {
		if err := doHTTP(addr, "GET", "/warm", nil); err != nil {
			t.Fatalf("warm-up request %d: %v", i, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	baseline, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	// The origin keeps its app-server connections, and both ends of each
	// are in this process: the baseline moves by two descriptors for every
	// idle connection the concurrent load below adds to its pool.
	idleUpstream := func() int { return int(tp.origin.Current().Metrics().GaugeValue("origin.upstream.idle")) }
	idleAtBaseline := idleUpstream()

	stop := make(chan struct{})
	var ok, failed atomic.Int64
	var lastErr atomic.Value
	done := httpLoad(addr, stop, &ok, &failed, &lastErr)

	oldGen := tp.edge.Current()
	oldGenN := tp.edge.State().Generation
	tp.edge.AbortRetries = -1 // observe each undo individually, no auto-retry

	// expectUndo restarts the edge, expecting the injected post-commit
	// death to undo the hand-off without disturbing the serving
	// generation.
	expectUndo := func(instant string, wantUndos int64) {
		t.Helper()
		err := tp.edge.Restart()
		if err == nil {
			t.Fatalf("%s: restart succeeded past a dead receiver", instant)
		}
		if !errors.Is(err, takeover.ErrUndone) {
			t.Fatalf("%s: restart error not classified as post-commit undo: %v", instant, err)
		}
		if errors.Is(err, takeover.ErrAborted) {
			t.Fatalf("%s: undo misclassified as pre-commit abort: %v", instant, err)
		}
		if cur := tp.edge.Current(); cur != oldGen {
			t.Fatalf("%s: undone restart replaced the serving generation", instant)
		}
		if got := tp.edge.State().Generation; got != oldGenN {
			t.Fatalf("%s: generation advanced to %d across an undo", instant, got)
		}
		// The sender's undo settles asynchronously (its lease breaks when
		// the receiver hangs up); wait for the un-drain to complete.
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if oldGen.Metrics().CounterValue("proxy.takeover_undos") == wantUndos && !oldGen.Draining() {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got := oldGen.Metrics().CounterValue("proxy.takeover_undos"); got != wantUndos {
			t.Fatalf("%s: proxy.takeover_undos = %d, want %d", instant, got, wantUndos)
		}
		if oldGen.Draining() {
			t.Fatalf("%s: old generation still draining after the undo", instant)
		}
		// The un-drained generation answers on the very same sockets.
		for i := 0; i < 3; i++ {
			if err := doHTTP(addr, "GET", fmt.Sprintf("/%s-%d", instant, i), nil); err != nil {
				t.Fatalf("%s: request %d after undo: %v", instant, i, err)
			}
		}
	}

	// Instant A — COMMIT landed, the receiver's readiness gate reports
	// unhealthy: the new generation steps down before READY.
	gateMode.Store(gateFailing)
	expectUndo("gate-failure", 1)

	// Instant B — the gate passes but the READY frame itself is lost (the
	// receiver dies mid-send at the worst possible byte).
	gateMode.Store(gateHealthy)
	var injected atomic.Int64
	netx.SetFDHook(func(op string, data []byte, fds []int) error {
		if op == "write" && len(data) > 0 && data[0] == frameReady {
			injected.Add(1)
			return errors.New("injected receiver death at ready")
		}
		return nil
	})
	expectUndo("ready-lost", 2)
	netx.SetFDHook(nil)
	if injected.Load() == 0 {
		t.Fatal("ready-frame injection never fired — wire constant drift?")
	}

	// Instant C — the receiver wedges silently: commits, never confirms,
	// never dies. The sender's lease (TakeoverReadyTimeout) expires.
	gateMode.Store(gateWedged)
	expectUndo("silent-wedge", 3)
	gateMode.Store(gateHealthy)

	if got := oldGen.Metrics().CounterValue("proxy.takeover_commits"); got != 3 {
		t.Errorf("proxy.takeover_commits = %d, want 3 (every instant passed its commit point)", got)
	}

	// Zero client-visible disruption across all three undone releases.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed across the undone takeovers; last: %v",
			f, f+ok.Load(), lastErr.Load())
	}
	if ok.Load() < 20 {
		t.Fatalf("only %d requests completed — load loop starved", ok.Load())
	}

	// Every descriptor the three recovery windows created — retained dups,
	// SCM_RIGHTS copies, the dead receivers' adopted sets — is closed.
	baseline += 2 * (idleUpstream() - idleAtBaseline)
	if got := settleFDCount(t, baseline); got != baseline {
		t.Fatalf("fd count after three undos = %d, want baseline %d", got, baseline)
	}

	// With the faults cleared, the same slot releases normally: drain-undo
	// failures never escalate to RestartFresh.
	if err := tp.edge.Restart(); err != nil {
		t.Fatalf("healthy restart after three undos: %v", err)
	}
	if tp.edge.Current() == oldGen || tp.edge.State().Generation != oldGenN+1 {
		t.Fatal("healthy restart did not promote a new generation")
	}
	for i := 0; i < 3; i++ {
		if err := doHTTP(addr, "GET", "/post-release", nil); err != nil {
			t.Fatalf("request %d on the promoted generation: %v", i, err)
		}
	}
	if got := tp.edge.State().Phase; got != "serving" {
		t.Errorf("slot phase after release = %q, want \"serving\"", got)
	}

	// Trace audit: one takeover.undo span per instant, each carrying the
	// retained-FD count (edge binds web+mqtt+health = 3 VIPs) and a cause.
	undoSpans := 0
	for _, r := range tracer.Finished() {
		if r.Name != obs.SpanTakeoverUndo {
			continue
		}
		undoSpans++
		if r.Attrs["retained_fds"] != strconv.Itoa(3) {
			t.Errorf("takeover.undo retained_fds = %q, want \"3\"", r.Attrs["retained_fds"])
		}
		if r.Attrs["cause"] == "" {
			t.Error("takeover.undo span has no cause attr")
		}
	}
	if undoSpans != 3 {
		t.Errorf("takeover.undo spans = %d, want 3 (one per instant)", undoSpans)
	}
}
