package fleet

import (
	"strings"
	"testing"
)

// delta is the scrape window of a node that served baseReq requests with
// baseErr errors before its restart, and req with errs in the window.
func delta(baseReq, baseErr, req, errs int64) telemetryWindow {
	before := nodeTelemetry{Scraped: true, Requests: baseReq, Errors: baseErr}
	after := nodeTelemetry{Scraped: true, Requests: baseReq + req, Errors: baseErr + errs}
	return telemetryWindowBetween(before, after)
}

// TestEvalNodeCanaryOfOne pins the smallest possible rollout: a single
// canary node both evaluates and aggregates alone — a batch of one is a
// complete gate, not a degenerate case.
func TestEvalNodeCanaryOfOne(t *testing.T) {
	v := evalNode(GateConfig{}, "n1", probeWindow{Sent: 10}, delta(1000, 0, 500, 0))
	if v.Decision != promote {
		t.Fatalf("healthy canary of one: %s (%s)", v.Decision, v.Reason)
	}
	if got := aggregate([]nodeVerdict{v}); got != promote {
		t.Fatalf("aggregate of one promote = %s", got)
	}
	bad := evalNode(GateConfig{}, "n1", probeWindow{}, delta(1000, 0, 500, 100))
	if bad.Decision != rollback {
		t.Fatalf("20%% error canary of one: %s", bad.Decision)
	}
	if got := aggregate([]nodeVerdict{bad}); got != rollback {
		t.Fatalf("aggregate of one rollback = %s", got)
	}
}

// TestEvalNodeErrorRateDelta: the scrape window compares its
// error rate against the node's OWN baseline, so a node that was already
// erroring at 1% before the release does not trip the gate at 1% after.
func TestEvalNodeErrorRateDelta(t *testing.T) {
	// Baseline 1% errors, window 1% errors: delta ~0, promote.
	v := evalNode(GateConfig{}, "n1", probeWindow{}, delta(1000, 10, 1000, 10))
	if v.Decision != promote {
		t.Fatalf("unchanged error rate: %s (%s)", v.Decision, v.Reason)
	}
	// Baseline 0%, window 5%: delta 0.05 > default 0.01, rollback.
	v = evalNode(GateConfig{}, "n1", probeWindow{}, delta(1000, 0, 1000, 50))
	if v.Decision != rollback {
		t.Fatalf("5%% error jump: %s", v.Decision)
	}
	if !strings.Contains(v.Reason, "error rate") {
		t.Fatalf("reason %q does not name the failing channel", v.Reason)
	}
}

// TestEvalNodeMixedBatch: one provably bad node condemns the batch even
// when its peers are healthy — nodes in a batch run the same build.
func TestEvalNodeMixedBatch(t *testing.T) {
	verdicts := []nodeVerdict{
		evalNode(GateConfig{}, "n1", probeWindow{Sent: 5}, delta(100, 0, 200, 0)),
		evalNode(GateConfig{}, "n2", probeWindow{Sent: 5}, delta(100, 0, 200, 40)),
		evalNode(GateConfig{}, "n3", probeWindow{Sent: 5}, delta(100, 0, 200, 0)),
	}
	if verdicts[0].Decision != promote || verdicts[2].Decision != promote {
		t.Fatalf("healthy peers voted %s/%s", verdicts[0].Decision, verdicts[2].Decision)
	}
	if verdicts[1].Decision != rollback {
		t.Fatalf("bad node voted %s", verdicts[1].Decision)
	}
	if got := aggregate(verdicts); got != rollback {
		t.Fatalf("mixed batch aggregated to %s, want rollback", got)
	}
}

// TestEvalNodeInconclusive: both channels silent (no traffic, no
// probes) → Pause. The gate cannot tell a healthy idle node from a
// black hole, so promotion needs a human.
func TestEvalNodeInconclusive(t *testing.T) {
	v := evalNode(GateConfig{}, "n1", probeWindow{}, delta(1000, 5, 0, 0))
	if v.Decision != pause {
		t.Fatalf("silent node: %s, want pause", v.Decision)
	}
	// Probes alone rescue an idle node: no traffic in the window but clean
	// probes promote.
	v = evalNode(GateConfig{}, "n1", probeWindow{Sent: 20}, delta(1000, 5, 0, 0))
	if v.Decision != promote {
		t.Fatalf("idle node with clean probes: %s (%s)", v.Decision, v.Reason)
	}
	mixed := []nodeVerdict{
		evalNode(GateConfig{}, "a", probeWindow{Sent: 5}, delta(100, 0, 100, 0)),
		evalNode(GateConfig{}, "b", probeWindow{}, delta(100, 0, 0, 0)),
	}
	if got := aggregate(mixed); got != pause {
		t.Fatalf("promote+pause batch aggregated to %s, want pause", got)
	}
}

// TestEvalNodeAwaitingReady: the gate is evaluated precisely while the
// node is committed-awaiting-ready — that phase is the canary window,
// not an error state. A verdict must still be computable from whatever
// the channels saw.
func TestEvalNodeAwaitingReady(t *testing.T) {
	// The node entered its window and served: counters moved. Nothing
	// about the phase blocks evaluation.
	v := evalNode(GateConfig{}, "n1", probeWindow{Sent: 8, Failures: 0}, delta(500, 0, 300, 1))
	if v.Decision != promote {
		t.Fatalf("awaiting-ready node with healthy window: %s (%s)", v.Decision, v.Reason)
	}
	// Same phase, but the window shows the new build failing probes.
	v = evalNode(GateConfig{}, "n1", probeWindow{Sent: 10, Failures: 9}, delta(500, 0, 300, 0))
	if v.Decision != rollback {
		t.Fatalf("awaiting-ready node with failing probes: %s", v.Decision)
	}
}

// TestEvalNodeMinWindowRequests: a trickle below minWindowRequests
// abstains the scrape window instead of gating on noise.
func TestEvalNodeMinWindowRequests(t *testing.T) {
	g := GateConfig{minWindowRequests: 100}
	// 2 requests, 1 error — a 50% "error rate" from two samples. The
	// scrape window abstains; clean probes promote.
	v := evalNode(g, "n1", probeWindow{Sent: 10}, delta(1000, 0, 2, 1))
	if v.Decision != promote {
		t.Fatalf("sub-threshold window gated: %s (%s)", v.Decision, v.Reason)
	}
	// Without probes the node is inconclusive → pause, not rollback.
	v = evalNode(g, "n1", probeWindow{}, delta(1000, 0, 2, 1))
	if v.Decision != pause {
		t.Fatalf("sub-threshold window without probes: %s, want pause", v.Decision)
	}
}

// TestGateConfigValidate rejects nonsense latency factors.
func TestGateConfigValidate(t *testing.T) {
	if err := (GateConfig{maxP99Factor: 0.5}).validate(); err == nil {
		t.Fatal("factor 0.5 accepted")
	}
	if err := (GateConfig{maxP99Factor: 0}).validate(); err != nil {
		t.Fatalf("disabled factor rejected: %v", err)
	}
	if err := (GateConfig{maxP99Factor: 2}).validate(); err != nil {
		t.Fatalf("factor 2 rejected: %v", err)
	}
}

// TestAggregateEmpty: an empty batch promotes vacuously.
func TestAggregateEmpty(t *testing.T) {
	if got := aggregate(nil); got != promote {
		t.Fatalf("empty batch = %s", got)
	}
}

// TestDecisionString pins the wire names the journal and admin JSON use.
func TestDecisionString(t *testing.T) {
	for d, want := range map[decision]string{promote: "promote", pause: "pause", rollback: "rollback"} {
		if d.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}
