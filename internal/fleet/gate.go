package fleet

import (
	"fmt"
	"time"

	"zdr/internal/core"
)

// decision is the outcome of one health-gate evaluation.
type decision int

const (
	// promote releases the canary window: the new generation sends READY
	// and the old generation drains.
	promote decision = iota
	// pause stops the rollout for operator judgement. The batch that
	// triggered the pause is rolled back first (a paused canary must not
	// keep serving an unjudged build), but untouched nodes stay on the
	// old generation until a human calls Decide.
	pause
	// rollback unwinds the batch via drain-undo and pauses the rollout.
	rollback
)

// String implements fmt.Stringer.
func (d decision) String() string {
	switch d {
	case promote:
		return "promote"
	case pause:
		return "pause"
	case rollback:
		return "rollback"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// GateConfig parameterises the health gate. The gate compares each
// canary node's observation window against its own pre-release baseline
// (paper §6: disruption is measured as proxy errors + client-visible
// failures during the release, vs steady state).
type GateConfig struct {
	// MaxErrorRateDelta is the largest tolerated increase in the node's
	// error rate (errors/requests over the window) relative to its
	// baseline window. Exceeding it votes Rollback. Default 0.01 (one
	// extra failure per hundred requests).
	MaxErrorRateDelta float64
	// maxP99Factor rolls a node back when its data-plane p99 (telemetry
	// scrape) exceeds the pre-release p99 × factor. Zero disables the
	// latency term. Values in (0,1] are rejected by Validate.
	maxP99Factor float64
	// MaxProbeFailureRate is the largest tolerated probe-failure rate
	// during the canary window. Probes bypass the server's own counters,
	// so this channel still votes when the node is too broken to count.
	// Default 0.05.
	MaxProbeFailureRate float64
	// minWindowRequests is the minimum request count (counter delta)
	// for the counter channel to be conclusive. Below it the counter
	// channel abstains. Default 1 (any traffic at all).
	minWindowRequests int64
	// MaxDisruptionRate bounds the windowed disruption rate — terminal
	// ledger events (resets, timeouts, injected faults) per request over
	// the observation window, scraped from the node's own telemetry
	// surface. Exceeding it votes Rollback; zero disables the channel.
	// This is the §6 measure gated live: connection-level disruption, not
	// just HTTP error counters.
	MaxDisruptionRate float64
}

func (g GateConfig) withDefaults() GateConfig {
	if g.MaxErrorRateDelta <= 0 {
		g.MaxErrorRateDelta = 0.01
	}
	if g.MaxProbeFailureRate <= 0 {
		g.MaxProbeFailureRate = 0.05
	}
	if g.minWindowRequests <= 0 {
		g.minWindowRequests = 1
	}
	return g
}

// validate rejects configurations that cannot gate sanely.
func (g GateConfig) validate() error {
	if g.maxP99Factor != 0 && g.maxP99Factor <= 1 {
		return fmt.Errorf("fleet: MaxP99Factor %v must be > 1 (or 0 to disable)", g.maxP99Factor)
	}
	return nil
}

// probeWindow aggregates the orchestrator-side probes issued against one
// node during an observation window (the Prequal-style second health
// channel: probe latency and failures, independent of server counters).
type probeWindow struct {
	Sent     int           `json:"sent"`
	Failures int           `json:"failures"`
	P99      time.Duration `json:"p99_ns"`
}

// failureRate is Failures/Sent (0 when no probes were sent).
func (p probeWindow) failureRate() float64 {
	if p.Sent <= 0 {
		return 0
	}
	return float64(p.Failures) / float64(p.Sent)
}

// nodeVerdict is one node's gate evaluation: both health channels, the
// per-channel votes, and the aggregate decision.
type nodeVerdict struct {
	Node      string           `json:"node"`
	Decision  decision         `json:"-"`
	Outcome   string           `json:"decision"`
	Reason    string           `json:"reason,omitempty"`
	Counters  core.HealthDelta `json:"counters"`
	Probes    probeWindow      `json:"probes"`
	Telemetry telemetryWindow  `json:"telemetry"`
}

// evalNode gates one canary node across three health channels: counters
// (windowed deltas vs the node's own baseline, guarded by
// core.HealthDeltaBetween), probes (failure rate), and telemetry (windowed ledger disruption rate + data-plane
// histogram p99 from the node's own scrape). Channel semantics:
//
//   - any channel voting Rollback → Rollback (fail closed on badness)
//   - every channel inconclusive (no traffic, no probes, no scrape) →
//     Pause: the gate cannot tell a healthy idle node from a black hole,
//     so a human decides
//   - otherwise → Promote
//
// A node still in committed-awaiting-ready is exactly the state being
// gated — evaluation happens while the canary window holds — so phase is
// no obstacle to gating; it is the precondition.
func evalNode(g GateConfig, name string, delta core.HealthDelta, window probeWindow, tel telemetryWindow) nodeVerdict {
	g = g.withDefaults()
	v := nodeVerdict{Node: name, Counters: delta, Probes: window, Telemetry: tel}
	countersConclusive := !delta.Inconclusive && delta.Requests >= g.minWindowRequests
	if countersConclusive && delta.ErrorRateDelta > g.MaxErrorRateDelta {
		v.Decision = rollback
		v.Reason = fmt.Sprintf("error rate %.4f exceeds baseline %.4f by more than %.4f",
			delta.ErrorRate, delta.BaselineErrorRate, g.MaxErrorRateDelta)
		v.Outcome = v.Decision.String()
		return v
	}
	probesConclusive := window.Sent > 0
	if probesConclusive {
		if fr := window.failureRate(); fr > g.MaxProbeFailureRate {
			v.Decision = rollback
			v.Reason = fmt.Sprintf("probe failure rate %.4f exceeds %.4f", fr, g.MaxProbeFailureRate)
			v.Outcome = v.Decision.String()
			return v
		}
	}
	telConclusive := tel.Scraped && tel.Requests >= g.minWindowRequests
	if telConclusive {
		if g.MaxDisruptionRate > 0 {
			if dr := tel.disruptionRate(); dr > g.MaxDisruptionRate {
				v.Decision = rollback
				v.Reason = fmt.Sprintf("disruption rate %.4f (%d terminal / %d requests) exceeds %.4f",
					dr, tel.Terminal, tel.Requests, g.MaxDisruptionRate)
				v.Outcome = v.Decision.String()
				return v
			}
		}
		if g.maxP99Factor > 0 && tel.BaselineP99 > 0 && tel.P99 > tel.BaselineP99*g.maxP99Factor {
			v.Decision = rollback
			v.Reason = fmt.Sprintf("data-plane p99 %.6fs exceeds baseline %.6fs x%.2f",
				tel.P99, tel.BaselineP99, g.maxP99Factor)
			v.Outcome = v.Decision.String()
			return v
		}
	}
	if !countersConclusive && !probesConclusive && !telConclusive {
		v.Decision = pause
		v.Reason = "inconclusive: no requests, no probes, and no telemetry in window"
		v.Outcome = v.Decision.String()
		return v
	}
	v.Decision = promote
	v.Outcome = v.Decision.String()
	return v
}

// aggregate folds per-node verdicts into the batch decision: any
// Rollback rolls the whole batch back (nodes in a batch run the same
// build — one provably bad node condemns it); otherwise any Pause pauses;
// otherwise Promote. An empty batch promotes vacuously.
func aggregate(verdicts []nodeVerdict) decision {
	out := promote
	for _, v := range verdicts {
		switch v.Decision {
		case rollback:
			return rollback
		case pause:
			out = pause
		}
	}
	return out
}
