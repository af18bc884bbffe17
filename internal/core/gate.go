// Health-gate arithmetic: the counter-delta math a release orchestrator
// uses to decide whether a canary batch is healthy enough to promote.
//
// The inputs are the same counter snapshots a ReleaseReport brackets a
// release with (CountersBefore/CountersAfter); the output is a plain
// HealthDelta whose fields are guaranteed finite — a canary node that saw
// no traffic during the observation window yields Inconclusive=true and
// zero rates, never a NaN or Inf that would corrupt a gate decision.
package core

// HealthDelta summarises one node's serving health over an observation
// window, derived from two cumulative counter snapshots.
type HealthDelta struct {
	// Requests and Errors are the window deltas (after - before), summed
	// over the request/error counter keys. Negative per-key deltas (a
	// counter reset between snapshots) are clamped to zero rather than
	// poisoning the sums.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// ErrorRate is Errors/Requests over the window; 0 when the window saw
	// no requests (see Inconclusive). Always finite.
	ErrorRate float64 `json:"error_rate"`
	// BaselineRequests / BaselineErrors / BaselineErrorRate are the same
	// quantities for the whole pre-window history (the "before" snapshot
	// alone), the baseline the window is compared against.
	BaselineRequests  int64   `json:"baseline_requests"`
	BaselineErrors    int64   `json:"baseline_errors"`
	BaselineErrorRate float64 `json:"baseline_error_rate"`
	// ErrorRateDelta is ErrorRate - BaselineErrorRate (0 when either side
	// is inconclusive). Always finite.
	ErrorRateDelta float64 `json:"error_rate_delta"`
	// Inconclusive reports that the window saw zero requests, so the
	// error rate carries no information: the node may be healthy, or it
	// may not be receiving traffic at all. Gate logic must treat this as
	// "cannot decide", not as "healthy".
	Inconclusive bool `json:"inconclusive"`
}

// safeRate is errors/requests with the zero-request guard: division by
// zero here is a real production hazard (a canary picked during a traffic
// trough), and NaN compares false against every threshold, which would
// silently promote an unobserved node.
func safeRate(errors, requests int64) float64 {
	if requests <= 0 {
		return 0
	}
	return float64(errors) / float64(requests)
}

// sumKeys sums the named counters in snap (missing keys count zero).
func sumKeys(snap map[string]int64, keys []string) int64 {
	var t int64
	for _, k := range keys {
		t += snap[k]
	}
	return t
}

// HealthDeltaBetween computes the windowed health delta between two
// cumulative counter snapshots. requestKeys and errorKeys name the
// counters summed into the request and error totals; keys absent from a
// snapshot contribute zero, and per-key negative deltas (counter resets)
// are clamped to zero. The result is always finite.
func HealthDeltaBetween(before, after map[string]int64, requestKeys, errorKeys []string) HealthDelta {
	window := func(keys []string) int64 {
		var t int64
		for _, k := range keys {
			if d := after[k] - before[k]; d > 0 {
				t += d
			}
		}
		return t
	}
	d := HealthDelta{
		Requests:         window(requestKeys),
		Errors:           window(errorKeys),
		BaselineRequests: sumKeys(before, requestKeys),
		BaselineErrors:   sumKeys(before, errorKeys),
	}
	d.ErrorRate = safeRate(d.Errors, d.Requests)
	d.BaselineErrorRate = safeRate(d.BaselineErrors, d.BaselineRequests)
	d.Inconclusive = d.Requests == 0
	if !d.Inconclusive {
		d.ErrorRateDelta = d.ErrorRate - d.BaselineErrorRate
	}
	return d
}
