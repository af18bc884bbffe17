package cluster

import (
	"math"
	"time"
)

// tailLatency models per-request latency as a function of utilisation
// with an M/M/1-style queueing approximation: W = S / (1 - ρ), where S is
// the unloaded service time and ρ the machine utilisation. The paper's
// complementary experiment to Fig. 3a ("we analyzed the tail latency and
// observed significant increase due to a 10% reduced cluster capacity")
// is exactly this curve: taking capacity offline raises ρ on the
// survivors, and the tail blows up as ρ → 1.
func tailLatency(serviceTime time.Duration, utilisation float64) time.Duration {
	if utilisation < 0 {
		utilisation = 0
	}
	// Clamp below 1: a saturated machine's latency is effectively
	// unbounded; cap at 100x for finite reporting.
	if utilisation >= 0.99 {
		return serviceTime * 100
	}
	return time.Duration(float64(serviceTime) / (1 - utilisation))
}

// latencyImpact reports the p99-style latency multiplier when a fraction
// of the fleet is taken offline at a given baseline load: survivors run at
// load/(1-offline) utilisation.
func latencyImpact(load, offlineFraction float64) float64 {
	if offlineFraction >= 1 {
		return math.Inf(1)
	}
	before := tailLatency(time.Millisecond, load)
	after := tailLatency(time.Millisecond, load/(1-offlineFraction))
	return float64(after) / float64(before)
}

// PeakHourOutcome summarises a release attempted at a given load level
// (§6.2.2: "The traditional way is to release updates during off-peak
// hours so that the load and possible disruptions are low ... the ability
// to release during these hours go a long way").
type PeakHourOutcome struct {
	Strategy Strategy
	// Load is the baseline utilisation at release time.
	Load float64
	// SurvivorUtilisation is the per-machine load on the serving pool at
	// the worst point of the release.
	SurvivorUtilisation float64
	// Saturated reports whether the pool could not absorb the offered
	// load (requests dropped / queued unboundedly).
	Saturated bool
	// DroppedLoadFraction is the offered load that found no capacity at
	// the worst point (0 when not saturated).
	DroppedLoadFraction float64
	// TailLatencyX is the worst-point p99 latency multiplier vs a quiet
	// fleet.
	TailLatencyX float64
}

// ReleaseAtLoad evaluates one strategy releasing with 20% batches at the
// given utilisation.
func ReleaseAtLoad(strategy Strategy, load float64) PeakHourOutcome {
	const batch = 0.20
	out := PeakHourOutcome{Strategy: strategy, Load: load}
	switch strategy {
	case HardRestart:
		survivors := 1 - batch
		util := load / survivors
		out.SurvivorUtilisation = util
		if util >= 1 {
			out.Saturated = true
			out.DroppedLoadFraction = (load - survivors) / load
			out.TailLatencyX = math.Inf(1)
			return out
		}
		out.TailLatencyX = latencyImpact(load, batch)
	case ZeroDowntime:
		// The pool keeps every machine; only the parallel-instance CPU
		// overhead (few %) raises utilisation.
		util := load * 1.04
		out.SurvivorUtilisation = util
		if util >= 1 {
			out.Saturated = true
			out.DroppedLoadFraction = (util - 1) / util
			out.TailLatencyX = math.Inf(1)
			return out
		}
		before := tailLatency(time.Millisecond, load)
		after := tailLatency(time.Millisecond, util)
		out.TailLatencyX = float64(after) / float64(before)
	}
	return out
}
