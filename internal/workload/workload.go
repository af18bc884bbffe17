// Package workload generates the synthetic workloads and release
// schedules used to regenerate the paper's motivation and evaluation
// figures. Every generator is driven by an explicit deterministic PRNG so
// experiments reproduce bit-for-bit.
//
// Models (with the paper's anchors):
//
//   - Release cadence (Fig. 2a): L7LB clusters release ~3+ times/week;
//     App Server tiers release ~100 times/week at the median.
//   - Release root causes (Fig. 2b): binary updates ~47%, the rest
//     dominated by configuration changes (which at Facebook also require
//     a restart), plus a small experiments/rollback tail.
//   - Commits per release (Fig. 2c): 10–100 distinct commits.
//   - Restart hour-of-day (Fig. 15): Proxygen releases concentrate in
//     peak hours (12:00–17:00); App Server releases run continuously.
//   - Request/connection properties: long-tailed POST sizes and
//     connection lifetimes — "at the tail (p99.9) most requests are
//     sufficiently large enough to outlive the draining period" (§2.5).
//   - Diurnal traffic (Fig. 13/15 context, [44]).
package workload

import (
	"math"
)

// RNG is a splitmix64 deterministic PRNG (stdlib-only, stable across
// runs and platforms).
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// normal returns a standard normal deviate (Box–Muller).
func (r *RNG) normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// logNormal returns exp(mu + sigma*N(0,1)) — the classic heavy-ish tail
// for request sizes and durations.
func (r *RNG) logNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.normal())
}

// pareto returns a Pareto(xm, alpha) deviate — the long tail that makes
// p99.9 requests outlive draining periods.
func (r *RNG) pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Tier identifies a release tier.
type Tier int

// Tiers.
const (
	TierL7LB Tier = iota
	TierAppServer
)

// ReleaseCause is a root cause from Fig. 2b.
type ReleaseCause int

// Causes.
const (
	CauseBinary ReleaseCause = iota
	causeConfig
	causeExperiment
	CauseRollback
)

// String names the cause.
func (c ReleaseCause) String() string {
	switch c {
	case CauseBinary:
		return "binary-update"
	case causeConfig:
		return "config-change"
	case causeExperiment:
		return "experiment"
	default:
		return "rollback"
	}
}

// ReleasesPerWeek samples a week's release count for a tier (Fig. 2a).
// L7LB: centred on ~3/week. App Server: centred on ~100/week with spread.
func ReleasesPerWeek(r *RNG, tier Tier) int {
	switch tier {
	case TierL7LB:
		// 2–6 releases, median ~3.
		n := 2 + int(r.logNormal(0.4, 0.5))
		if n > 8 {
			n = 8
		}
		return n
	default:
		// Median ~100, long right tail, floor of 40.
		n := int(r.logNormal(math.Log(100), 0.35))
		if n < 40 {
			n = 40
		}
		if n > 300 {
			n = 300
		}
		return n
	}
}

// SampleCause draws a release root cause with Fig. 2b's mix: binary ~47%,
// config ~40%, experiments ~8%, rollbacks ~5%.
func SampleCause(r *RNG) ReleaseCause {
	u := r.Float64()
	switch {
	case u < 0.47:
		return CauseBinary
	case u < 0.87:
		return causeConfig
	case u < 0.95:
		return causeExperiment
	default:
		return CauseRollback
	}
}

// CommitsPerRelease samples the number of distinct commits in an App
// Server release: 10–100 (Fig. 2c), log-spread.
func CommitsPerRelease(r *RNG) int {
	n := int(r.logNormal(math.Log(30), 0.6))
	if n < 10 {
		n = 10
	}
	if n > 100 {
		n = 100
	}
	return n
}

// RestartHour samples the local hour-of-day of a release (Fig. 15):
// Proxygen releases concentrate in the 12:00–17:00 peak window (operators
// are hands-on during peak hours, §6.2.2); App Server releases are a
// continuous cycle and spread uniformly.
func RestartHour(r *RNG, tier Tier) int {
	if tier == TierAppServer {
		return r.Intn(24)
	}
	// 75% of Proxygen releases land in 12..17, the rest spread over the
	// working day 9..20.
	if r.Float64() < 0.75 {
		return 12 + r.Intn(6)
	}
	return 9 + r.Intn(12)
}

// DiurnalLoad returns the relative traffic level (0..1] at hourOfDay,
// the classic single-peak curve ([44]): trough ~04:00, peak ~16:00.
func DiurnalLoad(hourOfDay float64) float64 {
	// Cosine centred on 16:00 with amplitude 0.4 around 0.6.
	phase := 2 * math.Pi * (hourOfDay - 16) / 24
	v := 0.6 + 0.4*math.Cos(phase)
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// PostSizeBytes samples an HTTP POST body size: lognormal body (~32 KiB
// median) with a Pareto tail so p99.9 uploads are large enough to outlive
// any drain period (§2.5).
func PostSizeBytes(r *RNG) int64 {
	if r.Float64() < 0.995 {
		return int64(r.logNormal(math.Log(32<<10), 1.0))
	}
	v := r.pareto(1<<20, 0.8) // tail: ≥1 MiB, very heavy
	if v > 1<<31 {
		v = 1 << 31
	}
	return int64(v)
}

// Percentile computes the p-quantile (0..1) of values by sorting a copy.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	cp := append([]float64(nil), values...)
	// insertion-free: simple quickselect would be nicer; sort is fine at
	// experiment scale.
	sortFloat64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 1 {
		return cp[len(cp)-1]
	}
	pos := p * float64(len(cp)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(cp) {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

func sortFloat64s(v []float64) {
	// Shell sort: avoids importing sort for one helper and is plenty
	// fast at experiment sizes.
	n := len(v)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			t := v[i]
			j := i
			for ; j >= gap && v[j-gap] > t; j -= gap {
				v[j] = v[j-gap]
			}
			v[j] = t
		}
	}
}
