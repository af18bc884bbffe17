package cluster

import (
	"time"

	"zdr/internal/workload"
)

// The Fig. 11 experiment's parameters: a week of App Server restarts
// observed from the downstream Origin proxy's vantage point, counting POST
// requests that would have been disrupted without Partial Post Replay.
const (
	webTierDays           = 7                // paper: 7
	webTierRestartsPerDay = 10               // paper: "tens of times a day"
	webTierDrainPeriod    = 12 * time.Second // an app server's drain (10–15 s)
	webTierBatchFraction  = 0.05             // of servers per restart batch
	webTierUploadBps      = 2e6 / 8          // 2 Mbit/s uplink: POST size → duration
	// POSTs per minute across the tier (paper: "billions ... per minute";
	// scaled down — only the *fraction* disrupted matters).
	webTierPostsPerMinute = 200_000
	// The replay budget; with at least one healthy server, replays always
	// succeed, so PPR disruptions are only those that exhaust it.
	webTierPPRRetries = 10
)

// WebTierResult reports the Fig. 11 quantities, per day.
type WebTierResult struct {
	// TotalPosts per day.
	TotalPosts []int64
	// WouldDisrupt is the per-day count of POSTs that were in flight at a
	// restart and outlived the drain — each one generates a 379 hand-back
	// and would have been a user-visible failure without PPR.
	WouldDisrupt []int64
	// PPRDisrupted is the per-day count still failing with PPR enabled
	// (replay-budget exhaustion; ~0 with a healthy tier, §4.4).
	PPRDisrupted []int64
	// DisruptedPctWithoutPPR is per-day WouldDisrupt/TotalPosts*100.
	DisruptedPctWithoutPPR []float64
}

// RunWebTierWeek runs the Fig. 11 simulation; seed drives the PRNG
// (0 selects 1).
func RunWebTierWeek(seed uint64) WebTierResult {
	if seed == 0 {
		seed = 1
	}
	rng := workload.NewRNG(seed)
	var res WebTierResult

	minutesPerDay := 24 * 60
	for day := 0; day < webTierDays; day++ {
		var total, would, pprFail int64
		// Restart moments for the day, in minutes.
		restartAt := make(map[int]bool)
		for r := 0; r < webTierRestartsPerDay; r++ {
			h := workload.RestartHour(rng, workload.TierAppServer)
			restartAt[h*60+rng.Intn(60)] = true
		}
		for minute := 0; minute < minutesPerDay; minute++ {
			posts := int64(float64(webTierPostsPerMinute) * workload.DiurnalLoad(float64(minute)/60))
			total += posts
			if !restartAt[minute] {
				continue
			}
			// A restart hits webTierBatchFraction of servers; POSTs in flight on
			// them at that instant are at risk. The number in flight is
			// (arrival rate) × (mean duration) scaled to the batch.
			// Sample individual at-risk uploads to apply the tail.
			atRisk := int(float64(posts) / 60 * webTierBatchFraction * 30) // ~30s window of in-flight arrivals
			for i := 0; i < atRisk; i++ {
				size := workload.PostSizeBytes(rng)
				duration := time.Duration(float64(size) / webTierUploadBps * float64(time.Second))
				// Uniform progress at restart time.
				remaining := time.Duration(rng.Float64() * float64(duration))
				if remaining > webTierDrainPeriod {
					would++
					// With PPR the request replays; it only fails if
					// every retry lands on a restarting server — with one
					// batch restarting, chance batchFraction^retries ≈ 0.
					p := 1.0
					for k := 0; k < webTierPPRRetries; k++ {
						p *= webTierBatchFraction
					}
					if rng.Float64() < p {
						pprFail++
					}
				}
			}
		}
		res.TotalPosts = append(res.TotalPosts, total)
		res.WouldDisrupt = append(res.WouldDisrupt, would)
		res.PPRDisrupted = append(res.PPRDisrupted, pprFail)
		pct := 0.0
		if total > 0 {
			pct = float64(would) / float64(total) * 100
		}
		res.DisruptedPctWithoutPPR = append(res.DisruptedPctWithoutPPR, pct)
	}
	return res
}

// CompletionTimeConfig parameterises Fig. 16: the distribution of global
// release completion times per tier.
type CompletionTimeConfig struct {
	// Tier selects the parameter set.
	Tier workload.Tier
	// Samples is how many releases to simulate.
	Samples int
	// Seed drives the PRNG.
	Seed uint64
}

// CompletionTimes simulates Fig. 16's distribution: each sample is a full
// rolling release with tier-appropriate parameters (Proxygen: 20-minute
// drains, ~5 batches; App Server: 10–15 s drains, cache-priming restart
// overhead, many more batches).
func CompletionTimes(cfg CompletionTimeConfig) []time.Duration {
	if cfg.Samples <= 0 {
		cfg.Samples = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := workload.NewRNG(cfg.Seed)
	out := make([]time.Duration, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		var rc Config
		switch cfg.Tier {
		case workload.TierL7LB:
			rc = Config{
				Machines:      80 + rng.Intn(40),
				BatchFraction: 0.15 + 0.1*rng.Float64(), // 15–25%
				DrainPeriod:   20 * time.Minute,
				BatchGap:      time.Duration(1+rng.Intn(3)) * time.Minute,
				Strategy:      ZeroDowntime,
				Tick:          30 * time.Second,
				Seed:          rng.Uint64() | 1,
			}
		default:
			rc = Config{
				Machines:        200 + rng.Intn(100),
				BatchFraction:   0.05 + 0.05*rng.Float64(), // 5–10%
				DrainPeriod:     time.Duration(10+rng.Intn(6)) * time.Second,
				restartOverhead: time.Duration(45+rng.Intn(30)) * time.Second, // cache priming
				Strategy:        HardRestart,                                  // §4.4: no takeover at this tier
				Tick:            5 * time.Second,
				Seed:            rng.Uint64() | 1,
			}
		}
		out = append(out, RunRelease(rc).CompletionTime)
	}
	return out
}
