// Package cluster is a deterministic virtual-time simulator of the
// paper's production fleets. The paper's cluster-scale evaluation ran on
// 10–66 live Facebook clusters; this package reproduces those experiments'
// *shape* — capacity during rolling updates, CPU overheads, completion
// times, disruption counts — from the same underlying parameters (fleet
// size, batch fraction, drain period, restart cost, workload mix).
//
// Everything runs on a virtual clock in fixed ticks, driven by an explicit
// PRNG seed, so every figure regenerates identically.
package cluster

import (
	"fmt"
	"time"

	"zdr/internal/fleet"
	"zdr/internal/workload"
)

// Strategy selects the release mechanism being simulated.
type Strategy int

// Strategies.
const (
	// HardRestart is the traditional rolling update (§2.3): a draining
	// instance fails health checks, serves no new connections, and is
	// taken fully offline for the drain + restart window.
	HardRestart Strategy = iota
	// ZeroDowntime is the paper's mechanism: the new instance takes the
	// sockets over; the machine never leaves the serving pool, at the
	// cost of briefly running two instances (CPU/memory overhead, §6.3).
	ZeroDowntime
)

// String names the strategy.
func (s Strategy) String() string {
	if s == HardRestart {
		return "HardRestart"
	}
	return "ZeroDowntime"
}

// Config parameterises a simulated rolling release.
type Config struct {
	// Machines is the cluster size. Default 100.
	Machines int
	// BatchFraction is the fraction restarted concurrently (paper: 5%,
	// 15%, 20%). Default 0.2.
	BatchFraction float64
	// DrainPeriod is the per-batch drain (paper: 20 min for Proxygen,
	// 10–15 s for App Servers).
	DrainPeriod time.Duration
	// RestartOverhead is the non-drain part of a restart: spawn, warm-up,
	// cache priming (dominant for HHVM).
	RestartOverhead time.Duration
	// BatchGap is idle time between batches (visible as the capacity
	// recovery notches in Fig. 3a).
	BatchGap time.Duration
	// Strategy selects HardRestart or ZeroDowntime.
	Strategy Strategy
	// Load is the offered load as a fraction of total fleet capacity
	// right before the release (baseline utilisation). Default 0.7.
	Load float64
	// CanarySize, when > 0, stages the release canary-first by the fleet
	// orchestrator's rule (fleet.BatchSizes): the first batch has
	// CanarySize machines and each next one doubles, capped at
	// BatchFraction of the fleet. 0 keeps the classic fixed BatchFraction
	// batches.
	CanarySize int
	// Tick is the simulation step. Default 10 s.
	Tick time.Duration
	// Seed drives the PRNG. Default 1.
	Seed uint64
	// MQTTConnsPerMachine scales the connection-count series (Fig. 13).
	MQTTConnsPerMachine int
}

func (c *Config) fill() {
	if c.Machines <= 0 {
		c.Machines = 100
	}
	if c.BatchFraction <= 0 || c.BatchFraction > 1 {
		c.BatchFraction = 0.2
	}
	if c.DrainPeriod <= 0 {
		c.DrainPeriod = 20 * time.Minute
	}
	if c.Load <= 0 || c.Load >= 1 {
		c.Load = 0.7
	}
	if c.Tick <= 0 {
		c.Tick = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MQTTConnsPerMachine <= 0 {
		c.MQTTConnsPerMachine = 10_000
	}
}

// The extra per-machine CPU (fraction of one machine) while two instances
// run in parallel: takeoverSpike at the instant of takeover, decaying to
// takeoverCPUOverhead (§6.3: median < 5%) over takeoverSpikeDecay (the
// 60–70 s tail in Fig. 17). The per-batch average is modest because
// takeovers within a batch stagger in practice.
const (
	takeoverCPUOverhead = 0.04
	takeoverSpike       = 0.10
	takeoverSpikeDecay  = time.Minute
)

// machineState tracks one machine through the release.
type machineState int

const (
	stateActive           machineState = iota
	stateDrainingOffline               // HardRestart: out of the pool
	stateRestarting                    // HardRestart: binary swap
	stateTakeoverParallel              // ZeroDowntime: two instances
)

type machine struct {
	state      machineState
	stateSince time.Duration // virtual time of last transition
	restarted  bool
}

// TickSample is one point on the release timeline.
type TickSample struct {
	// T is virtual time since release start.
	T time.Duration
	// CapacityFraction is the serving pool's capacity relative to the
	// full fleet (Fig. 3a).
	CapacityFraction float64
	// IdleCPUFraction is total idle CPU normalised by the pre-release
	// idle CPU (Fig. 8b).
	IdleCPUFraction float64
	// RPSRestartedGroup / RPSNonRestartedGroup are per-machine RPS
	// normalised to pre-release values for the batch being restarted (GR)
	// and the rest (GNR) — Fig. 13.
	RPSRestartedGroup    float64
	RPSNonRestartedGroup float64
	// CPURestartedGroup is the GR group's CPU relative to baseline.
	CPURestartedGroup float64
	// MQTTConnsNormalized is the cluster-wide MQTT connection count
	// normalised to pre-release (Fig. 13).
	MQTTConnsNormalized float64
}

// ReleaseResult is a full simulated rolling release.
type ReleaseResult struct {
	Config         Config
	CompletionTime time.Duration
	Timeline       []TickSample
	// MinCapacityFraction is the lowest point of the capacity timeline.
	MinCapacityFraction float64
	// MinIdleCPUFraction is the lowest normalised idle-CPU point.
	MinIdleCPUFraction float64
	// DisruptedConns counts connections terminated by the release
	// (HardRestart: everything still alive at drain end).
	DisruptedConns int64
}

// RunRelease simulates one rolling release over the whole fleet.
func RunRelease(cfg Config) ReleaseResult {
	cfg.fill()
	rng := workload.NewRNG(cfg.Seed)
	n := cfg.Machines
	machines := make([]machine, n)

	maxBatch := int(float64(n) * cfg.BatchFraction)
	if maxBatch < 1 {
		maxBatch = 1
	}
	// Canary-first staging ramps the batch size toward the cap; classic
	// releases run at the cap from the first batch.
	canary := maxBatch
	if cfg.CanarySize > 0 {
		canary = cfg.CanarySize
	}
	sizes := fleet.BatchSizes(n, canary, maxBatch)

	res := ReleaseResult{Config: cfg, MinCapacityFraction: 1, MinIdleCPUFraction: 1}

	// Per-connection disruption accounting: each machine carries
	// MQTTConnsPerMachine persistent connections; a HardRestart kills the
	// ones that outlive the drain (§2.5: at the tail most persistent
	// connections do).
	connsPerMachine := cfg.MQTTConnsPerMachine
	totalConns := int64(n * connsPerMachine)
	liveConns := totalConns

	now := time.Duration(0)
	next := 0 // next machine index to restart
	var batchStart time.Duration
	var current []int // indices being restarted

	startBatch := func() {
		current = current[:0]
		for range sizes[0] {
			current = append(current, next)
			if cfg.Strategy == HardRestart {
				machines[next].state = stateDrainingOffline
			} else {
				machines[next].state = stateTakeoverParallel
			}
			machines[next].stateSince = now
			next++
		}
		batchStart = now
		sizes = sizes[1:]
	}
	startBatch()

	for len(current) > 0 {
		// Advance machine states.
		elapsed := now - batchStart
		switch cfg.Strategy {
		case HardRestart:
			for _, i := range current {
				m := &machines[i]
				if m.state == stateDrainingOffline && elapsed >= cfg.DrainPeriod {
					// Drain over: surviving connections are terminated.
					killed := int64(connsPerMachine)
					// Long-lived (MQTT) connections never finish within a
					// drain; short ones mostly do. Model: 80% of the
					// machine's connections are persistent.
					persistent := int64(float64(killed) * 0.8)
					res.DisruptedConns += persistent
					liveConns -= persistent
					m.state = stateRestarting
					m.stateSince = now
				}
				if m.state == stateRestarting && now-m.stateSince >= cfg.RestartOverhead && elapsed >= cfg.DrainPeriod {
					if !m.restarted {
						m.restarted = true
						m.state = stateActive
					}
				}
			}
		case ZeroDowntime:
			for _, i := range current {
				m := &machines[i]
				// The machine never leaves the pool; the parallel phase
				// lasts the drain period, after which the old instance
				// exits. No connections are disrupted: DCR re-routes the
				// persistent ones and PPR replays in-flight requests.
				if elapsed >= cfg.DrainPeriod {
					if !m.restarted {
						m.restarted = true
						m.state = stateActive
					}
				}
			}
		}

		// Batch complete?
		done := true
		for _, i := range current {
			if !machines[i].restarted {
				done = false
				break
			}
		}

		// Sample the fleet.
		res.Timeline = append(res.Timeline, sampleTick(cfg, machines, now, batchStart, current, liveConns, totalConns, rng))
		last := &res.Timeline[len(res.Timeline)-1]
		if last.CapacityFraction < res.MinCapacityFraction {
			res.MinCapacityFraction = last.CapacityFraction
		}
		if last.IdleCPUFraction < res.MinIdleCPUFraction {
			res.MinIdleCPUFraction = last.IdleCPUFraction
		}

		now += cfg.Tick
		if done {
			// Reconnections restore the connection count (clients retry),
			// spread over the next batch.
			liveConns = totalConns
			if next >= n {
				break
			}
			now += cfg.BatchGap
			startBatch()
		}
	}
	res.CompletionTime = now
	return res
}

// sampleTick computes one timeline point.
func sampleTick(cfg Config, machines []machine, now, batchStart time.Duration, current []int, liveConns, totalConns int64, rng *workload.RNG) TickSample {
	n := len(machines)
	online := 0
	var takeoverCPU float64
	inBatch := make(map[int]bool, len(current))
	for _, i := range current {
		inBatch[i] = true
	}
	for i := range machines {
		switch machines[i].state {
		case stateDrainingOffline, stateRestarting:
			// Out of the serving pool (fails health checks).
		default:
			online++
		}
		if machines[i].state == stateTakeoverParallel {
			// CPU overhead decays from the spike to the steady overhead.
			el := now - machines[i].stateSince
			frac := float64(el) / float64(takeoverSpikeDecay)
			if frac > 1 {
				frac = 1
			}
			takeoverCPU += takeoverSpike*(1-frac) + takeoverCPUOverhead*frac
		}
	}

	capacity := float64(online) / float64(n)

	// Idle CPU: demand redistributes over online machines.
	demand := cfg.Load * float64(n) // in machine-units of CPU
	perMachine := demand / float64(online)
	if perMachine > 1 {
		perMachine = 1 // saturated
	}
	idle := float64(online)*(1-perMachine) - takeoverCPU
	if idle < 0 {
		idle = 0
	}
	baselineIdle := float64(n) * (1 - cfg.Load)
	idleFrac := idle / baselineIdle

	// Group series (Fig. 13), normalised to baseline per-machine values.
	baseRPS := cfg.Load
	grRPS, gnrRPS := 1.0, 1.0
	grCPU := 1.0
	if len(current) > 0 {
		switch cfg.Strategy {
		case HardRestart:
			// GR machines serve nothing; their load lands on GNR.
			grRPS = 0
			gnrRPS = (demand / float64(online)) / baseRPS
			grCPU = 0
		case ZeroDowntime:
			// GR machines keep serving; CPU carries the parallel-instance
			// overhead.
			grRPS = 1
			gnrRPS = 1
			grCPU = 1 + (takeoverCPU/float64(len(current)))/cfg.Load
		}
	}
	// Small measurement noise so series look like Fig. 13's bands.
	noise := func(v float64) float64 { return v * (1 + 0.01*(rng.Float64()-0.5)) }

	return TickSample{
		T:                    now,
		CapacityFraction:     capacity,
		IdleCPUFraction:      idleFrac,
		RPSRestartedGroup:    noise(grRPS),
		RPSNonRestartedGroup: noise(gnrRPS),
		CPURestartedGroup:    noise(grCPU),
		MQTTConnsNormalized:  float64(liveConns) / float64(totalConns),
	}
}

// ReconnectStormResult models Fig. 3b: the app-tier CPU surge while
// clients whose proxies hard-restarted rebuild TCP/TLS and application
// state.
type ReconnectStormResult struct {
	// BaselineCPU is the pre-restart app-tier CPU fraction.
	BaselineCPU float64
	// PeakCPU is the highest app-tier CPU fraction during the storm.
	PeakCPU float64
	// ExtraCPUFraction is the peak increase relative to baseline
	// (paper: restarting 10% of Origin proxies costs ~20% extra CPU).
	ExtraCPUFraction float64
	// Timeline is the CPU fraction per tick.
	Timeline []float64
}

// The storm's calibration: the steady app-tier utilisation; the CPU cost
// of one reconnection handshake (TCP+TLS+session rebuild) relative to
// serving one steady-state request-second (§2.5 cites [11, 18]); how many
// ticks the reconnect wave spans; and the timeline's length in ticks.
const (
	stormBaselineCPU   = 0.5
	stormHandshakeCost = 2.0
	stormSpreadTicks   = 6
	stormTicks         = 30
)

// RunReconnectStorm simulates the Fig. 3b experiment with frac of the
// Origin proxies hard-restarted at t=0 (the paper's datapoint: 0.10).
func RunReconnectStorm(frac float64) ReconnectStormResult {
	res := ReconnectStormResult{BaselineCPU: stormBaselineCPU}
	// The restarted proxies carried frac of all user connections; all of
	// them reconnect, spread over the wave.
	totalReconnectLoad := frac * stormHandshakeCost * stormBaselineCPU * 2
	for t := 0; t < stormTicks; t++ {
		cpu := stormBaselineCPU
		if t >= 2 && t < 2+stormSpreadTicks {
			cpu += totalReconnectLoad / float64(stormSpreadTicks) * triangle(t-2, stormSpreadTicks) * float64(stormSpreadTicks) / 2
		}
		if cpu > 1 {
			cpu = 1
		}
		if cpu > res.PeakCPU {
			res.PeakCPU = cpu
		}
		res.Timeline = append(res.Timeline, cpu)
	}
	res.ExtraCPUFraction = (res.PeakCPU - res.BaselineCPU) / res.BaselineCPU
	return res
}

// triangle is a unit triangular pulse over [0, width).
func triangle(i, width int) float64 {
	half := float64(width) / 2
	x := float64(i)
	if x < half {
		return x / half
	}
	return (float64(width) - x) / half
}

// String renders a release result compactly (debugging aid).
func (r ReleaseResult) String() string {
	return fmt.Sprintf("%s machines=%d batch=%.0f%% drain=%v: completion=%v minCap=%.2f minIdle=%.2f disrupted=%d",
		r.Config.Strategy, r.Config.Machines, r.Config.BatchFraction*100, r.Config.DrainPeriod,
		r.CompletionTime, r.MinCapacityFraction, r.MinIdleCPUFraction, r.DisruptedConns)
}
