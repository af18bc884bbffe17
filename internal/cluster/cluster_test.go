package cluster

import (
	"math"
	"testing"
	"time"

	"zdr/internal/workload"
)

func TestHardRestartReducesCapacity(t *testing.T) {
	res := RunRelease(Config{
		Machines:      100,
		BatchFraction: 0.2,
		DrainPeriod:   10 * time.Minute,
		Strategy:      HardRestart,
		Tick:          30 * time.Second,
	})
	// Fig. 3a: with 20% batches the cluster sits at ~80% capacity.
	if res.MinCapacityFraction > 0.85 {
		t.Fatalf("min capacity = %v, want <= 0.80 for 20%% batches", res.MinCapacityFraction)
	}
	if res.MinCapacityFraction < 0.75 {
		t.Fatalf("min capacity = %v, suspiciously low", res.MinCapacityFraction)
	}
}

func TestZeroDowntimePreservesCapacity(t *testing.T) {
	res := RunRelease(Config{
		Machines:      100,
		BatchFraction: 0.2,
		DrainPeriod:   10 * time.Minute,
		Strategy:      ZeroDowntime,
		Tick:          30 * time.Second,
	})
	// §6.1.2: the machine stays available; capacity never drops.
	if res.MinCapacityFraction < 0.999 {
		t.Fatalf("ZDR capacity dropped to %v", res.MinCapacityFraction)
	}
}

// TestIdleCPUShape reproduces Fig. 8(b)'s contrast: HardRestart idle CPU
// degrades linearly with batch size; ZDR stays within a few percent.
func TestIdleCPUShape(t *testing.T) {
	run := func(strategy Strategy, frac float64) float64 {
		return RunRelease(Config{
			Machines:      100,
			BatchFraction: frac,
			DrainPeriod:   10 * time.Minute,
			Strategy:      strategy,
			Tick:          time.Minute,
		}).MinIdleCPUFraction
	}
	hard5, hard20 := run(HardRestart, 0.05), run(HardRestart, 0.20)
	zdr20 := run(ZeroDowntime, 0.20)

	if zdr20 < 0.90 {
		t.Fatalf("ZDR idle CPU dropped to %v, want within ~10%% of baseline", zdr20)
	}
	if hard20 >= hard5 {
		t.Fatalf("HardRestart idle CPU should degrade with batch size: 5%%=%v 20%%=%v", hard5, hard20)
	}
	// 20% offline at 70% load burns 2/3 of the idle headroom.
	if hard20 > 0.5 {
		t.Fatalf("HardRestart@20%% idle = %v, want <= 0.5", hard20)
	}
	if zdr20 <= hard20 {
		t.Fatal("ZDR must preserve more idle CPU than HardRestart")
	}
}

// TestFig13GroupSeries: under ZDR, the restarted group's RPS stays ~1 and
// its CPU shows the parallel-instance bump; under HardRestart the group
// goes dark and the rest absorb its load.
func TestFig13GroupSeries(t *testing.T) {
	zdr := RunRelease(Config{
		Machines: 50, BatchFraction: 0.2, DrainPeriod: 5 * time.Minute,
		Strategy: ZeroDowntime, Tick: 15 * time.Second,
	})
	var maxCPU float64
	for _, s := range zdr.Timeline {
		if s.RPSRestartedGroup < 0.95 {
			t.Fatalf("ZDR restarted group RPS fell to %v", s.RPSRestartedGroup)
		}
		if s.CPURestartedGroup > maxCPU {
			maxCPU = s.CPURestartedGroup
		}
	}
	if maxCPU < 1.01 {
		t.Fatalf("ZDR restarted group never showed the takeover CPU bump (max %v)", maxCPU)
	}

	hard := RunRelease(Config{
		Machines: 50, BatchFraction: 0.2, DrainPeriod: 5 * time.Minute,
		Strategy: HardRestart, Tick: 15 * time.Second,
	})
	sawDark, sawShift := false, false
	for _, s := range hard.Timeline {
		if s.RPSRestartedGroup < 0.01 {
			sawDark = true
		}
		if s.RPSNonRestartedGroup > 1.1 {
			sawShift = true
		}
	}
	if !sawDark || !sawShift {
		t.Fatalf("HardRestart group dynamics missing: dark=%v shift=%v", sawDark, sawShift)
	}
}

func TestDisruptedConnections(t *testing.T) {
	hard := RunRelease(Config{
		Machines: 100, BatchFraction: 0.2, DrainPeriod: 5 * time.Minute,
		Strategy: HardRestart, Tick: 30 * time.Second, mqttConnsPerMachine: 1000,
	})
	zdr := RunRelease(Config{
		Machines: 100, BatchFraction: 0.2, DrainPeriod: 5 * time.Minute,
		Strategy: ZeroDowntime, Tick: 30 * time.Second, mqttConnsPerMachine: 1000,
	})
	if zdr.DisruptedConns != 0 {
		t.Fatalf("ZDR disrupted %d connections", zdr.DisruptedConns)
	}
	// HardRestart eventually terminates the persistent share (80%) of
	// every machine's connections.
	want := int64(100 * 1000 * 8 / 10)
	if hard.DisruptedConns != want {
		t.Fatalf("HardRestart disrupted %d, want %d", hard.DisruptedConns, want)
	}
}

func TestReleaseDeterministic(t *testing.T) {
	cfg := Config{Machines: 60, BatchFraction: 0.15, DrainPeriod: 8 * time.Minute, Strategy: ZeroDowntime, Seed: 99}
	a, b := RunRelease(cfg), RunRelease(cfg)
	if len(a.Timeline) != len(b.Timeline) {
		t.Fatal("nondeterministic timeline length")
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			t.Fatalf("tick %d differs", i)
		}
	}
}

func TestCompletionTimeOrdering(t *testing.T) {
	// Fig. 16: Proxygen releases (long drains) are much slower than App
	// Server releases despite bigger app fleets.
	l7 := CompletionTimes(CompletionTimeConfig{Tier: workload.TierL7LB, Samples: 20, Seed: 5})
	app := CompletionTimes(CompletionTimeConfig{Tier: workload.TierAppServer, Samples: 20, Seed: 5})
	med := func(ds []time.Duration) time.Duration {
		vals := make([]float64, len(ds))
		for i, d := range ds {
			vals[i] = float64(d)
		}
		return time.Duration(workload.Percentile(vals, 0.5))
	}
	l7med, appMed := med(l7), med(app)
	if l7med < time.Hour || l7med > 3*time.Hour {
		t.Fatalf("Proxygen median completion = %v, want ~1.5h", l7med)
	}
	if appMed < 10*time.Minute || appMed > 50*time.Minute {
		t.Fatalf("AppServer median completion = %v, want ~25min", appMed)
	}
	if appMed >= l7med {
		t.Fatal("App Server releases should complete faster than Proxygen releases")
	}
}

func TestReconnectStormMatchesPaperDatapoint(t *testing.T) {
	// §2.5 / Fig. 3b: restarting 10% of Origin proxies costs the app tier
	// ~20% extra CPU rebuilding state.
	res := RunReconnectStorm(0.10)
	if res.ExtraCPUFraction < 0.15 || res.ExtraCPUFraction > 0.25 {
		t.Fatalf("extra CPU = %v, want ~0.20", res.ExtraCPUFraction)
	}
	// More restarts, more storm.
	bigger := RunReconnectStorm(0.20)
	if bigger.ExtraCPUFraction <= res.ExtraCPUFraction {
		t.Fatal("storm should scale with restarted fraction")
	}
	if len(res.timeline) == 0 || res.PeakCPU <= res.BaselineCPU {
		t.Fatalf("timeline broken: %+v", res)
	}
}

func TestWebTierWeekShape(t *testing.T) {
	res := RunWebTierWeek(7)
	if len(res.TotalPosts) != 7 {
		t.Fatalf("days = %d", len(res.TotalPosts))
	}
	for day := 0; day < 7; day++ {
		if res.TotalPosts[day] == 0 {
			t.Fatalf("day %d: no posts", day)
		}
		// Fig. 11: the would-be disruption percentage is tiny but
		// non-zero (median 0.0008% in the paper).
		pct := res.DisruptedPctWithoutPPR[day]
		if pct <= 0 {
			t.Fatalf("day %d: no would-be disruptions; restarts missing?", day)
		}
		if pct > 0.5 {
			t.Fatalf("day %d: %v%% disrupted, implausibly high", day, pct)
		}
		// With PPR and a 10-retry budget, disruptions effectively vanish.
		if res.PPRDisrupted[day] != 0 {
			t.Fatalf("day %d: PPR still lost %d requests", day, res.PPRDisrupted[day])
		}
	}
}

func TestStrategyString(t *testing.T) {
	if HardRestart.String() != "HardRestart" || ZeroDowntime.String() != "ZeroDowntime" {
		t.Fatal("strategy names wrong")
	}
}

func TestReleaseResultString(t *testing.T) {
	res := RunRelease(Config{Machines: 10, BatchFraction: 0.5, DrainPeriod: time.Minute, Strategy: ZeroDowntime})
	if res.String() == "" {
		t.Fatal("empty string")
	}
}

func BenchmarkRunRelease(b *testing.B) {
	cfg := Config{Machines: 200, BatchFraction: 0.2, DrainPeriod: 20 * time.Minute, Strategy: ZeroDowntime, Tick: 30 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunRelease(cfg)
	}
}

func TestTailLatencyCurve(t *testing.T) {
	base := tailLatency(time.Millisecond, 0.5)
	loaded := tailLatency(time.Millisecond, 0.9)
	if loaded <= base {
		t.Fatal("latency must rise with utilisation")
	}
	if got := tailLatency(time.Millisecond, 0.995); got != 100*time.Millisecond {
		t.Fatalf("saturated latency = %v, want clamped 100x", got)
	}
	if tailLatency(time.Millisecond, -1) != time.Millisecond {
		t.Fatal("negative utilisation should clamp to unloaded")
	}
}

func TestLatencyImpactTenPercent(t *testing.T) {
	// The §2.5 companion observation: taking 10% of capacity away at
	// realistic load visibly inflates the tail.
	x := latencyImpact(0.7, 0.10)
	if x < 1.1 || x > 3 {
		t.Fatalf("10%% capacity loss latency multiplier = %v, want noticeable", x)
	}
	if latencyImpact(0.7, 0.0) != 1 {
		t.Fatal("no capacity loss must mean no impact")
	}
	if !math.IsInf(latencyImpact(0.5, 1.0), 1) {
		t.Fatal("whole-fleet loss must be infinite impact")
	}
}

// TestPeakHourRelease is the §6.2.2 contrast: HardRestart at peak load
// saturates the survivors; ZDR releases safely at peak.
func TestPeakHourRelease(t *testing.T) {
	peak := 0.85
	hard := ReleaseAtLoad(HardRestart, peak)
	zdr := ReleaseAtLoad(ZeroDowntime, peak)
	if !hard.Saturated || hard.DroppedLoadFraction <= 0 {
		t.Fatalf("HardRestart at peak should saturate: %+v", hard)
	}
	if zdr.Saturated {
		t.Fatalf("ZDR at peak should not saturate: %+v", zdr)
	}
	if zdr.TailLatencyX > 2 {
		t.Fatalf("ZDR peak-hour latency multiplier = %v, want small", zdr.TailLatencyX)
	}
	// Off-peak, even HardRestart is fine — which is why traditional
	// operations shipped at night.
	offpeak := ReleaseAtLoad(HardRestart, 0.45)
	if offpeak.Saturated {
		t.Fatalf("HardRestart off-peak should not saturate: %+v", offpeak)
	}
}

// TestCanaryFirstStaging: with canarySize set, the release follows the
// fleet orchestrator's batch plan — a small first batch, exponential
// growth to the BatchFraction cap. The ramp trades completion time for
// a smaller first-exposure blast radius; capacity behaviour per strategy
// is unchanged.
func TestCanaryFirstStaging(t *testing.T) {
	base := Config{
		Machines:      100,
		BatchFraction: 0.2,
		DrainPeriod:   10 * time.Minute,
		Strategy:      ZeroDowntime,
		Tick:          30 * time.Second,
	}
	flat := RunRelease(base)

	canary := base
	canary.canarySize = 1
	staged := RunRelease(canary)

	// Batch plan 1,2,4,8,16,20,20,... = 9 batches vs 5 flat ones: the
	// staged release takes strictly longer.
	if staged.CompletionTime <= flat.CompletionTime {
		t.Fatalf("staged completion %v not above flat %v", staged.CompletionTime, flat.CompletionTime)
	}
	// Zero-downtime invariants hold regardless of staging.
	if staged.MinCapacityFraction < 0.999 {
		t.Fatalf("staged canary release dropped capacity to %v", staged.MinCapacityFraction)
	}
	if staged.DisruptedConns != 0 {
		t.Fatalf("staged zero-downtime release disrupted %d conns", staged.DisruptedConns)
	}

	// A hard-restart release staged canary-first dips far less at the
	// start: the first offline batch is one machine, not twenty.
	hardStaged := canary
	hardStaged.Strategy = HardRestart
	hs := RunRelease(hardStaged)
	if first := hs.Timeline[0].CapacityFraction; first < 0.98 {
		t.Fatalf("canary batch took %v of the fleet offline, want ~1 machine", 1-first)
	}
	if hs.MinCapacityFraction > 0.85 {
		t.Fatalf("staged hard restart min capacity %v — never reached the 20%% cap", hs.MinCapacityFraction)
	}
}

// TestOneMachinePerBatch: a 1% batch over 100 machines is a release of
// 100 one-machine batches, each lasting at least the drain period.
func TestOneMachinePerBatch(t *testing.T) {
	cfg := Config{
		Machines:      100,
		BatchFraction: 0.01,
		DrainPeriod:   time.Minute,
		Strategy:      ZeroDowntime,
		Tick:          30 * time.Second,
	}
	res := RunRelease(cfg)
	if floor := 100 * cfg.DrainPeriod; res.CompletionTime < floor {
		t.Fatalf("completion %v below 100 drain periods (%v)", res.CompletionTime, floor)
	}
	if res.MinCapacityFraction < 0.999 {
		t.Fatalf("zero-downtime release dropped capacity to %v", res.MinCapacityFraction)
	}
}
