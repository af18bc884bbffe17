package experiments

import (
	"fmt"
	"time"

	"zdr/internal/cluster"
	"zdr/internal/quicx"
	"zdr/internal/workload"
)

// Fig2aReleaseCadence regenerates Fig. 2a: per-week release counts for
// Edge (L7LB) and DataCenter (App Server) clusters over a 3-month window,
// 10 clusters each.
func Fig2aReleaseCadence() (Table, error) {
	rng := workload.NewRNG(0xF2A)
	const clusters, weeks = 10, 13
	var l7, app []float64
	for c := 0; c < clusters; c++ {
		for w := 0; w < weeks; w++ {
			l7 = append(l7, float64(workload.ReleasesPerWeek(rng, workload.TierL7LB)))
			app = append(app, float64(workload.ReleasesPerWeek(rng, workload.TierAppServer)))
		}
	}
	q := func(v []float64, p float64) string { return f2(workload.Percentile(v, p)) }
	t := Table{
		ID:      "F2a",
		Title:   "Releases per week (10 clusters, 13 weeks)",
		Columns: []string{"tier", "p10", "p50", "p90"},
		Rows: [][]string{
			{"L7LB (Proxygen)", q(l7, 0.1), q(l7, 0.5), q(l7, 0.9)},
			{"App Server", q(app, 0.1), q(app, 0.5), q(app, 0.9)},
		},
		Notes: "paper: L7LB >= 3/week on average; App Server ~100/week at the median",
	}
	return t, nil
}

// Fig2bReleaseCauses regenerates Fig. 2b: root causes of L7LB releases.
func Fig2bReleaseCauses() (Table, error) {
	rng := workload.NewRNG(0xF2B)
	const samples = 100_000
	counts := map[workload.ReleaseCause]int{}
	for i := 0; i < samples; i++ {
		counts[workload.SampleCause(rng)]++
	}
	t := Table{
		ID:      "F2b",
		Title:   "Root causes of L7LB releases",
		Columns: []string{"cause", "share"},
		Notes:   "paper: binary (code) updates ~47%, configuration next; both require a restart",
	}
	for c := workload.CauseBinary; c <= workload.CauseRollback; c++ {
		t.Rows = append(t.Rows, []string{c.String(), pct(float64(counts[c]) / samples)})
	}
	return t, nil
}

// Fig2cCommitsPerRelease regenerates Fig. 2c: distinct commits per App
// Server release.
func Fig2cCommitsPerRelease() (Table, error) {
	rng := workload.NewRNG(0xF2C)
	var v []float64
	for i := 0; i < 50_000; i++ {
		v = append(v, float64(workload.CommitsPerRelease(rng)))
	}
	t := Table{
		ID:      "F2c",
		Title:   "Code commits per App Server release",
		Columns: []string{"p10", "p50", "p90", "min", "max"},
		Rows: [][]string{{
			f2(workload.Percentile(v, 0.1)),
			f2(workload.Percentile(v, 0.5)),
			f2(workload.Percentile(v, 0.9)),
			f2(workload.Percentile(v, 0)),
			f2(workload.Percentile(v, 1)),
		}},
		Notes: "paper: each update carries 10-100 distinct commits",
	}
	return t, nil
}

// Fig2dReuseportMisrouting regenerates Fig. 2d: UDP packets mis-routed
// during a SO_REUSEPORT socket handover (kernel socket-ring flux model),
// for several flow counts.
func Fig2dReuseportMisrouting() (Table, error) {
	t := Table{
		ID:      "F2d",
		Title:   "UDP packets mis-routed during SO_REUSEPORT socket handover",
		Columns: []string{"flows", "flux misrouted", "purge misrouted", "misroute rate"},
		Notes:   "paper: the ring flux 'significantly increases the likelihood of UDP packets being misrouted'",
	}
	for _, flows := range []int{1_000, 10_000, 100_000} {
		out, err := quicx.SimulateReuseportRelease(8, flows, 5)
		if err != nil {
			return t, err
		}
		total := out.FluxMisrouted + out.PurgeMisrouted
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", flows),
			fmt.Sprintf("%d", out.FluxMisrouted),
			fmt.Sprintf("%d", out.PurgeMisrouted),
			pct(float64(total) / float64(out.Delivered)),
		})
	}
	return t, nil
}

// Fig3aCapacityTimeline regenerates Fig. 3a: an Edge cluster's capacity
// during a traditional rolling release with 15-20% batches.
func Fig3aCapacityTimeline() (Table, error) {
	res := cluster.RunRelease(cluster.Config{
		Machines:      100,
		BatchFraction: 0.20,
		DrainPeriod:   20 * time.Minute,
		BatchGap:      3 * time.Minute,
		Strategy:      cluster.HardRestart,
		Tick:          time.Minute,
		Seed:          0xF3A,
	})
	t := Table{
		ID:      "F3a",
		Title:   "Cluster capacity during a traditional rolling update (20% batches)",
		Columns: []string{"minute", "capacity"},
		Notes:   fmt.Sprintf("paper: persistently <85%% capacity during the update; measured min %.0f%%, completion %v", res.MinCapacityFraction*100, res.CompletionTime),
	}
	for i, s := range res.Timeline {
		if i%5 != 0 {
			continue // sample every 5 minutes for the table
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", int(s.T.Minutes())), pct(s.CapacityFraction)})
	}
	return t, nil
}

// Fig3bReconnectCPU regenerates Fig. 3b: app-tier CPU while clients
// reconnect after a fraction of Origin proxies hard-restart.
func Fig3bReconnectCPU() (Table, error) {
	t := Table{
		ID:      "F3b",
		Title:   "App-tier CPU surge from client reconnections",
		Columns: []string{"% proxies restarted", "baseline CPU", "peak CPU", "extra CPU"},
		Notes:   "paper: when 10% of Origin Proxygen restart, the app cluster spends ~20% of CPU cycles rebuilding state",
	}
	for _, frac := range []float64{0.05, 0.10, 0.20} {
		res := cluster.RunReconnectStorm(frac)
		t.Rows = append(t.Rows, []string{
			pct(frac), pct(res.BaselineCPU), pct(res.PeakCPU), pct(res.ExtraCPUFraction),
		})
	}
	return t, nil
}

// Fig15RestartHours regenerates Fig. 15: the hour-of-day PDF of releases
// per tier.
func Fig15RestartHours() (Table, error) {
	rng := workload.NewRNG(0xF15)
	const samples = 100_000
	l7 := make([]int, 24)
	app := make([]int, 24)
	for i := 0; i < samples; i++ {
		l7[workload.RestartHour(rng, workload.TierL7LB)]++
		app[workload.RestartHour(rng, workload.TierAppServer)]++
	}
	t := Table{
		ID:      "F15",
		Title:   "PDF of restart hour-of-day per tier",
		Columns: []string{"hour", "Proxygen", "App Server"},
		Notes:   "paper: Proxygen releases concentrate 12:00-17:00 (peak hours); App Server restarts run continuously (flat)",
	}
	for h := 0; h < 24; h += 2 {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%02d:00", h),
			f4(float64(l7[h]+l7[h+1]) / samples),
			f4(float64(app[h]+app[h+1]) / samples),
		})
	}
	return t, nil
}
