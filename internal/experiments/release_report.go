package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"zdr/internal/core"
	"zdr/internal/fleet"
	"zdr/internal/metrics"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// releasePhaseOrder is the canonical presentation order for the phase
// table: the release envelope, then the per-slot restart machinery, then
// the Fig. 5 takeover steps, then the drain tails.
var releasePhaseOrder = []string{
	"rollout", "rollout.batch", "slot.restart", "takeover.handoff",
	"takeover.serve",
	"takeover.step.A", "takeover.step.B", "takeover.step.C",
	"takeover.prepare", "takeover.commit",
	"takeover.step.E", "takeover.step.F",
	"slot.drain", "proxy.drain",
}

// TblReleasePhases regenerates the release-phase breakdown: a traced
// two-tier rolling release run by fleet.Orchestrator (Origin then Edge,
// real sockets, real Socket Takeover hand-offs) whose ReleaseReport is folded into a table of
// per-phase durations. It is the experiments-side consumer of the
// machine-readable release report.
func TblReleasePhases() (Table, error) {
	tab, _, err := releasePhases("", nil)
	return tab, err
}

// releasePhases runs the traced release and builds the table. When
// reportPath is non-empty the ReleaseReport JSON is written there; hook
// (optional) is installed as the tracer's span-start hook, which is how
// tests inject deterministic stalls into individual takeover steps.
func releasePhases(reportPath string, hook func(*obs.Span)) (Table, *core.ReleaseReport, error) {
	dir, err := os.MkdirTemp("", "zdr-release-*")
	if err != nil {
		return Table{}, nil, err
	}
	defer os.RemoveAll(dir)

	tracer := obs.NewTracer("experiments")
	reg := metrics.NewRegistry()
	if hook != nil {
		tracer.SetSpanStartHook(hook)
	}

	originGen := 0
	origin := &core.ProxySlot{
		SlotName:  "origin",
		Path:      filepath.Join(dir, "origin.sock"),
		DrainWait: 10 * time.Millisecond,
		Build: func() *proxy.Proxy {
			originGen++
			return proxy.New(proxy.Config{
				Name:       fmt.Sprintf("origin-g%d", originGen),
				Role:       proxy.RoleOrigin,
				AppServers: []string{"127.0.0.1:9"}, // no traffic flows
				Trace:      tracer,
			}, reg)
		},
	}
	if err := origin.Start(); err != nil {
		return Table{}, nil, err
	}
	defer origin.Close()

	tunnelAddr := origin.Current().Addr(proxy.VIPTunnel)
	edgeGen := 0
	edge := &core.ProxySlot{
		SlotName:  "edge",
		Path:      filepath.Join(dir, "edge.sock"),
		DrainWait: 10 * time.Millisecond,
		Build: func() *proxy.Proxy {
			edgeGen++
			return proxy.New(proxy.Config{
				Name:    fmt.Sprintf("edge-g%d", edgeGen),
				Role:    proxy.RoleEdge,
				Origins: []string{tunnelAddr},
				Trace:   tracer,
			}, reg)
		},
	}
	if err := edge.Start(); err != nil {
		return Table{}, nil, err
	}
	defer edge.Close()

	// Origin then edge, one slot a batch: the operator's release with
	// the health gate left out.
	nodes := []*fleet.Node{{Name: origin.SlotName, Target: origin}, {Name: edge.SlotName, Target: edge}}
	o, err := fleet.New(fleet.Config{Ungated: true, MaxBatchSize: 1, Trace: tracer}, nodes)
	if err != nil {
		return Table{}, nil, err
	}
	before := reg.Snapshot().Counters
	if err := o.Run(); err != nil {
		return Table{}, nil, err
	}
	// Drains outlive Restart; wait so that their spans have ended.
	origin.WaitDrains()
	edge.WaitDrains()
	rr := core.NewReleaseReport(before, reg.Snapshot().Counters, tracer.Finished())
	if reportPath != "" {
		if err := rr.WriteFile(reportPath); err != nil {
			return Table{}, nil, err
		}
	}

	// Canonical phases first, anything else (future spans) alphabetically.
	var names []string
	seen := map[string]bool{}
	for _, n := range releasePhaseOrder {
		if rr.PhaseCount[n] > 0 {
			names = append(names, n)
			seen[n] = true
		}
	}
	var extra []string
	for n := range rr.PhaseCount {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	tab := Table{
		ID:      "T-D",
		Title:   "Release-phase durations from the machine-readable ReleaseReport",
		Columns: []string{"phase", "count", "total (ms)", "mean (ms)"},
		Notes: "per-phase time from the traced release span tree; takeover.step.* rows are " +
			"Fig. 5's steps, takeover.prepare/takeover.commit the two-phase confirmation " +
			"(recorded on both sides of the hand-off socket)",
	}
	for _, n := range names {
		total := rr.Phase(n)
		count := rr.PhaseCount[n]
		mean := time.Duration(0)
		if count > 0 {
			mean = total / time.Duration(count)
		}
		tab.Rows = append(tab.Rows, []string{
			n,
			fmt.Sprintf("%d", count),
			f2(float64(total) / float64(time.Millisecond)),
			f2(float64(mean) / float64(time.Millisecond)),
		})
	}
	return tab, rr, nil
}
