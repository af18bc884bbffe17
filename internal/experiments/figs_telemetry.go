package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/fleet"
	"zdr/internal/proxy"
)

// tblDisruptionAttribution regenerates the §6-style disruption
// attribution table (T-F): the same chaos — accept-path connection
// aborts on every node — applied while a build rolls out gated vs
// ungated, with every terminal failure attributed by the per-node
// disruption ledgers and merged fleet-wide through the telemetry
// pipeline. The books must balance exactly in both scenarios (every
// injected fault appears as one attributed (cause, phase) cell, nothing
// is unattributed); what differs is the release-phase column: the gated
// rollout holds canaries in committed-awaiting-ready while the gate
// watches, so chaos landing inside the observation window is attributed
// to that phase instead of blurring into steady-state serving.
func tblDisruptionAttribution() (Table, error) {
	tab, _, err := disruptionAttribution("")
	return tab, err
}

// disruptionAttribution builds the T-F table. When artifactDir is
// non-empty the fleet-merged TelemetryReport of each scenario is written
// there as telemetry-report-<scenario>.json (the CI artifacts).
func disruptionAttribution(artifactDir string) (Table, map[string]disruptionRun, error) {
	tab := Table{
		id:      "T-F",
		title:   "Disruption attribution: terminal failures by cause x release phase, gated vs ungated",
		columns: []string{"scenario", "cause", "release phase", "count", "per request"},
		notes: "4-node fleet under load with accept-path chaos during the rollout; every row " +
			"is a fleet-merged ledger cell and the books balance exactly (injected == " +
			"attributed, unattributed == 0). Gated canaries sit in committed-awaiting-ready " +
			"while the gate watches, so in-window chaos is attributed to the release — the " +
			"ungated push has no such window and every failure lands in steady-state serving",
	}
	runs := map[string]disruptionRun{}
	for _, sc := range []struct {
		name  string
		gated bool
	}{{"gated", true}, {"ungated", false}} {
		run, err := disruptionRollout(sc.gated)
		if err != nil {
			return Table{}, nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		runs[sc.name] = run
		if artifactDir != "" {
			data, err := json.MarshalIndent(run.report, "", "  ")
			if err != nil {
				return Table{}, nil, err
			}
			path := filepath.Join(artifactDir, "telemetry-report-"+sc.name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return Table{}, nil, err
			}
		}
		rep := run.report
		tab.Rows = append(tab.Rows, []string{
			sc.name, "(all terminal)", "-",
			fmt.Sprintf("%d", rep.Disruption.Terminal),
			f4(rep.DisruptionRate),
		})
		cells := append([]disrupt.Cell(nil), rep.CausePhase...)
		fleet.SortCellsByCount(cells)
		for _, c := range cells {
			tab.Rows = append(tab.Rows, []string{
				sc.name, c.Cause, c.Phase,
				fmt.Sprintf("%d", c.Count),
				f4(rate64(c.Count, rep.Requests)),
			})
		}
	}
	return tab, runs, nil
}

// disruptionRun is one scenario's outcome: the fleet-merged telemetry
// report and the injectors' own count of faults fired — the two sides of
// the reconciliation.
type disruptionRun struct {
	report   fleet.TelemetryReport
	injected int64
}

// disruptionRollout rolls a good build across a small live fleet whose
// accept paths randomly abort connections, then scrapes and merges the
// fleet telemetry. It is the experiments-side miniature of
// internal/fleet's telemetry chaos suite.
func disruptionRollout(gated bool) (disruptionRun, error) {
	const nodes = 4
	var run disruptionRun
	leds := make([]*disrupt.Ledger, nodes)
	injs := make([]*faults.Injector, nodes)
	for i := range leds {
		leds[i] = disrupt.New(fmt.Sprintf("edge-%02d", i), 256)
		injs[i] = faults.NewInjector(faults.Scenario{Seed: uint64(i + 1), AbortRate: 0.12, AbortMinOps: 1})
	}
	f, err := fleet.NewFleet(nodes, gated, 5*time.Second, func(i int, cfg *proxy.Config) {
		cfg.AcceptFaults, cfg.Ledger = injs[i], leds[i]
		cfg.StaticContent = map[string][]byte{"/hello": []byte("ok")}
	})
	if err != nil {
		return run, err
	}
	defer f.Close()
	for i, n := range f.Nodes {
		n.Disruption = leds[i].Report
	}

	// Continuous load; aborted connections are the injected chaos, so the
	// client outcome is irrelevant here — the ledgers keep the books.
	f.Load(func(int, int, error) {})
	time.Sleep(100 * time.Millisecond) // pre-release baseline history

	// The gate must tolerate the chaos (it hits old and new generation
	// alike); the telemetry channel is exercised, not tripped.
	o, err := rolloutOver(f, gated, "tbl-disrupt", fleet.GateConfig{
		MaxErrorRateDelta:   0.9,
		MaxProbeFailureRate: 0.95,
		MaxDisruptionRate:   0.9,
	})
	if err != nil {
		return run, err
	}
	if err := o.Run(); err != nil {
		return run, err
	}
	if st := o.Status(); st.State != fleet.StateDone {
		return run, fmt.Errorf("rollout state %q (%s), want done", st.State, st.Reason)
	}

	// Join in-flight handlers so every late fault is recorded before the
	// books are audited.
	f.Close()
	for _, inj := range injs {
		run.injected += int64(inj.InjectedTotal())
	}
	tele := &fleet.Telemetry{Nodes: f.Nodes}
	run.report = tele.Scrape()
	return run, nil
}

func rate64(events, requests int64) float64 {
	if requests <= 0 {
		return 0
	}
	return float64(events) / float64(requests)
}
