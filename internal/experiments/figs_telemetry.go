package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/fleet"
	"zdr/internal/metrics"
	"zdr/internal/proxy"
)

// TblDisruptionAttribution regenerates the §6-style disruption
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
func TblDisruptionAttribution() (Table, error) {
	tab, _, err := tblDisruptionAttribution("")
	return tab, err
}

// tblDisruptionAttribution builds the T-F table. When artifactDir is
// non-empty the fleet-merged TelemetryReport of each scenario is written
// there as telemetry-report-<scenario>.json (the CI artifacts).
func tblDisruptionAttribution(artifactDir string) (Table, map[string]disruptionRun, error) {
	tab := Table{
		ID:      "T-F",
		Title:   "Disruption attribution: terminal failures by cause x release phase, gated vs ungated",
		Columns: []string{"scenario", "cause", "release phase", "count", "per request"},
		Notes: "4-node fleet under load with accept-path chaos during the rollout; every row " +
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

	dir, err := os.MkdirTemp("", "zdr-disrupt-*")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)

	type simNode struct {
		slot    *core.ProxySlot
		win     *fleet.CanaryWindow
		led     *disrupt.Ledger
		inj     *faults.Injector
		webAddr string
	}
	sims := make([]*simNode, nodes)
	fnodes := make([]*fleet.Node, nodes)
	for i := range sims {
		name := fmt.Sprintf("edge-%02d", i)
		s := &simNode{
			led: disrupt.New(name, 256),
			inj: faults.NewInjector(faults.Scenario{
				Seed:        uint64(i + 1),
				AbortRate:   0.12,
				AbortMinOps: 1,
			}),
		}
		if gated {
			s.win = fleet.NewCanaryWindow(5 * time.Second)
		}
		reg := metrics.NewRegistry()
		gen := 0
		s.slot = &core.ProxySlot{
			SlotName:  name,
			Path:      filepath.Join(dir, name+".sock"),
			DrainWait: 5 * time.Millisecond,
			Build: func() *proxy.Proxy {
				gen++
				cfg := proxy.Config{
					Name:                 fmt.Sprintf("%s-g%d", name, gen),
					Role:                 proxy.RoleEdge,
					TakeoverReadyTimeout: 30 * time.Second,
					AcceptFaults:         s.inj,
					Ledger:               s.led,
					Generation:           gen,
					StaticContent:        map[string][]byte{"/hello": []byte("ok")},
				}
				if s.win != nil {
					cfg.ReadyGate = s.win.Gate
				}
				return proxy.New(cfg, reg)
			},
		}
		if err := s.slot.Start(); err != nil {
			return run, err
		}
		defer s.slot.Close()
		s.webAddr = s.slot.Current().Addr(proxy.VIPWeb)
		fnodes[i] = fleet.ProxyNode(fmt.Sprintf("vip-%02d", i), s.slot, reg,
			func() string { return s.webAddr }, "/hello", s.win)
		fnodes[i].Disruption = s.led.Report
		sims[i] = s
	}

	// Continuous load; aborted connections are the injected chaos, so the
	// client outcome is irrelevant here — the ledgers keep the books.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sims {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fleetGET(addr, "/hello")
				time.Sleep(time.Millisecond)
			}
		}(s.webAddr)
	}
	time.Sleep(100 * time.Millisecond) // pre-release baseline history

	// The gate must tolerate the chaos (it hits old and new generation
	// alike); the telemetry channel is exercised, not tripped.
	o, err := fleet.New(fleet.Config{
		Name:          "tbl-disrupt",
		CanarySize:    1,
		GrowthFactor:  2,
		HealthWindow:  150 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Ungated:       !gated,
		Gate: fleet.GateConfig{
			MaxErrorRateDelta:   0.9,
			MaxProbeFailureRate: 0.95,
			MaxDisruptionRate:   0.9,
		},
	}, fnodes)
	if err != nil {
		return run, err
	}
	if err := o.Run(); err != nil {
		return run, err
	}
	if st := o.Status(); st.State != fleet.StateDone {
		return run, fmt.Errorf("rollout state %q (%s), want done", st.State, st.Reason)
	}

	close(stop)
	wg.Wait()
	// Join in-flight handlers so every late fault is recorded before the
	// books are audited.
	for _, s := range sims {
		s.slot.Close()
	}

	for _, s := range sims {
		run.injected += int64(s.inj.InjectedTotal())
	}
	tele := &fleet.Telemetry{Nodes: fnodes}
	run.report = tele.Scrape()
	return run, nil
}

func rate64(events, requests int64) float64 {
	if requests <= 0 {
		return 0
	}
	return float64(events) / float64(requests)
}
