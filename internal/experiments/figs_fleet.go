package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"zdr/internal/fleet"
	"zdr/internal/proxy"
)

// tblFleetRollout regenerates the fleet control-plane comparison (§6 at
// simulation scale): the same broken build pushed to the same live
// fleet under the pre-gate release process (ungated: every node
// restarts and is promoted regardless of health) versus the health-gated
// canary rollout (the canary batch fails its gate and rolls back via
// drain-undo before anyone else is touched). A gated rollout of a good
// build rides along as the control. The client-visible error counts are
// the point: gating confines the bad build's blast radius to the canary
// batch's observation window, and in every scenario — promote, rollback,
// fleet-wide bad build — transport-level failures stay at zero, because
// the data plane never leaves the Socket Takeover protocol.
func tblFleetRollout() (Table, error) {
	type scenario struct {
		name  string
		gated bool
		bad   bool
	}
	scenarios := []scenario{
		{"gated, good build", true, false},
		{"gated, bad build", true, true},
		{"ungated, bad build", false, true},
	}
	tab := Table{
		id:      "T-E",
		title:   "Fleet rollout disruption: health-gated canary vs ungated push",
		columns: []string{"scenario", "state", "promoted", "rolled back", "client 5xx", "transport fails"},
		notes: "6-node fleet under continuous client load; the bad build answers every request " +
			"503. Gating pauses the rollout at the canary batch (blast radius = canary's " +
			"observation window) where the ungated push promotes the broken build fleet-wide; " +
			"transport failures are zero everywhere — rollback is drain-undo, not a rebind",
	}
	for _, sc := range scenarios {
		res, err := fleetRollout(sc.gated, sc.bad)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", sc.name, err)
		}
		tab.Rows = append(tab.Rows, []string{
			sc.name,
			res.state,
			fmt.Sprintf("%d", res.promoted),
			fmt.Sprintf("%d", res.rolledBack),
			fmt.Sprintf("%d", res.serverErr),
			fmt.Sprintf("%d", res.transport),
		})
	}
	return tab, nil
}

// fleetRolloutResult is one scenario's outcome.
type fleetRolloutResult struct {
	state      string
	promoted   int
	rolledBack int
	serverErr  int64
	transport  int64
}

// rolloutOver builds the orchestrator that pushes a build to f: fleet's
// canary-first defaults, a 150 ms health window probed every 10 ms.
func rolloutOver(f *fleet.Fleet, gated bool, name string, gate fleet.GateConfig) (*fleet.Orchestrator, error) {
	return fleet.New(fleet.Config{
		Name:          name,
		HealthWindow:  150 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		Ungated:       !gated,
		Gate:          gate,
	}, f.Nodes)
}

// fleetRollout pushes a build to a small live fleet and reports the
// rollout outcome plus the client's view of it. It is the experiments-
// side miniature of internal/fleet's chaos suite.
func fleetRollout(gated, bad bool) (fleetRolloutResult, error) {
	var res fleetRolloutResult
	var good atomic.Bool
	good.Store(true)
	f, err := fleet.NewFleet(6, gated, 5*time.Second, func(_ int, cfg *proxy.Config) {
		if good.Load() {
			cfg.StaticContent = map[string][]byte{"/hello": []byte("ok")}
		}
	})
	if err != nil {
		return res, err
	}
	defer f.Close()

	// Continuous client load against every node, with the two failure
	// classes separated: 5xx (the bad build) vs transport (forbidden).
	var errN, transportN atomic.Int64
	f.Load(func(_, code int, err error) {
		if err != nil {
			transportN.Add(1)
		} else if code != 200 {
			errN.Add(1)
		}
	})
	time.Sleep(100 * time.Millisecond) // error-free baseline history

	good.Store(!bad)
	o, err := rolloutOver(f, gated, "tbl-fleet", fleet.GateConfig{})
	if err != nil {
		return res, err
	}
	// A gate refusal pauses the rollout awaiting an operator; this
	// experiment's operator always abandons.
	ran, abandoned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(abandoned)
		for {
			select {
			case <-ran:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if o.Status().State == fleet.StatePaused {
				o.Decide(false)
				return
			}
		}
	}()
	err = o.Run()
	close(ran)
	<-abandoned
	if err != nil {
		return res, err
	}

	time.Sleep(50 * time.Millisecond) // post-rollout serving tail
	f.Close()

	st := o.Status()
	res.state = st.State
	for _, n := range st.Nodes {
		if n.Promoted {
			res.promoted++
		}
		if n.RolledBack {
			res.rolledBack++
		}
	}
	res.serverErr = errN.Load()
	res.transport = transportN.Load()
	return res, nil
}
