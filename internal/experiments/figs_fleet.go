package experiments

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/core"
	"zdr/internal/fleet"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/proxy"
)

// TblFleetRollout regenerates the fleet control-plane comparison (§6 at
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
func TblFleetRollout() (Table, error) {
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
		ID:      "T-E",
		Title:   "Fleet rollout disruption: health-gated canary vs ungated push",
		Columns: []string{"scenario", "state", "promoted", "rolled back", "client 5xx", "transport fails"},
		Notes: "6-node fleet under continuous client load; the bad build answers every request " +
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
	ok         int64
	serverErr  int64
	transport  int64
}

// fleetRollout pushes a build to a small live fleet and reports the
// rollout outcome plus the client's view of it. It is the experiments-
// side miniature of internal/fleet's chaos suite.
func fleetRollout(gated, bad bool) (fleetRolloutResult, error) {
	const nodes = 6
	var res fleetRolloutResult

	dir, err := os.MkdirTemp("", "zdr-fleet-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	type simNode struct {
		slot    *core.ProxySlot
		win     *fleet.CanaryWindow
		good    atomic.Bool
		webAddr string
	}
	sims := make([]*simNode, nodes)
	fnodes := make([]*fleet.Node, nodes)
	for i := range sims {
		name := fmt.Sprintf("edge-%02d", i)
		s := &simNode{}
		if gated {
			s.win = fleet.NewCanaryWindow(5 * time.Second)
		}
		s.good.Store(true)
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
				}
				if s.win != nil {
					cfg.ReadyGate = s.win.Gate
				}
				if s.good.Load() {
					cfg.StaticContent = map[string][]byte{"/hello": []byte("ok")}
				}
				return proxy.New(cfg, reg)
			},
		}
		if err := s.slot.Start(); err != nil {
			return res, err
		}
		defer s.slot.Close()
		s.webAddr = s.slot.Current().Addr(proxy.VIPWeb)
		fnodes[i] = fleet.ProxyNode(fmt.Sprintf("vip-%02d", i), s.slot, reg,
			func() string { return s.webAddr }, "/hello", s.win)
		sims[i] = s
	}

	// Continuous client load against every node, with the two failure
	// classes separated: 5xx (the bad build) vs transport (forbidden).
	var okN, errN, transportN atomic.Int64
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
				code, err := fleetGET(addr, "/hello")
				switch {
				case err != nil:
					transportN.Add(1)
				case code == 200:
					okN.Add(1)
				default:
					errN.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}(s.webAddr)
	}
	time.Sleep(100 * time.Millisecond) // error-free baseline history

	for _, s := range sims {
		s.good.Store(!bad)
	}

	o, err := fleet.New(fleet.Config{
		Name:          "tbl-fleet",
		CanarySize:    1,
		GrowthFactor:  2,
		HealthWindow:  150 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		WindowTimeout: 10 * time.Second,
		Ungated:       !gated,
	}, fnodes)
	if err != nil {
		return res, err
	}
	// A gate refusal pauses the rollout awaiting an operator; this
	// experiment's operator always abandons.
	abandoned := make(chan struct{})
	go func() {
		defer close(abandoned)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if o.Status().State == fleet.StatePaused {
				o.Decide(false)
				return
			}
		}
	}()
	if err := o.Run(); err != nil {
		return res, err
	}

	time.Sleep(50 * time.Millisecond) // post-rollout serving tail
	close(stop)
	wg.Wait()
	<-abandoned

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
	res.ok = okN.Load()
	res.serverErr = errN.Load()
	res.transport = transportN.Load()
	return res, nil
}

// fleetGET issues one plain-HTTP GET for target on a connection of its
// own, reads the response to its end and returns the status code.
func fleetGET(addr, target string) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", target, nil, 0)); err != nil {
		return 0, err
	}
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0, err
	}
	if _, err := http1.ReadFullBody(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
