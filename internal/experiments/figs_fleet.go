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
	serverErr  int64
	transport  int64
}

// liveFleet is the small live fleet the rollout experiments (T-E, T-F)
// push builds to: one Edge ProxySlot per node, wired for the
// orchestrator through fleet.ProxyNode — with a canary window as each
// generation's ReadyGate when gated — and a GET loop per node.
type liveFleet struct {
	gated bool
	dir   string
	slots []*core.ProxySlot
	addrs []string
	nodes []*fleet.Node
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// newLiveFleet starts n nodes. edit completes node i's config for each
// generation it builds.
func newLiveFleet(n int, gated bool, edit func(i int, cfg *proxy.Config)) (*liveFleet, error) {
	dir, err := os.MkdirTemp("", "zdr-fleet-*")
	if err != nil {
		return nil, err
	}
	f := &liveFleet{gated: gated, dir: dir, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("edge-%02d", i)
		var win *fleet.CanaryWindow
		if gated {
			win = fleet.NewCanaryWindow(5 * time.Second)
		}
		reg := metrics.NewRegistry()
		gen := 0
		slot := &core.ProxySlot{
			SlotName:  name,
			Path:      filepath.Join(dir, name+".sock"),
			DrainWait: 5 * time.Millisecond,
			Build: func() *proxy.Proxy {
				gen++
				cfg := proxy.Config{
					Name:                 fmt.Sprintf("%s-g%d", name, gen),
					Role:                 proxy.RoleEdge,
					TakeoverReadyTimeout: 30 * time.Second,
					Generation:           gen,
				}
				if win != nil {
					cfg.ReadyGate = win.Gate
				}
				edit(i, &cfg)
				return proxy.New(cfg, reg)
			},
		}
		if err := slot.Start(); err != nil {
			f.close()
			return nil, err
		}
		addr := slot.Current().Addr(proxy.VIPWeb)
		f.slots, f.addrs = append(f.slots, slot), append(f.addrs, addr)
		f.nodes = append(f.nodes, fleet.ProxyNode(fmt.Sprintf("vip-%02d", i), slot, reg,
			func() string { return addr }, "/hello", win))
	}
	return f, nil
}

// load runs a GET loop against every node until close, handing each
// outcome to got, which the loops call concurrently.
func (f *liveFleet) load(got func(code int, err error)) {
	for _, addr := range f.addrs {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				select {
				case <-f.stop:
					return
				default:
				}
				got(fleetGET(addr, "/hello"))
				time.Sleep(time.Millisecond)
			}
		}()
	}
}

// orchestrator builds the rollout over the fleet: fleet's canary-first
// defaults, a 150 ms health window probed every 10 ms.
func (f *liveFleet) orchestrator(name string, gate fleet.GateConfig) (*fleet.Orchestrator, error) {
	return fleet.New(fleet.Config{
		Name:          name,
		HealthWindow:  150 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		Ungated:       !f.gated,
		Gate:          gate,
	}, f.nodes)
}

// close stops the load and closes every slot, which joins their
// in-flight handlers. Calls after the first do nothing.
func (f *liveFleet) close() {
	f.once.Do(func() {
		close(f.stop)
		f.wg.Wait()
		for _, s := range f.slots {
			s.Close()
		}
		os.RemoveAll(f.dir)
	})
}

// fleetRollout pushes a build to a small live fleet and reports the
// rollout outcome plus the client's view of it. It is the experiments-
// side miniature of internal/fleet's chaos suite.
func fleetRollout(gated, bad bool) (fleetRolloutResult, error) {
	var res fleetRolloutResult
	var good atomic.Bool
	good.Store(true)
	f, err := newLiveFleet(6, gated, func(_ int, cfg *proxy.Config) {
		if good.Load() {
			cfg.StaticContent = map[string][]byte{"/hello": []byte("ok")}
		}
	})
	if err != nil {
		return res, err
	}
	defer f.close()

	// Continuous client load against every node, with the two failure
	// classes separated: 5xx (the bad build) vs transport (forbidden).
	var errN, transportN atomic.Int64
	f.load(func(code int, err error) {
		if err != nil {
			transportN.Add(1)
		} else if code != 200 {
			errN.Add(1)
		}
	})
	time.Sleep(100 * time.Millisecond) // error-free baseline history

	good.Store(!bad)
	o, err := f.orchestrator("tbl-fleet", fleet.GateConfig{})
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
			case <-f.stop:
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
	f.close()
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
