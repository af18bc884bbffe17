package fleet

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// Node is one fleet member under orchestrator control: a restart target
// plus the health surface the gate decides on.
type Node struct {
	// Name identifies the node in the journal, status, and spans.
	Name string
	// VIP names the VIP group the node serves. Conflict fencing never
	// drains two nodes of the same group concurrently (the fleet-level
	// form of the multi-Origin DCR invariant), and concurrent rollouts
	// over overlapping groups are refused. Empty means unfenced.
	VIP string
	// Target is restarted to release the node. During a gated rollout the
	// restart blocks inside the canary window (committed-awaiting-ready)
	// until the orchestrator's verdict resolves it.
	Target core.Restartable
	// Counters snapshots the node's cumulative serving counters (the
	// same shape as a ReleaseReport's CountersBefore/After). The registry
	// must be shared across generations so windows bracket a restart.
	Counters func() map[string]int64
	// Probe issues one synchronous health probe against the node's
	// serving path (Prequal-style: the gate reads probe latency and
	// failures, not raw load). A nil Probe disables the probe channel.
	Probe func() error
	// Window must be installed as the ReadyGate of every proxy
	// generation the target builds; the orchestrator holds canaries open
	// through it. Nil makes the node ungateable (ungated rollouts only).
	Window *CanaryWindow
	// State reports the node's release state machine position
	// (generation, phase) for status pages and crash resume. Typically
	// (*core.ProxySlot).State.
	State func() obs.SlotState
	// Metrics snapshots the node's full metrics registry — counters,
	// gauges, and the mergeable atomic latency histograms the telemetry
	// pipeline aggregates fleet-wide. Nil excludes the node from latency
	// merges and the gate's telemetry channel.
	Metrics func() metrics.RegistrySnapshot
	// Disruption reports the node's disruption ledger. Nil excludes the
	// node from disruption accounting (the gate's disruption-rate channel
	// then abstains for it).
	Disruption func() disrupt.Report
}

// generation returns the node's current generation (0 when unknown).
func (n *Node) generation() int {
	if n.State == nil {
		return 0
	}
	return n.State().Generation
}

// phase returns the node's release phase ("" when unknown).
func (n *Node) phase() string {
	if n.State == nil {
		return ""
	}
	return n.State().Phase
}

// Fleet is the in-process Edge fleet a rollout is pushed to: one
// core.ProxySlot per node, whose generations share the node's registry
// and, when gated, take the node's CanaryWindow as their ReadyGate. A
// build hook sets what differs between builds and nodes: content,
// faults and ledgers.
type Fleet struct {
	// Slots, Regs and Nodes are per node, in order: the slot, the
	// registry its generations share, and the orchestrator's Node over
	// them, probed with a GET of /hello.
	Slots []*core.ProxySlot
	Regs  []*metrics.Registry
	Nodes []*Node

	// addrs are the web VIPs, captured at Start: an address survives
	// takeovers, and asking a slot for it mid-hand-off is racy.
	addrs []string
	dir   string
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// NewFleet starts n Edge nodes, edge-00 on vip-00 and on. When gated,
// each node's generations hold a CanaryWindow bounded by maxHold as
// their ReadyGate, and every generation's lease outlasts that bound by
// 10 s. A replaced generation is closed 5 ms after its hand-off. build
// completes node i's config for each generation it builds.
func NewFleet(n int, gated bool, maxHold time.Duration, build func(i int, cfg *proxy.Config)) (*Fleet, error) {
	dir, err := os.MkdirTemp("", "zdr-fleet-*")
	if err != nil {
		return nil, err
	}
	f := &Fleet{dir: dir, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("edge-%02d", i)
		var win *CanaryWindow
		if gated {
			win = NewCanaryWindow(maxHold)
		}
		reg := metrics.NewRegistry()
		gen := 0
		slot := &core.ProxySlot{
			SlotName:  name,
			Path:      filepath.Join(dir, name+".sock"),
			DrainWait: 5 * time.Millisecond,
			// A gate-rejected hand-off must surface to the orchestrator,
			// not be retried by the slot: the retry's Gate call would find
			// the window's one-shot entry already consumed and silently
			// promote the rejected build.
			AbortRetries: -1,
			Build: func() *proxy.Proxy {
				gen++
				cfg := proxy.Config{
					Name:                 fmt.Sprintf("%s-g%d", name, gen),
					Role:                 proxy.RoleEdge,
					TakeoverReadyTimeout: maxHold + 10*time.Second,
					Generation:           gen,
				}
				if win != nil {
					cfg.ReadyGate = win.Gate
				}
				build(i, &cfg)
				return proxy.New(cfg, reg)
			},
		}
		if err := slot.Start(); err != nil {
			f.Close()
			return nil, err
		}
		addr := slot.Current().Addr(proxy.VIPWeb)
		f.Slots, f.Regs, f.addrs = append(f.Slots, slot), append(f.Regs, reg), append(f.addrs, addr)
		f.Nodes = append(f.Nodes, &Node{
			Name:     name,
			VIP:      fmt.Sprintf("vip-%02d", i),
			Target:   slot,
			Counters: func() map[string]int64 { return reg.Snapshot().Counters },
			// Any transport failure or a >= 500 status fails the probe.
			Probe: func() error {
				code, err := GetStatus(addr, "/hello", 2*time.Second)
				if err == nil && code >= 500 {
					err = fmt.Errorf("fleet: probe status %d", code)
				}
				return err
			},
			Window:  win,
			State:   slot.State,
			Metrics: reg.Snapshot,
			// Disruption is left nil: assign the node's ledger Report
			// when the build hook gives its generations one.
		})
	}
	return f, nil
}

// Load runs a loop of GETs of /hello per node, a millisecond apart,
// until Close, and hands node i's outcomes to got, which the loops call
// concurrently.
func (f *Fleet) Load(got func(i, status int, err error)) {
	for i, addr := range f.addrs {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				select {
				case <-f.stop:
					return
				default:
				}
				code, err := GetStatus(addr, "/hello", 5*time.Second)
				got(i, code, err)
				time.Sleep(time.Millisecond)
			}
		}()
	}
}

// Close stops the load, closes every slot and waits out its drains.
// Calls after the first do nothing.
func (f *Fleet) Close() {
	f.once.Do(func() {
		close(f.stop)
		f.wg.Wait()
		for _, s := range f.Slots {
			s.Close()
			s.WaitDrains()
		}
		os.RemoveAll(f.dir)
	})
}

// GetStatus GETs path from addr on a connection of its own, the dial and
// the exchange each bounded by timeout, and returns the status.
func GetStatus(addr, path string, timeout time.Duration) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	return http1.Get(conn, path)
}

// requestKeys are the cumulative request counters summed into the gate's
// and the telemetry's request total — the serving paths a proxy node
// exposes.
var requestKeys = []string{
	"edge.http.requests",
	"edge.quic.requests",
	"origin.http.requests",
}

// errorKeys are the cumulative error counters summed into the gate's and
// the telemetry's error total.
var errorKeys = []string{
	"edge.http.errors.no_origin",
	"edge.http.errors.open_stream",
	"edge.http.errors.upstream",
	"origin.http.attempt_errors",
	"origin.http.ppr_exhausted",
}
