package fleet

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/mqtt"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// Node is one fleet member under orchestrator control: a restart target
// plus the health surface the gate decides on.
type Node struct {
	// Name identifies the node in the journal, status, and spans.
	Name string
	// vip names the VIP group the node serves. planBatches never puts two
	// nodes of one group in the same batch, so they never drain together
	// (the fleet-level form of the multi-Origin DCR invariant). Empty
	// means the node shares its VIP with no other.
	vip string
	// Target is restarted to release the node. During a gated rollout the
	// restart blocks inside the canary window (committed-awaiting-ready)
	// until the orchestrator's verdict resolves it.
	Target core.Restartable
	// probe issues one synchronous health probe against the node's
	// serving path (Prequal-style: the gate reads probe latency and
	// failures, not raw load). A nil Probe disables the probe channel.
	probe func() error
	// window must be installed as the ReadyGate of every proxy
	// generation the target builds; the orchestrator holds canaries open
	// through it. Nil makes the node ungateable (ungated rollouts only).
	window *canaryWindow
	// state reports the node's release state machine position
	// (generation, phase) for status pages and crash resume. Typically
	// (*core.ProxySlot).State.
	state func() obs.SlotState
	// metrics snapshots the node's full metrics registry — counters,
	// gauges, and the mergeable atomic latency histograms the telemetry
	// pipeline aggregates fleet-wide. The gate scrapes it once before a
	// canary's restart and once after its window, so the registry must be
	// shared across generations. Nil leaves the node out of the fleet's
	// totals and the gate to its probes.
	metrics func() metrics.RegistrySnapshot
	// Disruption reports the node's disruption ledger. Nil excludes the
	// node from disruption accounting (the gate's disruption-rate channel
	// then abstains for it).
	Disruption func() disrupt.Report

	// Proxy is a topology proxy node's slot; nil for an app server.
	Proxy *core.ProxySlot
	// Reg is the registry every generation of a topology node shares.
	Reg *metrics.Registry
	// addrs are a proxy node's VIP addresses (Addr).
	addrs map[string]string
	// gen counts the generations a proxy node's slot built since it
	// last started, as the slot's own State does.
	gen int
	// close closes a topology node and waits out its drains.
	close func()
}

// generation returns the node's current generation (0 when unknown).
func (n *Node) generation() int {
	if n.state == nil {
		return 0
	}
	return n.state().Generation
}

// phase returns the node's release phase ("" when unknown).
func (n *Node) phase() string {
	if n.state == nil {
		return ""
	}
	return n.state().Phase
}

// Spec is the topology NewTopology stands up.
type Spec struct {
	// Broker stands up an MQTT broker that every Origin relays to.
	Broker bool
	// Apps, Origins and Edges count each tier's nodes. Every Origin
	// serves from every app server, and every Edge tunnels to every
	// Origin.
	Apps, Origins, Edges int
	// Drain is every proxy generation's DrainPeriod (zero keeps the
	// proxy's default): a generation a restart replaced serves what it
	// holds for that long, and is then closed.
	Drain time.Duration
	// gated gives each proxy node a canaryWindow bounded by maxHold as the
	// ReadyGate of every generation it builds, each generation's lease
	// outlasting that bound by 10 s.
	gated   bool
	maxHold time.Duration
	// Build, when set, completes proxy node i's config for each
	// generation it builds. cfg.Role says the node's tier, and i counts
	// within it.
	Build func(i int, cfg *proxy.Config)
}

// EdgeFleet is the spec of n Edges that rollouts push builds to: a
// replaced generation is closed 5 ms after its hand-off, and when gated a
// canary is held at most maxHold.
func EdgeFleet(n int, gated bool, maxHold time.Duration, build func(i int, cfg *proxy.Config)) Spec {
	return Spec{Edges: n, Drain: 5 * time.Millisecond, gated: gated, maxHold: maxHold, Build: build}
}

// appConfig is every app-server generation's config but its name: a
// restart drains in 50 ms, and an upload cut mid-body is read on for up
// to 300 ms while bytes keep arriving 60 ms apart.
var appConfig = appserver.Config{DrainPeriod: 50 * time.Millisecond, GraceWindow: 300 * time.Millisecond, GraceSilence: 60 * time.Millisecond}

// Topology is an in-process deployment stood up from a Spec: a broker,
// then app servers, Origins and Edges, each node a slot whose
// generations share the node's registry. Nodes are named for their tier
// and index (as-00, origin-00, edge-00, ...).
type Topology struct {
	// Broker is the MQTT broker, nil without Spec.Broker.
	Broker *mqtt.Broker
	// Apps, Origins and Edges are each tier's nodes, in order.
	Apps, Origins, Edges []*Node

	brokerLn net.Listener
	dir      string
	stop     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

// NewTopology stands up spec's topology, tier by tier from the broker
// out to the Edges, and closes what it built if a node fails to start.
func NewTopology(spec Spec) (*Topology, error) {
	dir, err := os.MkdirTemp("", "zdr-fleet-*")
	if err != nil {
		return nil, err
	}
	t := &Topology{dir: dir, stop: make(chan struct{})}
	if err := t.start(spec); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Topology) start(spec Spec) error {
	var brokers, apps, origins []string
	if spec.Broker {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		t.brokerLn, t.Broker = ln, mqtt.NewBroker("broker", nil)
		go t.Broker.Serve(ln)
		brokers = []string{ln.Addr().String()}
	}
	for i := range spec.Apps {
		name, reg, gen := fmt.Sprintf("as-%02d", i), metrics.NewRegistry(), 0
		slot := &core.AppServerSlot{SlotName: name, Build: func() *appserver.Server {
			gen++
			cfg := appConfig
			cfg.Name = fmt.Sprintf("%s-g%d", name, gen)
			return appserver.New(cfg, reg)
		}}
		if err := slot.Start("127.0.0.1:0"); err != nil {
			return err
		}
		t.Apps = append(t.Apps, &Node{Name: name, Target: slot, Reg: reg, metrics: reg.Snapshot, close: slot.Close})
		apps = append(apps, slot.Addr())
	}
	for i := range spec.Origins {
		n, err := t.startProxy(spec, proxy.Config{Role: proxy.RoleOrigin, AppServers: apps, Brokers: brokers}, i)
		if err != nil {
			return err
		}
		t.Origins, origins = append(t.Origins, n), append(origins, n.Addr(proxy.VIPTunnel))
	}
	for i := range spec.Edges {
		n, err := t.startProxy(spec, proxy.Config{Role: proxy.RoleEdge, Origins: origins}, i)
		if err != nil {
			return err
		}
		t.Edges = append(t.Edges, n)
	}
	return nil
}

// startProxy starts proxy node i of base's tier.
func (t *Topology) startProxy(spec Spec, base proxy.Config, i int) (*Node, error) {
	// Every Edge serves a VIP of its own; an Edge reaches every Origin,
	// so the Origins share one and never drain together.
	name, vip := fmt.Sprintf("origin-%02d", i), "vip-origin"
	if base.Role == proxy.RoleEdge {
		name, vip = fmt.Sprintf("edge-%02d", i), fmt.Sprintf("vip-%02d", i)
	}
	n := &Node{Name: name, vip: vip, Reg: metrics.NewRegistry()}
	if spec.gated {
		n.window = newCanaryWindow(spec.maxHold)
	}
	slot := &core.ProxySlot{
		SlotName: name,
		Path:     filepath.Join(t.dir, name+".sock"),
		Build: func() *proxy.Proxy {
			n.gen++
			cfg := base
			cfg.Name, cfg.Generation = fmt.Sprintf("%s-g%d", name, n.gen), n.gen
			cfg.DrainPeriod = spec.Drain
			cfg.VIPAddrs = n.addrs // nil until the first generation bound its own
			if n.window != nil {
				cfg.ReadyGate = n.window.gate
				cfg.TakeoverReadyTimeout = spec.maxHold + 10*time.Second
			}
			if spec.Build != nil {
				spec.Build(i, &cfg)
			}
			return proxy.New(cfg, n.Reg)
		},
	}
	if spec.gated {
		// A gate-rejected hand-off must surface to the orchestrator, not
		// be retried by the slot: the retry's Gate call would find the
		// window's one-shot entry already consumed and silently promote
		// the rejected build.
		slot.AbortRetries = -1
	}
	if err := slot.Start(); err != nil {
		return nil, err
	}
	n.Proxy, n.Target, n.state, n.metrics = slot, slot, slot.State, n.Reg.Snapshot
	n.addrs = slot.Current().VIPAddrs()
	n.close = func() { slot.Close(); slot.WaitDrains() }
	if base.Role == proxy.RoleEdge {
		addr := n.Addr(proxy.VIPWeb)
		// Any transport failure or a >= 500 status fails the probe.
		n.probe = func() error {
			code, err := GetStatus(addr, "/hello", 2*time.Second)
			if err == nil && code >= 500 {
				err = fmt.Errorf("fleet: probe status %d", code)
			}
			return err
		}
	}
	return n, nil
}

// Addr returns the address of a proxy node's VIP, as bound when the node
// started: an address survives takeovers and rebinds, and asking a slot
// for it mid-hand-off is racy.
func (n *Node) Addr(vip string) string { return n.addrs[vip] }

// Rebind is the traditional restart that Socket Takeover replaces, the
// §6 baseline: a proxy node's serving generation exits (after draining
// for its DrainPeriod, or at once when hard), and gap later the next one
// binds brand-new sockets on the node's addresses. It must not overlap a
// Restart of the same node. The new process counts generations from 1,
// as the slot does.
func (n *Node) Rebind(hard bool, gap time.Duration) error {
	if cur := n.Proxy.Current(); cur != nil && !hard {
		cur.Shutdown()
	}
	n.Proxy.Close()
	time.Sleep(gap)
	// The old generation's sockets close asynchronously; faults' default
	// backoff paces the new one's attempts to bind them again.
	return faults.Backoff{}.Retry(context.Background(), func() error {
		n.gen = 0
		return n.Proxy.Start()
	})
}

// loadPer10ms is how many GETs Load sends each Edge every 10 ms.
const loadPer10ms = 2

// Load sends GETs of /hello to every Edge until Close, on an open-loop
// schedule as bench/gen paces: the k-th to an Edge is due k × 10 ms /
// loadPer10ms after the call, and one whose predecessor ran late goes at
// once, so how many requests a window holds is set by the schedule, not
// by the CPU. got receives Edge i's outcomes; the Edges' loops call it
// concurrently.
func (t *Topology) Load(got func(i, status int, err error)) {
	const period = 10 * time.Millisecond / loadPer10ms
	t0 := time.Now()
	for i, n := range t.Edges {
		addr := n.Addr(proxy.VIPWeb)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for k := 0; ; k++ {
				select {
				case <-t.stop:
					return
				case <-time.After(time.Until(t0.Add(time.Duration(k) * period))):
				}
				code, err := GetStatus(addr, "/hello", 5*time.Second)
				got(i, code, err)
			}
		}()
	}
}

// Close stops the load, then closes the Edges, the Origins, the app
// servers and the broker, waiting out every drain a restart started.
// Calls after the first do nothing.
func (t *Topology) Close() {
	t.once.Do(func() {
		close(t.stop)
		t.wg.Wait()
		for _, n := range slices.Concat(t.Edges, t.Origins, t.Apps) {
			n.close()
		}
		if t.Broker != nil {
			t.brokerLn.Close()
			t.Broker.Close()
		}
		os.RemoveAll(t.dir)
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

// requestKeys are the cumulative request counters summed into a scrape's
// request total — the serving paths a proxy node exposes.
var requestKeys = []string{
	"edge.http.requests",
	"edge.quic.requests",
	"origin.http.requests",
}

// errorKeys are the cumulative error counters summed into a scrape's
// error total.
var errorKeys = []string{
	"edge.http.errors.no_origin",
	"edge.http.errors.open_stream",
	"edge.http.errors.upstream",
	"origin.http.attempt_errors",
	"origin.http.ppr_exhausted",
}
