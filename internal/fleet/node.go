package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// addrs are the node's bound addresses by VIP (Addr).
	addrs map[string]string
	// gen is the generation the node serves: its state file's when it
	// started, plus one per generation built since.
	gen int
	// app is an app-server node's generation, broker the broker node's.
	app    *appserver.Server
	broker *mqtt.Broker
	// close closes the node and waits out its drains.
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

// Spec is a topology: what NewTopology stands up in-process, and the
// file every zdr-node of a deployment reads (testdata/spec.json). A build
// ignores a key it does not know, so an older one reads a newer spec.
type Spec struct {
	// Broker stands up an MQTT broker that every Origin relays to. Apps,
	// Origins and Edges count each tier's nodes: every Origin serves from
	// every app server, and every Edge tunnels to every Origin. Drain is
	// every proxy generation's DrainPeriod, in nanoseconds in the file
	// (zero keeps the proxy's default): a generation a restart replaced
	// serves what it holds for that long, and is then closed.
	Broker  bool          `json:"broker,omitempty"`
	Apps    int           `json:"apps,omitempty"`
	Origins int           `json:"origins,omitempty"`
	Edges   int           `json:"edges,omitempty"`
	Drain   time.Duration `json:"drain,omitempty"`
	// Dir holds each node's takeover path <node>.sock and state file
	// <node>.json (its generation and bound addresses by VIP, which the
	// next tier reads); NewTopology makes a temporary Dir when it is
	// empty. Addrs pins bind addresses by node and VIP (the proxy's VIP
	// names, "http" for an app server, "mqtt" for the broker); the rest
	// bind 127.0.0.1:0. Steering is every Edge's origin-steering policy
	// ("", "maglev" or "prequal"). App servers run PPR.
	Dir      string                       `json:"dir,omitempty"`
	Addrs    map[string]map[string]string `json:"addrs,omitempty"`
	Steering string                       `json:"steering,omitempty"`
	// gated gives each proxy node a canaryWindow bounded by maxHold as the
	// ReadyGate of every generation it builds, each generation's lease
	// outlasting that bound by 10 s.
	gated   bool
	maxHold time.Duration
	// Build, when set, completes proxy node i's config for each
	// generation it builds with what is code, not data. cfg.Role says the
	// node's tier, and i counts within it.
	Build func(i int, cfg *proxy.Config) `json:"-"`
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

// vipApp is the key of an app server's address (the broker's is "mqtt").
const vipApp = "http"

// Topology is an in-process deployment stood up from a Spec: a broker,
// then app servers, Origins and Edges, each node a slot whose
// generations share the node's registry. Nodes are named for their tier
// and index (as-00, origin-00, edge-00, ...).
type Topology struct {
	// Broker is the MQTT broker, nil without Spec.Broker.
	Broker *mqtt.Broker
	// Apps, Origins and Edges are each tier's nodes, in order.
	Apps, Origins, Edges []*Node

	broker []*Node // the broker's node, if any
	dir    string  // the temporary Spec.Dir, removed by Close
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// NewTopology starts every node of spec, tier by tier from the broker
// out to the Edges, and closes what it built if a node fails to start.
func NewTopology(spec Spec) (*Topology, error) {
	t := &Topology{stop: make(chan struct{})}
	if spec.Dir == "" {
		dir, err := os.MkdirTemp("", "zdr-fleet-*")
		if err != nil {
			return nil, err
		}
		spec.Dir, t.dir = dir, dir
	}
	for k, nodes := range []*[]*Node{&t.broker, &t.Apps, &t.Origins, &t.Edges} {
		for _, name := range tierNames(spec, []string{"broker", "as", "origin", "edge"}[k]) {
			n, err := StartNode(spec, name)
			if n != nil {
				*nodes = append(*nodes, n)
			}
			if err != nil {
				t.Close()
				return nil, err
			}
			t.Broker = cmp.Or(n.broker, t.Broker)
		}
	}
	return t, nil
}

// tierNames names spec's nodes of tier, in order: "broker", or as-NN,
// origin-NN and edge-NN counted from 00.
func tierNames(spec Spec, tier string) []string {
	if tier == "broker" && spec.Broker {
		return []string{"broker"}
	}
	names := make([]string, map[string]int{"as": spec.Apps, "origin": spec.Origins, "edge": spec.Edges}[tier])
	for i := range names {
		names[i] = fmt.Sprintf("%s-%02d", tier, i)
	}
	return names
}

// state is what a node's state file records once it serves.
type state struct {
	Gen   int               `json:"gen"`
	Addrs map[string]string `json:"addrs"`
}

func readState(dir, name string) (st state, err error) {
	b, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// StartNode starts node name of spec ("broker", "as-NN", "origin-NN" or
// "edge-NN") from the addresses its upstream tier's state files in
// spec.Dir record, then replaces its own state file there whole. It
// counts generations on from the one that file records, and a proxy node
// takes a live generation's sockets over from its takeover path: started
// again, in this process or another, a running node is released. A proxy
// node that serves but could not arm its takeover path is returned with
// an error wrapping core.ErrTakeoverNotArmed: after a take-over it holds
// the only listeners left, so it must not be closed.
func StartNode(spec Spec, name string) (*Node, error) {
	tier, _, _ := strings.Cut(name, "-")
	i := slices.Index(tierNames(spec, tier), name)
	if i < 0 {
		return nil, fmt.Errorf("fleet: the spec has no node %q", name)
	}
	prev, err := readState(spec.Dir, name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var errs []error
	up := func(tier, vip string) (addrs []string) {
		for _, name := range tierNames(spec, tier) {
			st, err := readState(spec.Dir, name)
			errs, addrs = append(errs, err), append(addrs, st.Addrs[vip])
		}
		return addrs
	}
	bind := func(vip string) string { return cmp.Or(spec.Addrs[name][vip], "127.0.0.1:0") }
	n := &Node{Name: name, gen: prev.Gen}
	var armErr error // a proxy node that serves unarmed
	switch tier {
	case "broker":
		ln, err := net.Listen("tcp", bind(proxy.VIPMQTT))
		if err != nil {
			return nil, err
		}
		b := mqtt.NewBroker(name, nil)
		go b.Serve(ln)
		n.gen++
		n.broker, n.Reg, n.addrs = b, b.Metrics(), map[string]string{proxy.VIPMQTT: ln.Addr().String()}
		n.close = func() { ln.Close(); b.Close() }
	case "as":
		n.Reg = metrics.NewRegistry()
		slot := &core.AppServerSlot{SlotName: name, Build: func() *appserver.Server {
			n.gen++
			cfg := appConfig
			cfg.Name = fmt.Sprintf("%s-g%d", name, n.gen)
			n.app = appserver.New(cfg, n.Reg)
			return n.app
		}}
		if err := slot.Start(bind(vipApp)); err != nil {
			return nil, err
		}
		n.Target, n.metrics, n.close = slot, n.Reg.Snapshot, slot.Close
		n.addrs = map[string]string{vipApp: slot.Addr()}
	default:
		base := proxy.Config{Role: proxy.RoleEdge, Steering: spec.Steering}
		if tier == "origin" {
			base = proxy.Config{Role: proxy.RoleOrigin, AppServers: up("as", vipApp), Brokers: up("broker", proxy.VIPMQTT)}
		} else {
			base.Origins, base.OriginHealth = up("origin", proxy.VIPTunnel), up("origin", proxy.VIPHealth)
		}
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("fleet: starting %s: %w", name, err)
		}
		if armErr = n.startProxy(spec, base, i); armErr != nil && !errors.Is(armErr, core.ErrTakeoverNotArmed) {
			return nil, armErr
		}
	}
	b, _ := json.Marshal(state{Gen: n.gen, Addrs: n.addrs}) // a state always encodes
	tmp := filepath.Join(spec.Dir, name+".json.tmp")
	if werr := errors.Join(os.WriteFile(tmp, b, 0o644), os.Rename(tmp, filepath.Join(spec.Dir, name+".json"))); werr != nil {
		n.close()
		return nil, errors.Join(armErr, werr)
	}
	return n, armErr
}

// startProxy starts n as proxy node i of base's tier.
func (n *Node) startProxy(spec Spec, base proxy.Config, i int) error {
	// Every Edge serves a VIP of its own; an Edge reaches every Origin,
	// so the Origins share one and never drain together.
	n.vip, n.Reg = "vip-origin", metrics.NewRegistry()
	if base.Role == proxy.RoleEdge {
		n.vip = fmt.Sprintf("vip-%02d", i)
	}
	n.addrs = spec.Addrs[n.Name] // nil until the first generation bound its own
	if spec.gated {
		n.window = newCanaryWindow(spec.maxHold)
	}
	slot := &core.ProxySlot{
		SlotName: n.Name,
		Path:     filepath.Join(spec.Dir, n.Name+".sock"),
		Build: func() *proxy.Proxy {
			n.gen++
			cfg := base
			cfg.Name, cfg.Generation = fmt.Sprintf("%s-g%d", n.Name, n.gen), n.gen
			cfg.DrainPeriod = spec.Drain
			cfg.VIPAddrs = n.addrs
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
	err := slot.Start()
	if err != nil && !errors.Is(err, core.ErrTakeoverNotArmed) {
		slot.Close()
		return err
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
	return err
}

// Stop drains the node and closes it, as SIGTERM does to a zdr-node: a
// proxy's serving generation drains for its DrainPeriod, an app server
// hands back what a drain cuts, and a broker closes.
func (n *Node) Stop() {
	if n.Proxy != nil {
		n.Proxy.Current().Shutdown()
	} else if n.app != nil {
		n.app.Shutdown()
	}
	n.close()
}

// Draining reports whether a proxy or app-server node has begun to drain
// (a proxy's also when another generation took it over).
func (n *Node) Draining() bool {
	if n.Proxy != nil {
		p := n.Proxy.Current()
		return p == nil || p.Draining()
	}
	return n.app != nil && n.app.Draining()
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
		for _, n := range slices.Concat(t.Edges, t.Origins, t.Apps, t.broker) {
			n.close()
		}
		if t.dir != "" {
			os.RemoveAll(t.dir)
		}
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
