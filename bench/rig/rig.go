// Package rig stands the real topology up in this process on loopback:
// one MQTT broker, two app servers, two Origin and two Edge proxy slots,
// and in front of them the generator-side katran instance that places
// every new TCP connection and every datagram. The program's packages
// are used as they are; everything here is construction, tear-down and
// reading the counters the program already exports.
package rig

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/katran"
	"zdr/internal/metrics"
	"zdr/internal/mqtt"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// DrainWait is both the proxies' drain period and how long a slot lets
// an old generation drain before closing it.
const DrainWait = 700 * time.Millisecond

// EdgeNames are the katran backend names, which are also the Edge
// proxies' instance names (a datagram reply starts with one).
var EdgeNames = [2]string{"edge-0", "edge-1"}

// Edge is what the generator needs to reach one Edge proxy.
type Edge struct {
	Name string
	Web  string
	MQTT string
	QUIC *net.UDPAddr
}

// Targets is the system under load as the generator sees it. The real
// rig and the generator-calibration stub both provide one.
type Targets struct {
	Edges   []Edge
	LB      *katran.LB
	Content *Content
	// Slots are the restartable proxy slots in release order (edge-0,
	// origin-0, edge-1, origin-1); empty on the stub.
	Slots []core.Restartable
}

// EdgeByName finds the edge a steering decision named.
func (t *Targets) EdgeByName(name string) *Edge {
	for i := range t.Edges {
		if t.Edges[i].Name == name {
			return &t.Edges[i]
		}
	}
	return nil
}

// NewLB is the generator-side katran instance, configured as the issue
// fixes it and used as zdr-loadgen -steer-backends uses one: no health
// checks, default Maglev policy, every edge healthy from the start.
func NewLB(edges []Edge) *katran.LB {
	lb := katran.New("bench-lb", katran.Config{FlowCacheSize: 1024, FlowTableSize: 1 << 16}, nil)
	for _, e := range edges {
		lb.AddBackend(katran.Backend{Name: e.Name, Addr: e.Web}, true)
	}
	return lb
}

// Options configures a rig.
type Options struct {
	Seed int64
	// Dir holds the takeover UNIX sockets. It is given relative to the
	// working directory so the socket paths stay short.
	Dir string
	// Traced gives every daemon an obs.Tracer through the Trace field
	// its config already has.
	Traced bool
}

// node is one proxy slot with everything it built.
type node struct {
	slot   *core.ProxySlot
	ledger *disrupt.Ledger
	tracer *obs.Tracer

	mu    sync.Mutex
	built []*proxy.Proxy
}

// Rig is the running topology.
type Rig struct {
	Targets

	broker   *mqtt.Broker
	brokerLn net.Listener
	// BrokerAddr is where a direct (proxy-less) MQTT client connects.
	BrokerAddr string
	apps       []*appserver.Server
	appTracers []*obs.Tracer
	origins    []*node
	edges      []*node
	dir        string
}

// spanCap is the finished-span ring size of every tracer in a traced
// rig; a traced run must stay below it so that nothing is dropped.
const spanCap = 1 << 21

func newTracer(traced bool, name string) *obs.Tracer {
	if !traced {
		return nil
	}
	t := obs.NewTracer(name)
	t.SetFinishedCap(spanCap)
	return t
}

// Build constructs and starts the topology. On error everything already
// started is shut down again.
func Build(o Options) (r *Rig, err error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.Dir, "s")
	if err != nil {
		return nil, err
	}
	r = &Rig{dir: dir}
	r.Content = NewContent(o.Seed, len(EdgeNames[0]))
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()

	r.broker = mqtt.NewBroker("broker", nil)
	if r.brokerLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return r, err
	}
	r.BrokerAddr = r.brokerLn.Addr().String()
	go r.broker.Serve(r.brokerLn)

	var appAddrs []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("app-%d", i)
		tr := newTracer(o.Traced, name)
		as := appserver.New(appserver.Config{Name: name, Mode: appserver.ModePPR, Handler: r.Content.Handle, Trace: tr}, nil)
		addr, lerr := as.Listen("127.0.0.1:0")
		if lerr != nil {
			return r, lerr
		}
		r.apps = append(r.apps, as)
		r.appTracers = append(r.appTracers, tr)
		appAddrs = append(appAddrs, addr)
	}

	// Each proxy.Config is what cmd/zdr-proxy builds when given no
	// optional flag: ledger on, goroutine per connection, legacy origin
	// choice, no socket tuning. EnableQUIC and the cached content the
	// datagram handler answers from have no flag there; they are set
	// because quic_steered needs a served UDP VIP.
	var tunnels []string
	for i := 0; i < 2; i++ {
		n := r.newNode(o, proxy.Config{
			Name:       fmt.Sprintf("origin-%d", i),
			Role:       proxy.RoleOrigin,
			AppServers: appAddrs,
			Brokers:    []string{r.BrokerAddr},
		})
		r.origins = append(r.origins, n)
		if err = n.slot.Start(); err != nil {
			return r, err
		}
		tunnels = append(tunnels, n.slot.Current().Addr(proxy.VIPTunnel))
	}
	for i, name := range EdgeNames {
		// An edge keeps using the first origin it dialled, so edge-i
		// lists origin-i first and both origins carry load.
		n := r.newNode(o, proxy.Config{
			Name:          name,
			Role:          proxy.RoleEdge,
			Origins:       []string{tunnels[i], tunnels[1-i]},
			EnableQUIC:    true,
			StaticContent: r.Content.static(),
		})
		r.edges = append(r.edges, n)
		if err = n.slot.Start(); err != nil {
			return r, err
		}
		p := n.slot.Current()
		quic, rerr := net.ResolveUDPAddr("udp", p.Addr(proxy.VIPQUIC))
		if rerr != nil {
			return r, rerr
		}
		r.Edges = append(r.Edges, Edge{Name: name, Web: p.Addr(proxy.VIPWeb), MQTT: p.Addr(proxy.VIPMQTT), QUIC: quic})
	}
	r.LB = NewLB(r.Edges)
	r.Slots = []core.Restartable{r.edges[0].slot, r.origins[0].slot, r.edges[1].slot, r.origins[1].slot}
	return r, nil
}

func (r *Rig) newNode(o Options, cfg proxy.Config) *node {
	n := &node{ledger: disrupt.New(cfg.Name, 0), tracer: newTracer(o.Traced, cfg.Name)}
	cfg.DrainPeriod = DrainWait
	cfg.VIPAddrs = map[string]string{}
	cfg.Ledger = n.ledger
	cfg.Trace = n.tracer
	n.slot = &core.ProxySlot{
		SlotName:  cfg.Name,
		Path:      filepath.Join(r.dir, cfg.Name+".sock"),
		DrainWait: DrainWait,
		Build: func() *proxy.Proxy {
			n.mu.Lock()
			defer n.mu.Unlock()
			cfg.Generation = len(n.built) + 1
			p := proxy.New(cfg, nil)
			n.built = append(n.built, p)
			return p
		},
	}
	return n
}

// Close shuts the topology down: the steering LB, then edges, origins,
// app servers and the broker, waiting for every drained generation to be
// closed too. The caller must have closed its client connections first:
// a proxy generation's Close waits for its connection handlers, and a
// handler only returns when the client hangs up.
func (r *Rig) Close() {
	if r.LB != nil {
		r.LB.Close()
	}
	for _, n := range append(append([]*node(nil), r.edges...), r.origins...) {
		n.slot.Close()
		n.slot.WaitDrains()
	}
	for _, as := range r.apps {
		as.Close()
	}
	if r.brokerLn != nil {
		r.brokerLn.Close()
	}
	if r.broker != nil {
		r.broker.Close()
	}
	os.RemoveAll(r.dir)
}

// registries lists the metric registries of every generation the nodes
// built.
func registries(nodes []*node) []*metrics.Registry {
	var regs []*metrics.Registry
	for _, n := range nodes {
		n.mu.Lock()
		for _, p := range n.built {
			regs = append(regs, p.Metrics())
		}
		n.mu.Unlock()
	}
	return regs
}

// Counters is a point-in-time sum of the counters the program exports,
// per tier, over every generation built so far.
type Counters struct {
	Edge, Origin, App, Broker, LB map[string]int64
	// EdgeHTTPLatency is the edges' own edge.http.latency histogram.
	EdgeHTTPLatency metrics.AtomicSnapshot
}

func sum(regs []*metrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, reg := range regs {
		for k, v := range reg.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// ReadCounters snapshots every tier's counters.
func (r *Rig) ReadCounters() Counters {
	var appRegs []*metrics.Registry
	for _, as := range r.apps {
		appRegs = append(appRegs, as.Metrics())
	}
	c := Counters{
		Edge:   sum(registries(r.edges)),
		Origin: sum(registries(r.origins)),
		App:    sum(appRegs),
		Broker: sum([]*metrics.Registry{r.broker.Metrics()}),
		LB:     sum([]*metrics.Registry{r.LB.Metrics()}),
	}
	for _, reg := range registries(r.edges) {
		c.EdgeHTTPLatency.Merge(reg.AtomicHistogram("edge.http.latency").Snapshot())
	}
	return c
}

// LedgerKinds counts the disruption-ledger events of every node by kind
// name ("reset", "timeout", "retry", ...).
func (r *Rig) LedgerKinds() map[string]int64 {
	out := map[string]int64{}
	for _, n := range append(append([]*node(nil), r.edges...), r.origins...) {
		for kind, count := range n.ledger.ReportRecent(0).ByKind {
			out[kind] += count
		}
	}
	return out
}

// Spans returns the finished spans of every daemon's tracer and how many
// were dropped from the rings (which must be 0 for the trace to count).
func (r *Rig) Spans() (recs []obs.SpanRecord, dropped uint64) {
	var tracers []*obs.Tracer
	tracers = append(tracers, r.appTracers...)
	for _, n := range append(append([]*node(nil), r.edges...), r.origins...) {
		tracers = append(tracers, n.tracer)
	}
	for _, t := range tracers {
		recs = append(recs, t.Finished()...)
		dropped += t.Dropped()
	}
	return recs, dropped
}
