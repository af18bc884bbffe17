// Package proxy implements Proxygen, the L7 load balancer at the heart of
// the paper's traffic infrastructure (§2.1): reverse proxy for user
// traffic, tunnel endpoint between Edge and Origin, MQTT relay, and the
// integration point for all three Zero Downtime Release mechanisms:
//
//   - Socket Takeover (§4.1): a proxy's listening sockets (web, mqtt,
//     tunnel, health — its VIPs) live in a takeover.ListenerSet that a new
//     instance can receive over a UNIX socket; the old instance then
//     drains. The health VIP transfers too, which is how health-check
//     responsibility moves to the new instance (Fig. 5 step F) and why
//     Katran never notices the restart.
//   - Downstream Connection Reuse (§4.2): an Origin proxy relays MQTT
//     between tunnel streams and brokers chosen by consistent-hashing the
//     user-id; on restart it solicits the Edge to re_connect through
//     another Origin path, and the broker splices the session — the end
//     user's connection never drops.
//   - Partial Post Replay (§4.3): the Origin proxy is the "downstream
//     Proxygen" that receives 379 hand-backs from a restarting app server
//     and replays the rebuilt request to a healthy one.
//
// One Proxy value runs in either the Edge or the Origin role; the roles
// share lifecycle, health checking and takeover plumbing.
package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/consistent"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/h2t"
	"zdr/internal/katran"
	"zdr/internal/metrics"
	"zdr/internal/obs"
	"zdr/internal/quicx"
	"zdr/internal/takeover"
)

// role selects Edge or Origin behaviour.
type role int

// Roles.
const (
	RoleEdge role = iota
	RoleOrigin
)

// VIP names used in the takeover listener set.
const (
	VIPWeb    = "web"    // edge: user HTTP
	VIPMQTT   = "mqtt"   // edge: user MQTT
	VIPTunnel = "tunnel" // origin: edge-facing h2t tunnel
	VIPQUIC   = "quic"   // edge: QUIC-style UDP (optional)
	VIPHealth = "health" // both: Katran health checks
)

// Config configures a proxy instance.
type Config struct {
	// Name identifies the instance (metrics, Via headers).
	Name string
	// Role is RoleEdge or RoleOrigin.
	Role role

	// Origins lists Origin tunnel addresses (Edge role).
	Origins []string
	// AppServers lists app-server addresses (Origin role).
	AppServers []string
	// Brokers lists MQTT broker addresses (Origin role). Broker choice is
	// by consistent hash of user-id so every Origin resolves a user to
	// the same broker (§4.2).
	Brokers []string

	// PPRRetries bounds replay attempts; the paper's production value is
	// 10 (§4.4). Default 10.
	PPRRetries int
	// DrainPeriod is how long a draining instance serves existing
	// connections (paper: 20 minutes for Proxygen; tests use much less).
	// Default 2s.
	DrainPeriod time.Duration
	// StaticContent maps request targets the Edge serves directly from
	// cache (Direct Server Return, §2.2 step 2).
	StaticContent map[string][]byte
	// dialTimeout bounds upstream dials. Default 2s.
	dialTimeout time.Duration
	// EnableQUIC adds a QUIC-style UDP VIP at the Edge, served by a
	// connection-ID-routed datagram server (internal/quicx). During a
	// Socket Takeover the UDP socket transfers like the TCP listeners,
	// and packets belonging to the draining instance's flows are routed
	// back to it in user space (§4.1).
	EnableQUIC bool
	// VIPAddrs optionally pins VIP names to explicit bind addresses
	// (default: ephemeral ports on 127.0.0.1). Used by experiments that
	// model traditional restart-in-place, where the replacement instance
	// must rebind the same address.
	VIPAddrs map[string]string

	// upstreamResponseTimeout bounds the wait for an upstream response:
	// the app-server reply at the Origin and the tunnel response headers
	// at the Edge. Default 30s.
	upstreamResponseTimeout time.Duration
	// RetryBackoff paces upstream retry attempts after a dial or
	// transport error (the §4.4 retry path). PPR replays after a 379
	// hand-back are not delayed — the app server asked for them. The
	// zero value defaults to 5ms base, doubling, 200ms cap.
	RetryBackoff faults.Backoff

	// Faults optionally injects deterministic faults into upstream dials
	// (edge→origin tunnel, origin→app-server, origin→broker) and the
	// connections they produce. Nil disables injection.
	Faults *faults.Injector
	// AcceptFaults optionally injects deterministic faults into
	// connections accepted on this proxy's TCP VIPs and datagrams on its
	// UDP VIP. Nil disables injection.
	AcceptFaults *faults.Injector

	// Trace optionally records release-path spans (takeover hand-offs,
	// drains, DCR reconnects, PPR replays, per-request spans) and joins
	// remote traces arriving in x-zdr-trace headers. Nil disables
	// tracing; propagation of incoming contexts still works.
	Trace *obs.Tracer

	// ReadyGate, when non-nil, is consulted by the receiver side of a
	// hand-off after COMMIT, alongside the proxy's own
	// serving checks, before the READY frame releases the old instance's
	// lease. Returning an error steps this instance down and un-drains
	// the old one. Chaos tests use it to wedge the post-commit window.
	ReadyGate func() error
	// TakeoverReadyTimeout bounds the sender-side post-commit wait for
	// the receiver's READY frame; zero means takeover.defaultReadyTimeout.
	TakeoverReadyTimeout time.Duration

	// Steering selects the Edge's origin-steering policy: "" keeps the
	// legacy prefer-alive-then-round-robin behaviour, "maglev" steers
	// requests through an embedded katran LB with placement-only picks,
	// and "prequal" adds drain-aware adaptive steering — probe pools
	// over the origins' health VIPs hear each origin's requests-in-
	// flight, latency and release phase, and new flows bleed off a
	// draining generation before its drain timer bites.
	Steering string
	// OriginHealth lists the origins' health-VIP addresses, parallel to
	// Origins. Required for "prequal" (the load probes ride the health
	// VIP); with "maglev" it additionally enables active health checks
	// on the embedded LB.
	OriginHealth []string
	// steeringPrequal tunes PolicyPrequal when Steering is "prequal";
	// the zero value uses the katran defaults.
	steeringPrequal katran.PrequalConfig
	// steeringHCInterval paces the embedded LB's health checks over
	// OriginHealth (default 500ms).
	steeringHCInterval time.Duration

	// Ledger, when non-nil, receives connection-level disruption events:
	// accepts, hand-offs, drains, undos, terminal resets/timeouts with
	// their (cause, phase, generation) attribution, and — when Faults /
	// AcceptFaults are set — one Fault event per injected fault (the
	// injectors' observers are claimed by New, so give each proxy its own
	// injectors when ledger attribution matters). Nil disables recording.
	Ledger *disrupt.Ledger
	// Generation identifies this process generation in ledger
	// attribution and release-phase stamps.
	Generation int
}

func (c *Config) fill() {
	if c.PPRRetries <= 0 {
		c.PPRRetries = 10
	}
	if c.DrainPeriod <= 0 {
		c.DrainPeriod = 2 * time.Second
	}
	if c.dialTimeout <= 0 {
		c.dialTimeout = 2 * time.Second
	}
	if c.upstreamResponseTimeout <= 0 {
		c.upstreamResponseTimeout = 30 * time.Second
	}
	if c.RetryBackoff.Base <= 0 {
		c.RetryBackoff.Base = 5 * time.Millisecond
	}
	if c.RetryBackoff.Max <= 0 {
		c.RetryBackoff.Max = 200 * time.Millisecond
	}
	if c.steeringHCInterval <= 0 {
		c.steeringHCInterval = 500 * time.Millisecond
	}
}

// Proxy is one Proxygen instance.
type Proxy struct {
	cfg Config
	reg *metrics.Registry

	set *takeover.ListenerSet

	mu       sync.Mutex
	draining bool
	closed   bool
	// awaitingReady is true between a committed hand-off and its lease
	// resolution (READY received or undo) — the
	// "committed-awaiting-ready" state of the release state machine.
	awaitingReady bool
	// owners is every connection this generation accepted whose handler
	// has not returned, as what the handler makes of it. terminate closes
	// each, and an accept after that is closed instead of owned.
	owners map[owner]struct{}
	// edge state
	tunnels  map[string]*h2t.Session // origin addr -> session
	rrOrigin int
	// origin state
	rrApp      int
	brokerRing *consistent.Ring

	// quic is the Edge's UDP stack (nil unless EnableQUIC).
	quic *quicx.Server

	// connSeq hands out per-instance connection ordinals for ledger
	// attribution of accepted connections.
	connSeq atomic.Uint64
	// latHTTP is the hot-path request-latency histogram
	// (edge.http.latency at the Edge, origin.http.latency at the Origin).
	latHTTP *metrics.AtomicHistogram
	// latTunnel measures the Edge's tunnel round trip (open stream →
	// response headers), isolating upstream time from client time.
	latTunnel *metrics.AtomicHistogram
	// latQUIC measures the Edge's QUIC-style DSR handler.
	latQUIC *metrics.AtomicHistogram
	// gRIF counts requests in flight — the Prequal load signal this
	// instance advertises in its LOAD probe answers.
	gRIF *metrics.Gauge
	// cRequests and cStatus are the per-request counters, resolved once:
	// {edge,origin}.http.requests and {edge,origin}.http.status.<code>.
	cRequests *metrics.Counter
	cStatus   *metrics.CodeCounters
	// cQUIC is edge.quic.requests and cDSR edge.http.dsr, resolved once
	// like them.
	cQUIC, cDSR *metrics.Counter
	// quicReplies holds the QUIC-style handler's answers, "<name>|<body>"
	// per StaticContent target, and quicNotFound its "<name>|404": built
	// once, since neither the name nor the content changes after New.
	quicReplies  map[string][]byte
	quicNotFound []byte

	// tunnelMetrics are the h2t sessions' counters (window stalls, credit
	// frames, resident receive bytes) in this instance's registry.
	tunnelMetrics *h2t.Metrics

	// upstream holds the Origin's app-server connections (nil at the
	// Edge). It belongs to this generation alone.
	upstream *upstreamPool

	// steerLB steers edge→origin placement when Config.Steering is set;
	// steerSeq hands each fresh request its flow id.
	steerLB  *katran.LB
	steerSeq atomic.Uint64

	takeSrv   *takeover.Server
	drainSpan *obs.Span
	drainCh   chan struct{}
	wg        sync.WaitGroup
}

// New creates a proxy. reg may be nil.
func New(cfg Config, reg *metrics.Registry) *Proxy {
	cfg.fill()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Proxy{
		cfg:     cfg,
		reg:     reg,
		owners:  make(map[owner]struct{}),
		tunnels: make(map[string]*h2t.Session),
		drainCh: make(chan struct{}),
	}
	p.gRIF = reg.Gauge("proxy.rif")
	p.tunnelMetrics = h2t.NewMetrics(reg)
	if cfg.Role == RoleOrigin {
		p.brokerRing = consistent.NewRing(100, cfg.Brokers...)
		p.latHTTP = reg.AtomicHistogram("origin.http.latency")
		p.cRequests = reg.Counter("origin.http.requests")
		p.cStatus = reg.CodeCounters("origin.http.status.")
		p.upstream = newUpstreamPool(p.dialUpstream, reg)
	} else {
		p.latHTTP = reg.AtomicHistogram("edge.http.latency")
		p.cRequests = reg.Counter("edge.http.requests")
		p.cStatus = reg.CodeCounters("edge.http.status.")
		p.latTunnel = reg.AtomicHistogram("edge.tunnel.latency")
		p.latQUIC = reg.AtomicHistogram("edge.quic.latency")
		p.cQUIC = reg.Counter("edge.quic.requests")
		p.cDSR = reg.Counter("edge.http.dsr")
		p.quicNotFound = []byte(cfg.Name + "|404")
		p.quicReplies = make(map[string][]byte, len(cfg.StaticContent))
		for target, body := range cfg.StaticContent {
			p.quicReplies[target] = append([]byte(cfg.Name+"|"), body...)
		}
		if cfg.Steering != "" && len(cfg.Origins) > 0 {
			p.steerLB = p.newSteerLB(reg)
		}
	}
	if cfg.Ledger != nil {
		// The release-phase stamp moves when this generation actually takes
		// the serving role (Listen for a fresh bind, TakeoverFromWith after
		// READY), not at construction: a ledger shared across generations
		// must keep attributing to the generation that is really serving.
		// Mirror every injected fault into the ledger so the chaos suite
		// can reconcile injected vs observed failures exactly.
		observe := func(op faults.Op) {
			cfg.Ledger.Record(disrupt.KindFault, 0, "", "injected:"+op.String(), "")
		}
		cfg.Faults.SetObserver(observe)
		if cfg.AcceptFaults != cfg.Faults {
			cfg.AcceptFaults.SetObserver(observe)
		}
	}
	return p
}

// Metrics returns the proxy's registry.
func (p *Proxy) Metrics() *metrics.Registry { return p.reg }

// Name returns the instance name.
func (p *Proxy) Name() string { return p.cfg.Name }

// Listen binds fresh sockets on 127.0.0.1 for the TCP VIPs this role
// serves, and the QUIC one when enabled at the Edge (port 0, ephemeral,
// unless pinned in Config.VIPAddrs), and starts serving.
func (p *Proxy) Listen() error {
	var vips []takeover.VIP
	for _, name := range []string{VIPWeb, VIPMQTT, VIPTunnel, VIPHealth, VIPQUIC} {
		network := takeover.NetworkTCP
		if name == VIPQUIC {
			network = takeover.NetworkUDP
			if !p.cfg.EnableQUIC || p.cfg.Role != RoleEdge {
				continue
			}
		} else if p.acceptor(name) == nil {
			continue
		}
		addr, ok := p.cfg.VIPAddrs[name]
		if !ok {
			addr = "127.0.0.1:0"
		}
		vips = append(vips, takeover.VIP{Name: name, Network: network, Addr: addr})
	}
	set, err := takeover.Listen(vips...)
	if err != nil {
		return err
	}
	if err := p.adopt(set); err != nil {
		return err
	}
	p.syncLedgerPhase() // fresh bind: this generation is the serving one
	return nil
}

// acceptor returns what a connection accepted on the named TCP VIP is
// owned as in this proxy's role, or nil for VIPs the role does not serve:
// the single source of truth for VIP→handler wiring.
func (p *Proxy) acceptor(name string) func(net.Conn) owner {
	switch {
	case name == VIPHealth:
		return func(c net.Conn) owner { return &healthConn{c, p} }
	case name == VIPWeb && p.cfg.Role == RoleEdge:
		return func(c net.Conn) owner {
			wc := &webConn{Conn: c, p: p}
			wc.ka.Init(c, wc)
			return wc
		}
	case name == VIPMQTT && p.cfg.Role == RoleEdge:
		return func(c net.Conn) owner { return &mqttRelay{p: p, clientConn: c} }
	case name == VIPTunnel && p.cfg.Role == RoleOrigin:
		return func(c net.Conn) owner {
			sess := h2t.NewServedSession(c, false, h2t.WithMetrics(p.tunnelMetrics))
			return &originSession{p: p, sess: sess, relays: make(map[*h2t.Stream]net.Conn)}
		}
	}
	return nil
}

// arm starts an accept loop on every TCP listener of set that this role
// serves.
func (p *Proxy) arm(set *takeover.ListenerSet) {
	for _, v := range set.VIPs() {
		if accept := p.acceptor(v.Name); accept != nil && v.Network == takeover.NetworkTCP {
			p.serveLoop(v.Name, set.TCP(v.Name), accept)
		}
	}
}

// adopt starts serving on an existing listener set — either freshly bound
// or received through Socket Takeover.
func (p *Proxy) adopt(set *takeover.ListenerSet) error {
	p.mu.Lock()
	if p.set != nil {
		p.mu.Unlock()
		return errors.New("proxy: already serving")
	}
	p.set = set
	p.mu.Unlock()

	p.arm(set)
	if pc := set.UDP(VIPQUIC); pc != nil && p.cfg.Role == RoleEdge {
		// The shared *net.UDPConn stays in the listener set for FD
		// hand-off; the serving stack sees it through the optional
		// fault-injecting PacketConn wrapper.
		q := quicx.NewServer(p.cfg.Name+"/quic", p.cfg.AcceptFaults.PacketConn(pc), p.quicHandler, p.reg)
		p.mu.Lock()
		p.quic = q
		p.mu.Unlock()
		q.Start()
	}
	return nil
}

// quicHandler serves the QUIC-style VIP: the payload is a request target
// resolved against the Edge's cached content (Direct Server Return over
// UDP). The instance name is prefixed so experiments can attribute which
// process served a flow across a takeover. The reply is shared, not
// built per packet: quicx marshals it before the handler is called again,
// which is all Handler's contract asks.
func (p *Proxy) quicHandler(conn quicx.ConnID, payload []byte) []byte {
	t0 := time.Now()
	p.cQUIC.Inc()
	resp, ok := p.quicReplies[string(payload)]
	if !ok {
		resp = p.quicNotFound
	}
	// Latency lands in the proxy-level handler, not quicx's packet loop:
	// the datagram hot path (HandleData) stays untouched.
	p.latQUIC.Observe(time.Since(t0).Seconds())
	return resp
}

// dialUpstream dials an upstream address (origin tunnel, app server,
// broker) through the optional fault injector; with no injector it is
// exactly net.DialTimeout.
func (p *Proxy) dialUpstream(addr string) (net.Conn, error) {
	return p.cfg.Faults.Dial("tcp", addr, p.cfg.dialTimeout)
}

// startRequest begins every request this proxy serves, at either role: it
// is counted, it is in flight (the RIF that LOAD answers advertise) until
// endRequest, and its span, called name, joins the trace whose context
// came with it in x-zdr-trace. A deferred endRequest ends the span and
// times the request.
func (p *Proxy) startRequest(name, method, path, trace string) (*obs.Span, time.Time) {
	t0 := time.Now()
	p.cRequests.Inc()
	p.gRIF.Inc()
	remote, _ := obs.ParseSpanContext(trace)
	sp := p.cfg.Trace.StartSpan(name, remote)
	sp.SetAttr("method", method)
	sp.SetAttr("path", path)
	return sp, t0
}

func (p *Proxy) endRequest(sp *obs.Span, t0 time.Time) {
	sp.End()
	p.latHTTP.Observe(time.Since(t0).Seconds())
	p.gRIF.Dec()
}

// An owner is one accepted connection as its generation holds it, from
// accept until serve, its handler, returns. close ends the connection and
// what serve built on it, from any goroutine, in the order those parts
// need and without waiting for serve.
type owner interface {
	serve()
	close()
}

// serveLoop runs an accept loop on vip's listener: each connection is
// owned, as accept makes it, before anything reads it and until its
// handler returns, and one accepted after terminate's sweep is closed.
// vip names the listener for ledger attribution of accepted connections.
func (p *Proxy) serveLoop(vip string, ln *net.TCPListener, accept func(net.Conn) owner) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener handle closed (drain or shutdown)
			}
			p.cfg.Ledger.Record(disrupt.KindAccept, p.connSeq.Add(1), vip, "", "")
			o := accept(p.cfg.AcceptFaults.Conn(conn))
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				o.close()
				continue
			}
			p.owners[o] = struct{}{}
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				o.serve()
				p.mu.Lock()
				delete(p.owners, o)
				p.mu.Unlock()
				o.close()
			}()
		}
	}()
}

// ownersOf returns the owners of type T, for the work that is only
// theirs. Callers hold p.mu.
func ownersOf[T owner](p *Proxy) []T {
	var out []T
	for o := range p.owners {
		if t, ok := o.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// Addr returns the bound address of the named VIP ("" if absent).
func (p *Proxy) Addr(vip string) string { return p.VIPAddrs()[vip] }

// VIPAddrs returns the bound address of every VIP this instance serves.
// Used by the fresh-socket restart path (§5.1 remediation), where the next
// generation must bind brand-new sockets on the same addresses.
func (p *Proxy) VIPAddrs() map[string]string {
	p.mu.Lock()
	set := p.set
	p.mu.Unlock()
	out := map[string]string{}
	if set == nil {
		return out
	}
	for _, v := range set.VIPs() {
		out[v.Name] = v.Addr
	}
	return out
}

// syncLedgerPhase stamps the ledger with the same release phase
// ReleaseState reports, so disruption attribution tracks the release
// state machine. Call after every phase transition.
func (p *Proxy) syncLedgerPhase() {
	if p.cfg.Ledger == nil {
		return
	}
	p.mu.Lock()
	phase := p.phaseLocked()
	p.mu.Unlock()
	p.cfg.Ledger.SetPhase(phase, p.cfg.Generation)
}

// phaseLocked is the release state machine's position as a katran.Phase*
// string: committed-awaiting-ready from a committed hand-off to its
// lease resolution, then draining, and serving otherwise.
// syncLedgerPhase stamps it, and the LOAD answer (when no ledger is
// configured) and ReleaseState report it. Callers hold p.mu.
func (p *Proxy) phaseLocked() string {
	switch {
	case p.awaitingReady:
		return katran.PhaseCommitted
	case p.draining:
		return katran.PhaseDraining
	}
	return katran.PhaseServing
}

// newSteerLB builds the Edge's embedded katran LB over the configured
// origins. Each origin is one backend; its health VIP (OriginHealth)
// carries the active health checks and — under prequal — the load
// probes whose answers advertise the origin's RIF, latency and release
// phase. The LB runs without pinning layers: each request gets a fresh
// flow id, so every pick is a policy decision (connection pinning lives
// at the real katran tier in front of the Edge, not here).
func (p *Proxy) newSteerLB(reg *metrics.Registry) *katran.LB {
	pcfg := p.cfg.steeringPrequal
	if pcfg.Prober == nil && p.cfg.Faults != nil {
		// One probe transport, one fault-injection point: the chaos
		// injector that wraps upstream dials wraps probe dials too.
		pcfg.Prober = &katran.HCProber{Dial: p.cfg.Faults.Dial}
	}
	lb := katran.New(p.cfg.Name+"-steer", katran.Config{
		Policy: katran.NewPolicy(p.cfg.Steering, pcfg, reg),
		Prober: pcfg.Prober,
	}, reg)
	for i, addr := range p.cfg.Origins {
		b := katran.Backend{Name: addr, Addr: addr}
		if i < len(p.cfg.OriginHealth) {
			b.HealthAddr = p.cfg.OriginHealth[i]
		}
		lb.AddBackend(b, true)
	}
	if len(p.cfg.OriginHealth) > 0 {
		lb.StartHealthChecks(p.cfg.steeringHCInterval)
	}
	return lb
}

// loadSample is this instance's answer to a load probe: requests in
// flight, the data-plane latency median, and the release phase +
// generation — the drain advertisement that lets a Prequal-steering
// peer bleed new flows off this instance the moment a release starts.
// The disruption ledger is the phase source when configured (it tracks
// the serving generation across takeovers); otherwise the proxy's own
// release state machine answers.
func (p *Proxy) loadSample() katran.LoadSample {
	s := katran.LoadSample{
		RIF:        int(p.gRIF.Value()),
		Latency:    time.Duration(p.latHTTP.Quantile(0.5) * float64(time.Second)),
		Generation: p.cfg.Generation,
	}
	if p.cfg.Ledger != nil {
		s.Phase, s.Generation = p.cfg.Ledger.Phase()
		return s
	}
	p.mu.Lock()
	s.Phase = p.phaseLocked()
	p.mu.Unlock()
	return s
}

// Draining reports whether the proxy is in its drain phase.
func (p *Proxy) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// readyToServe reports whether this instance is genuinely serving — the
// default readiness attestation behind the READY frame (the admin
// /healthz endpoint answers from the same state).
func (p *Proxy) readyToServe() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return errors.New("proxy: closed")
	case p.set == nil:
		return errors.New("proxy: no listener set adopted")
	case p.draining:
		return errors.New("proxy: draining")
	}
	return nil
}

// healthConn is a connection on the health VIP.
type healthConn struct {
	net.Conn
	p *Proxy
}

func (hc *healthConn) serve() { hc.p.handleHealthConn(hc.Conn) }
func (hc *healthConn) close() { hc.Conn.Close() }

// handleHealthConn answers Katran's probes and the monitoring plane:
//
//	"HC\n"    → "OK\n", or "DRAIN\n" while draining (§2.3: draining
//	            instances fail health checks);
//	"LOAD\n"  → a load-probe line (RIF, latency, release phase,
//	            generation) per request, served persistently — the
//	            Prequal probe channel and the drain-advertisement path;
//	"STATS\n" → a counter dump — the paper's per-instance real-time
//	            release signal (§6: "Each restarting instance emits a
//	            signal through which its status can be observed").
func (p *Proxy) handleHealthConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	switch line {
	case "LOAD\n":
		// The connection stays open, across a drain too — a draining
		// instance keeps serving established connections — so the probe
		// channel is how the drain advertisement reaches steering peers
		// at once.
		for line == "LOAD\n" {
			p.reg.Counter("proxy.loadprobes").Inc()
			if _, err := fmt.Fprint(conn, katran.EncodeLoadLine(p.loadSample())); err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(time.Minute))
			line, _ = br.ReadString('\n')
		}
	case "HC\n":
		p.reg.Counter("proxy.healthchecks").Inc()
		if p.Draining() {
			fmt.Fprint(conn, "DRAIN\n")
			return
		}
		fmt.Fprint(conn, "OK\n")
	case "STATS\n":
		status := "active"
		if p.Draining() {
			status = "draining"
		}
		fmt.Fprintf(conn, "instance %s\nstatus %s\n%s", p.cfg.Name, status, p.reg.Dump())
	}
}

// ServeTakeover runs the Socket Takeover server on path (Fig. 5 step A).
// When a new instance completes the hand-off, this instance automatically
// starts draining. Returns once the path is bound — a next generation can
// connect from that moment — or with the reason it could not be; the
// hand-off happens in the background.
func (p *Proxy) ServeTakeover(path string) error {
	p.mu.Lock()
	set, quic := p.set, p.quic
	p.mu.Unlock()
	if set == nil {
		return errors.New("proxy: not serving yet")
	}
	srv := &takeover.Server{
		Set:          set,
		Tracer:       p.cfg.Trace,
		ReadyTimeout: p.cfg.TakeoverReadyTimeout,
		OnDrainStart: func(res takeover.Result) {
			// Join the receiver's hand-off trace (ack.Trace) so the old
			// instance's drain appears under the new instance's span tree.
			// Only a committed hand-off reaches this point: draining
			// begins strictly after COMMIT.
			p.reg.Counter("proxy.takeover_commits").Inc()
			p.mu.Lock()
			p.awaitingReady = true
			p.mu.Unlock()
			p.cfg.Ledger.Record(disrupt.KindHandoff, 0, "", "", "takeover committed; draining")
			p.startDrainingTraced(res.PeerTrace)
		},
		OnReady: func(takeover.Result) {
			// The receiver confirmed serving: the lease is released and
			// the drain is final. The ledger says so only if it still
			// holds this generation's committed-awaiting-ready stamp: one
			// shared with the receiver is the serving generation's, and
			// this instance's drain tail must not regress it.
			p.mu.Lock()
			p.awaitingReady = false
			p.mu.Unlock()
			p.reg.Counter("proxy.takeover_readies").Inc()
			gen := p.cfg.Generation
			p.cfg.Ledger.CompareAndSetPhase(katran.PhaseCommitted, gen, katran.PhaseDraining, gen)
		},
		OnUndo: func(rearmed *takeover.ListenerSet, cause error) {
			// The lease broke before READY: the receiver is presumed dead
			// and this instance un-drains onto the re-armed listeners.
			p.reg.Counter("proxy.takeover_undos").Inc()
			p.undoDrain(rearmed, cause)
		},
		OnHandoffError: func(err error) {
			// The receiver died or misbehaved; this instance rolled back
			// (pre-commit abort) or un-drained (post-commit undo) and
			// keeps serving.
			if errors.Is(err, takeover.ErrUndone) {
				return // counted via proxy.takeover_undos
			}
			p.reg.Counter("proxy.takeover_aborts").Inc()
		},
	}
	if quic != nil {
		// Pre-configure the host-local forward address for user-space UDP
		// routing and advertise it to the next generation (§4.1).
		fwd, err := quic.PrepareDrain()
		if err != nil {
			return err
		}
		srv.Meta = map[string]string{"quic-forward": fwd.String()}
	}
	if err := srv.Listen(path); err != nil {
		return err
	}
	p.mu.Lock()
	p.takeSrv = srv
	p.mu.Unlock()
	go srv.Serve() // until a committed hand-off or Close
	return nil
}

// TakeoverFrom connects to the old instance's takeover server, receives
// the listener set, and starts serving on it (Fig. 5 steps B–D and F).
func (p *Proxy) TakeoverFrom(path string) (*takeover.Result, error) {
	return p.TakeoverFromWith(path, TakeoverOptions{})
}

// TakeoverOptions configures the receiver side of a proxy takeover.
type TakeoverOptions struct {
	// Trace, when non-nil, parents the takeover.handoff span; otherwise a
	// root span is recorded on Config.Trace (nil tracer: untraced).
	Trace *obs.Span
	// OnCommitted, when non-nil, fires the moment the sender's COMMIT is
	// observed — the instant the release
	// enters its committed-awaiting-ready state. The orchestrator uses it
	// to surface the state in core.ProxySlot.
	OnCommitted func()
	// OnRollingBack, when non-nil, fires when a committed hand-off starts
	// unwinding: the post-commit readiness gate rejected promotion (the
	// proxy's own serving checks or Config.ReadyGate), so this instance
	// is about to step down while the old one un-drains from its
	// retained FDs. The orchestrator uses it to surface the rolling-back
	// state in core.ProxySlot.
	OnRollingBack func()
}

// TakeoverFromWith is TakeoverFrom with explicit options, recorded under a
// takeover.handoff span. The six Fig. 5 steps appear as takeover.step.A–F
// children (A–E from the protocol exchange — with adoption armed inside
// the prepare window — and F marking the transfer of health-check
// responsibility once the hand-off commits).
func (p *Proxy) TakeoverFromWith(path string, opts TakeoverOptions) (*takeover.Result, error) {
	hand := opts.Trace.StartChild(obs.SpanTakeoverHandoff)
	if hand == nil {
		hand = p.cfg.Trace.StartSpan(obs.SpanTakeoverHandoff, obs.SpanContext{})
	}
	hand.SetAttr("instance", p.cfg.Name)
	hand.SetAttr("path", path)
	// Arming happens inside the protocol's prepare window: Adopt starts
	// the accept loops (and the QUIC machinery) BEFORE the PREPARE-ACK is
	// sent, so the confirmation attests to an instance that is already
	// serving — not one that merely holds the sockets. If anything after
	// a successful Adopt aborts the hand-off (commit never arrives, peer
	// crash), Disarm rolls this half-promoted generation back to a clean
	// slate; the shared sockets stay alive in the old instance, which
	// never stopped accepting. The same Disarm also unwinds a post-commit
	// undo — there the old instance re-arms from its retained dups
	// instead.
	_, res, err := takeover.Connect(path, takeover.ReceiveOptions{
		Trace: hand,
		Arm: func(set *takeover.ListenerSet, res *takeover.Result) error {
			if err := p.adopt(set); err != nil {
				return err
			}
			if fwd, ok := res.Meta["quic-forward"]; ok {
				p.mu.Lock()
				quic := p.quic
				p.mu.Unlock()
				if quic != nil {
					if addr, err := net.ResolveUDPAddr("udp", fwd); err == nil {
						quic.SetForward(addr)
					}
				}
			}
			return nil
		},
		Disarm: func(*takeover.ListenerSet) {
			p.reg.Counter("proxy.takeover_disarms").Inc()
			p.stepDown()
		},
		Ready: func(*takeover.ListenerSet, *takeover.Result) error {
			// The readiness gate behind the READY frame: attest
			// /healthz-green serving, not just adopted sockets. A failure
			// here un-drains the old instance.
			if opts.OnCommitted != nil {
				opts.OnCommitted()
			}
			err := p.readyToServe()
			if err == nil && p.cfg.ReadyGate != nil {
				err = p.cfg.ReadyGate()
			}
			if err != nil && opts.OnRollingBack != nil {
				opts.OnRollingBack()
			}
			return err
		},
	})
	if err != nil {
		if errors.Is(err, takeover.ErrUndone) {
			p.reg.Counter("proxy.takeover_undone").Inc()
		}
		hand.Fail(err)
		hand.End()
		return nil, err
	}
	// Step F: the hand-off is committed — the old instance is draining and
	// health-check responsibility is now this instance's.
	spF := hand.StartChild("takeover.step.F")
	spF.SetAttr("vips", fmt.Sprintf("%d", len(res.VIPs)))
	spF.End()
	p.reg.Counter("proxy.takeovers").Inc()
	p.cfg.Ledger.Record(disrupt.KindHandoff, 0, "", "", "takeover received; serving")
	p.syncLedgerPhase() // post-READY the release is decided: serving, new generation
	hand.End()
	return res, nil
}

// StartDraining enters the drain phase (Fig. 5 step E):
//
//   - health checks answer DRAIN;
//   - the accept loops stop (this instance's listener handles close; the
//     shared sockets stay alive in the new instance);
//   - Origin: GOAWAY on every tunnel session and reconnect_solicitation
//     on every relayed MQTT stream (§4.2 step A);
//   - existing connections continue to be served until Shutdown.
func (p *Proxy) StartDraining() { p.startDrainingTraced("") }

// startDrainingTraced is StartDraining joined to the peer's trace (the
// new instance's hand-off span, in wire form) when one is known. The
// proxy.drain span stays open until terminate, covering the whole drain
// window.
func (p *Proxy) startDrainingTraced(peerTrace string) {
	p.mu.Lock()
	if p.draining || p.closed {
		p.mu.Unlock()
		return
	}
	p.draining = true
	set, quic := p.set, p.quic
	sessions := ownersOf[*originSession](p)
	remote, _ := obs.ParseSpanContext(peerTrace)
	sp := p.cfg.Trace.StartSpan("proxy.drain", remote)
	sp.SetAttr("instance", p.cfg.Name)
	p.drainSpan = sp
	p.mu.Unlock()
	close(p.drainCh)
	p.reg.Counter("proxy.drains").Inc()
	p.syncLedgerPhase()
	p.cfg.Ledger.Record(disrupt.KindDrain, 0, "", "", "drain started")

	// Closing our TCP handles stops the accept loops without closing the
	// shared sockets (the new instance's FDs keep them alive). When no
	// takeover happened this also unbinds the VIPs — the HardRestart
	// case. The UDP handle stays open: the draining QUIC stack keeps
	// writing replies through it while its flows are forwarded back.
	if set != nil {
		set.CloseTCP()
	}
	if quic != nil {
		quic.StartDraining()
	}
	// The app-server connections are this generation's: idle ones close
	// now, and the requests still to be served dial their own.
	p.upstream.retire()
	// Relayed MQTT streams get the drain span's context in the
	// solicitation payload, so the Edge's dcr.reconnect spans join this
	// trace (§4.2 step A).
	for _, s := range sessions {
		s.startDrain(sp.Context().String())
	}
}

// undoDrain reverses startDrainingTraced after a broken drain-undo lease:
// the hand-off committed but the receiver never confirmed serving, so this
// instance resumes full ownership. rearmed holds listeners rebuilt from
// the takeover layer's retained dups — the same kernel sockets this
// instance was serving before the drain, with every SYN that arrived
// during the recovery window still queued in their backlogs.
//
// The TCP listeners are folded back into the serving set (the drain's
// CloseTCP removed those entries) and armed; the QUIC stack just resumes
// reading. Origin sessions that already received a reconnect solicitation
// are left alone: DCR re-homes those streams through another Origin
// regardless (§4.2), while unsolicited future connections land here again.
func (p *Proxy) undoDrain(rearmed *takeover.ListenerSet, cause error) {
	p.mu.Lock()
	if p.closed || !p.draining {
		p.mu.Unlock()
		rearmed.Close()
		return
	}
	p.draining = false
	p.awaitingReady = false
	p.drainCh = make(chan struct{})
	drainSpan := p.drainSpan
	p.drainSpan = nil
	set := p.set
	quic := p.quic
	p.mu.Unlock()

	// The UDP dups go: the draining instance never closed its own.
	for _, v := range rearmed.VIPs() {
		if v.Network == takeover.NetworkUDP {
			rearmed.UDP(v.Name).Close()
		} else if ln := rearmed.TCP(v.Name); p.acceptor(v.Name) == nil || set.AddTCP(v.Name, ln) != nil {
			ln.Close()
		}
	}
	p.arm(set)
	if quic != nil {
		quic.UndoDrain()
	}
	p.upstream.resume()
	p.reg.Counter("proxy.drain_undos").Inc()
	p.syncLedgerPhase()
	p.cfg.Ledger.Record(disrupt.KindUndo, 0, "", "", fmt.Sprintf("drain undone: %v", cause))
	if drainSpan != nil {
		drainSpan.Fail(fmt.Errorf("proxy: drain undone: %w", cause))
		drainSpan.End()
	}
}

// Shutdown drains (if not already draining) and, after the drain period,
// terminates all remaining work.
func (p *Proxy) Shutdown() {
	p.StartDraining()
	time.Sleep(p.cfg.DrainPeriod)
	p.terminate()
}

// Close terminates immediately (tests).
func (p *Proxy) Close() { p.terminate() }

// stepDown retires a generation that lost its hand-off — a pre-commit
// abort or a post-commit undo. The peer generation owns the shared
// kernel sockets and never stopped (or has resumed) accepting, so the
// only connections at risk are the ones this instance already pulled off
// the accept queue: stop accepting first, give their handlers a bounded
// window to finish, then terminate. A hard Close here would turn a
// survivable rollback into client-visible disruption.
func (p *Proxy) stepDown() {
	p.mu.Lock()
	closed, set := p.closed, p.set
	p.mu.Unlock()
	if closed {
		return
	}
	if set != nil {
		set.CloseTCP() // handles only; the peer's FDs keep the sockets alive
	}
	finished := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
	}
	p.terminate()
}

func (p *Proxy) terminate() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if !p.draining {
		p.draining = true
		close(p.drainCh)
	}
	drainSpan := p.drainSpan
	p.drainSpan = nil
	set, takeSrv, quic := p.set, p.takeSrv, p.quic
	tunnels := make([]*h2t.Session, 0, len(p.tunnels))
	for _, sess := range p.tunnels {
		tunnels = append(tunnels, sess)
	}
	owners, relays := ownersOf[owner](p), ownersOf[*mqttRelay](p)
	p.mu.Unlock()

	// Accepted connections are forcefully terminated at the end of the
	// draining period (§4.1), each by its owner: a client that has said
	// nothing, or waits for its next request, just goes; a request cut
	// in the middle is a disruption and is recorded as one. An MQTT
	// relay goes after the tunnels: its close resets its stream, and that
	// write would wait behind one parked on a tunnel whose Origin stopped
	// reading, which only the tunnel's close frees.
	for _, o := range owners {
		if _, relay := o.(*mqttRelay); !relay {
			o.close()
		}
	}
	p.upstream.close()

	if takeSrv != nil {
		takeSrv.Close()
	}
	if quic != nil {
		quic.Close()
	}
	if set != nil {
		set.Close()
	}
	for _, sess := range tunnels {
		sess.Close()
	}
	for _, r := range relays {
		r.close()
	}
	// The embedded steering LB's probe pools hold channels to the origins.
	if p.steerLB != nil {
		p.steerLB.Close()
	}
	p.wg.Wait()
	drainSpan.End()
}

// Tracer returns the configured tracer (nil when tracing is off).
func (p *Proxy) Tracer() *obs.Tracer { return p.cfg.Trace }

// ReleaseState reports the instance's release state machine for the
// admin /debug/release endpoint.
func (p *Proxy) ReleaseState() obs.ReleaseState {
	p.mu.Lock()
	draining := p.draining
	phase := p.phaseLocked()
	armed := p.takeSrv != nil
	p.mu.Unlock()
	return obs.ReleaseState{
		Service:  p.cfg.Name,
		Draining: draining,
		Slots: []obs.SlotState{{
			Name:           p.cfg.Name,
			Phase:          phase,
			Draining:       draining,
			TakeoverArmed:  armed,
			Takeovers:      p.reg.CounterValue("proxy.takeovers"),
			TakeoverAborts: p.reg.CounterValue("proxy.takeover_aborts"),
			TakeoverUndos:  p.reg.CounterValue("proxy.takeover_undos"),
			Drains:         p.reg.CounterValue("proxy.drains"),
			UpstreamIdle:   p.upstream.idleCounts(),
		}},
		InFlightSpans: p.cfg.Trace.InFlight(),
	}
}
