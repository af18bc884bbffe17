// Package katran is a user-space model of Facebook's Katran L4 load
// balancer (§2.1): the layer that sits between the routers (ECMP) and the
// L7 proxies, steering each flow to an L7LB with consistent hashing and
// continuously health-checking the proxy fleet.
//
// What matters to Zero Downtime Release is Katran's *behaviour*, not its
// XDP datapath, so this package implements:
//
//   - a Maglev consistent-hash table over the healthy backends,
//   - an active health-check prober ("each restarting instance enters a
//     draining mode ... by failing health-checks from Katran to remove the
//     instance from the routing ring", §2.3) with consecutive-success/
//     -failure thresholds,
//   - the §5.1 remediation: a connection table of recent flows (the
//     FlowTable) that absorbs momentary shuffles in the routing topology
//     so established connections keep landing on the same L7LB even when
//     a health flap briefly changes the Maglev table,
//   - a pluggable steering Policy deciding where FRESH flows land: the
//     default PolicyMaglev (placement-only consistent hashing) or the
//     drain-aware adaptive PolicyPrequal (probe-based power-of-d with the
//     hot/cold lexicographic rule).
//
// Steering is exposed as a function from flow hash to backend; integration
// tests and the cluster simulator drive their connection placement through
// it.
//
// Concurrency model (DESIGN.md §8): steering is the per-packet hot path,
// so Steer never takes the control-plane lock and never allocates. The
// routing View (Maglev table, healthy-backend set, and the flow table's
// slot → Backend view) is ONE immutable snapshot published through an
// atomic pointer; rebuilds and generation bumps construct a fresh snapshot
// under lb.mu and swap it in. The flow table is sharded with per-shard
// locks so concurrent flows rarely contend.
package katran

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/consistent"
	"zdr/internal/metrics"
)

// Backend is one L7 proxy instance behind a VIP.
type Backend struct {
	// Name uniquely identifies the instance (e.g. "edge-proxy-03").
	Name string
	// Addr is the instance's serving address.
	Addr string
	// HealthAddr is probed; empty means probe Addr.
	HealthAddr string
}

type backendState struct {
	Backend
	healthy    bool
	consecOK   int
	consecFail int
}

// Config tunes the LB.
type Config struct {
	// HealthyAfter is the consecutive probe successes needed to admit a
	// backend (default 1).
	HealthyAfter int
	// UnhealthyAfter is the consecutive failures needed to evict (default 1).
	UnhealthyAfter int
	// ProbeTimeout bounds one probe (default 500ms).
	ProbeTimeout time.Duration
	// FlowCacheSize and FlowTableSize both size the one flow-pinning tier,
	// the §5.1 connection table (FlowTable); it is enabled when either is
	// > 0 and takes the larger of the two requests. FlowCacheSize is in
	// flows the table must hold — the contract of the LRU cache that used
	// to sit in front of the table — and is allocated at
	// flowTableHeadroom sockets per flow. The table pins every flow it
	// has seen until its bucket overflows, and flips routing on a takeover
	// with a single epoch bump (AdvanceGeneration) instead of per-entry
	// writes.
	FlowCacheSize int
	// FlowTableSize is in sockets (16 B each, 8-way buckets), as it always
	// was: a caller sizing for N flows asks for a multiple of N.
	FlowTableSize int
	// Prober carries health probes (default &HCProber{}, which speaks the
	// "HC\n" → "OK\n" protocol). The same transport carries Prequal load
	// probes, so one faults.Injector dialer chaos-tests both.
	Prober Prober
	// Policy decides where fresh flows land (default NewPolicyMaglev()).
	// The flow table sits in front of every policy; see the Policy doc
	// for the precedence contract.
	Policy Policy
}

// flowTableHeadroom is the table's sockets per flow of FlowCacheSize, i.e.
// a load factor of 1/4 with that many flows resident: an 8-way bucket then
// holds a Poisson(2) number of flows and overflows — evicting a pin that
// an LRU of that size would have kept — for about 1 flow in 7,000. At 1/2
// it would be 1 in 120.
const flowTableHeadroom = 4

func (c *Config) fill() {
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 1
	}
	if c.UnhealthyAfter <= 0 {
		c.UnhealthyAfter = 1
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.Prober == nil {
		c.Prober = &HCProber{}
	}
	if c.Policy == nil {
		c.Policy = NewPolicyMaglev()
	}
}

// LB is one Katran instance steering a single VIP.
type LB struct {
	name   string
	cfg    Config
	reg    *metrics.Registry
	policy Policy

	// Hot-path counters, resolved once: Registry.Counter takes the
	// registry mutex per lookup, which would serialize Steer again.
	cTableHit   *metrics.Counter
	cPolicyPick *metrics.Counter

	// Control-plane gauges for the fleet telemetry scrape: flow-table
	// occupancy (parts per thousand) and current release epoch.
	gOccupancy *metrics.Gauge
	gEpoch     *metrics.Gauge

	// route is the current routing snapshot; Steer loads it lock-free.
	route atomic.Pointer[View]

	mu       sync.Mutex // control plane: guards backends + snapshot publication
	backends map[string]*backendState

	table *FlowTable // nil: no pinning, every steer is a policy pick

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New creates an LB. reg may be nil.
func New(name string, cfg Config, reg *metrics.Registry) *LB {
	cfg.fill()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	lb := &LB{
		name:        name,
		cfg:         cfg,
		reg:         reg,
		policy:      cfg.Policy,
		cTableHit:   reg.Counter("katran.steer.flowtable_hit"),
		cPolicyPick: reg.Counter("katran.steer.policy_pick"),
		gOccupancy:  reg.Gauge("katran.flowtable.occupancy"),
		gEpoch:      reg.Gauge("katran.flowtable.epoch"),
		backends:    make(map[string]*backendState),
		stop:        make(chan struct{}),
	}
	reg.Gauge("katran.steer.policy_" + lb.policy.Name()).Set(1)
	rt := &View{
		maglev:  consistent.NewMaglev(0),
		healthy: map[string]Backend{},
	}
	if sockets := max(cfg.FlowCacheSize*flowTableHeadroom, cfg.FlowTableSize); sockets > 0 {
		lb.table = NewFlowTable(sockets, 0)
		rt.pins = lb.table.view.Load()
		lb.gEpoch.Set(int64(rt.pins.epoch))
	}
	lb.route.Store(rt)
	return lb
}

// FlowTable returns the flow table (nil unless Config.FlowCacheSize or
// Config.FlowTableSize enabled it).
func (lb *LB) FlowTable() *FlowTable { return lb.table }

// Policy returns the steering policy deciding fresh-flow placement.
func (lb *LB) Policy() Policy { return lb.policy }

// AdvanceGeneration moves the flow table to the next release generation.
// With drainOld, every flow pinned under earlier generations is flipped
// in this one O(1) epoch bump — the million-flow takeover primitive: no
// per-entry writes happen (pinned by the chaos suite via EntryWrites),
// and each stale flow lazily re-pins on its next packet. Without
// drainOld the bump is bookkeeping only and existing pins stay routable.
// The steering policy observes the bump. No-op when the flow table is
// disabled.
func (lb *LB) AdvanceGeneration(drainOld bool) {
	if lb.table == nil {
		return
	}
	lb.mu.Lock()
	old := lb.route.Load()
	pins := lb.table.bump(drainOld)
	lb.route.Store(&View{maglev: old.maglev, healthy: old.healthy, pins: pins})
	lb.policy.AdvanceGeneration(pins.epoch, drainOld)
	lb.mu.Unlock()
	lb.gEpoch.Set(int64(pins.epoch))
	lb.gOccupancy.Set(int64(lb.table.Occupancy()))
	lb.reg.Counter("katran.flowtable.bumps").Inc()
}

// Metrics returns the LB's registry.
func (lb *LB) Metrics() *metrics.Registry { return lb.reg }

// AddBackend registers a backend. New backends start unhealthy until a
// probe (or SetHealth) admits them, unless healthyNow is true.
func (lb *LB) AddBackend(b Backend, healthyNow bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.backends[b.Name] = &backendState{Backend: b, healthy: healthyNow}
	if healthyNow {
		lb.policy.BackendUp(b)
	}
	lb.rebuildLocked()
}

// RemoveBackend deletes a backend entirely.
func (lb *LB) RemoveBackend(name string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if _, ok := lb.backends[name]; !ok {
		return
	}
	delete(lb.backends, name)
	lb.policy.BackendDown(name)
	lb.rebuildLocked()
}

// ErrUnknownBackend is returned by SetHealth for a name that was never
// added.
var ErrUnknownBackend = errors.New("katran: unknown backend")

// SetHealth overrides a backend's health (used by tests and by the
// simulator's modeled probes). An unknown name is an error — and counts
// on katran.health.unknown_backend — so a typoed simulator transition
// can't silently skip.
func (lb *LB) SetHealth(name string, healthy bool) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	bs, ok := lb.backends[name]
	if !ok {
		lb.reg.Counter("katran.health.unknown_backend").Inc()
		return ErrUnknownBackend
	}
	if bs.healthy == healthy {
		return nil
	}
	bs.healthy = healthy
	lb.transitionLocked(bs)
	return nil
}

func (lb *LB) transitionLocked(bs *backendState) {
	if bs.healthy {
		lb.reg.Counter("katran.health.up").Inc()
		lb.policy.BackendUp(bs.Backend)
	} else {
		lb.reg.Counter("katran.health.down").Inc()
		lb.policy.BackendDown(bs.Name)
	}
	lb.rebuildLocked()
}

// rebuildLocked publishes a fresh routing snapshot from the current
// backend health. Callers hold lb.mu, which serializes publications.
func (lb *LB) rebuildLocked() {
	names := make([]string, 0, len(lb.backends))
	healthy := make(map[string]Backend, len(lb.backends))
	for _, bs := range lb.backends {
		if bs.healthy {
			names = append(names, bs.Name)
			healthy[bs.Name] = bs.Backend
		}
	}
	sort.Strings(names)
	rt := &View{
		maglev:  consistent.NewMaglev(0, names...),
		healthy: healthy,
	}
	if lb.table != nil {
		// The table's half of the same snapshot: removed backends
		// tombstone their slot (their flows re-pick lazily), re-admitted
		// ones revive it (their flows come home, the §5.1 consistency
		// property). No entry is written.
		live := make([]Backend, len(names))
		for i, n := range names {
			live[i] = healthy[n]
		}
		rt.pins = lb.table.setBackends(live)
		lb.gOccupancy.Set(int64(lb.table.Occupancy()))
	}
	lb.route.Store(rt)
	lb.reg.Counter("katran.table.rebuilds").Inc()
	lb.reg.Gauge("katran.backends.healthy").Set(int64(len(names)))
}

// HealthyBackends returns the names of healthy backends, sorted.
func (lb *LB) HealthyBackends() []string {
	return lb.route.Load().maglev.Members()
}

// View returns the current immutable routing snapshot.
func (lb *LB) View() *View { return lb.route.Load() }

// ErrNoBackends is returned by Steer when every backend is out.
var ErrNoBackends = errors.New("katran: no healthy backends")

// Steer picks the backend for a flow hash: the flow table first (§5.1's
// connection table, pinning every established flow), then the steering
// policy for the fresh pick, which is recorded in the table so the flow
// sticks — that is the policy-vs-flow-table precedence contract: a policy
// decides only where NEW (or stale-pinned) flows go, the table keeps
// established flows where they are.
//
// Steer loads one routing snapshot, touches one shard of the table and
// allocates nothing, so concurrent steering scales across cores. A hit
// answers from the snapshot's slot → Backend view: a live slot IS a
// healthy backend in that snapshot, so nothing is revalidated by name.
func (lb *LB) Steer(flow uint64) (Backend, error) {
	rt := lb.route.Load()
	if lb.table == nil {
		return lb.pick(flow, rt)
	}
	if slot, ok := lb.table.lookup(rt.pins, flow); ok {
		lb.cTableHit.Inc()
		return rt.pins.backends[slot], nil
	}
	return lb.repin(flow)
}

// pick is the policy's fresh pick against rt.
func (lb *LB) pick(flow uint64, rt *View) (Backend, error) {
	b, err := lb.policy.Pick(flow, rt)
	if err != nil {
		return Backend{}, ErrNoBackends
	}
	lb.cPolicyPick.Inc()
	return b, nil
}

// repin handles a flow with no live pin — fresh, pinned to a backend that
// left the ring, or pinned under a drained generation — in one shard
// critical section that revalidates before replacing: the snapshot is
// loaded inside it, so if a concurrent steer already re-pinned the flow
// to a live backend that pin wins and nothing is written, and a pin can
// never be written for a backend the freshest snapshot has dropped.
func (lb *LB) repin(flow uint64) (Backend, error) {
	s, base := lb.table.locate(flow)
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := lb.route.Load()
	if at := s.findLocked(base, flow); at >= 0 {
		if slot, ok := rt.pins.resolve(s.entries[at]); ok {
			lb.cTableHit.Inc()
			return rt.pins.backends[slot], nil
		}
	}
	b, err := lb.pick(flow, rt)
	if err != nil {
		return Backend{}, err
	}
	if slot, ok := rt.pins.slots[b.Name]; ok {
		lb.table.storeLocked(s, base, flow, ftMeta(slot, rt.pins.epoch))
	}
	return b, nil
}

// StartHealthChecks probes all backends every interval until Close.
func (lb *LB) StartHealthChecks(interval time.Duration) {
	lb.wg.Add(1)
	go func() {
		defer lb.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			lb.ProbeOnce()
			select {
			case <-ticker.C:
			case <-lb.stop:
				return
			}
		}
	}()
}

// ProbeOnce probes every backend once, applying the thresholds.
func (lb *LB) ProbeOnce() {
	lb.mu.Lock()
	targets := make([]*backendState, 0, len(lb.backends))
	for _, bs := range lb.backends {
		targets = append(targets, bs)
	}
	prober := lb.cfg.Prober
	timeout := lb.cfg.ProbeTimeout
	lb.mu.Unlock()

	type result struct {
		bs *backendState
		ok bool
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, bs := range targets {
		wg.Add(1)
		go func(i int, bs *backendState) {
			defer wg.Done()
			addr := bs.HealthAddr
			if addr == "" {
				addr = bs.Addr
			}
			results[i] = result{bs: bs, ok: prober.Probe(addr, timeout) == nil}
		}(i, bs)
	}
	wg.Wait()

	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, r := range results {
		lb.reg.Counter("katran.probes").Inc()
		if r.ok {
			r.bs.consecOK++
			r.bs.consecFail = 0
			if !r.bs.healthy && r.bs.consecOK >= lb.cfg.HealthyAfter {
				r.bs.healthy = true
				lb.transitionLocked(r.bs)
			}
		} else {
			r.bs.consecFail++
			r.bs.consecOK = 0
			if r.bs.healthy && r.bs.consecFail >= lb.cfg.UnhealthyAfter {
				r.bs.healthy = false
				lb.transitionLocked(r.bs)
			}
		}
	}
}

// Close stops health checking and the steering policy's probe pools.
func (lb *LB) Close() {
	lb.once.Do(func() { close(lb.stop) })
	lb.wg.Wait()
	lb.policy.Close()
}
