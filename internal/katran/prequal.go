package katran

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"zdr/internal/metrics"
)

// PrequalConfig tunes PolicyPrequal.
type PrequalConfig struct {
	// Prober carries the load probes (default &HCProber{}). Wire its
	// dialer to a faults.Injector for chaos testing.
	Prober Prober
	// ProbeInterval paces the per-backend async probe loop (default
	// 20ms). Prequal's reaction time to a drain advertisement or a load
	// spike is one interval, not a health-check round trip.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 200ms).
	ProbeTimeout time.Duration
	// ReuseBudget is how many picks one probe sample may steer before
	// it is discarded (the paper's probe reuse; default 3). A backend
	// whose samples are all spent steers like an unprobed one until the
	// next probe lands.
	ReuseBudget int
	// MaxAge expires probe samples (default 500ms). A partitioned
	// backend stops producing samples and ages out of consideration —
	// stale probes must never keep steering traffic at a black hole.
	MaxAge time.Duration
	// PowerD is the power-of-d-choices candidate count (default 3).
	PowerD int
	// HotQuantile classifies candidates hot vs cold: a candidate is hot
	// when its estimated RIF exceeds this quantile of the pooled RIF
	// estimates across all probed backends (default 0.84, the paper's
	// recommended Q-RIF region). Cold candidates are picked by lowest
	// latency, hot ones by least RIF — the hot/cold lexicographic rule.
	HotQuantile float64
	// Seed makes candidate sampling deterministic (tests, experiments).
	// Zero selects a fixed default seed; sampling is never wall-clock
	// dependent.
	Seed int64
}

func (c *PrequalConfig) fill() {
	if c.Prober == nil {
		c.Prober = &HCProber{}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 20 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 200 * time.Millisecond
	}
	if c.ReuseBudget <= 0 {
		c.ReuseBudget = 3
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 500 * time.Millisecond
	}
	if c.PowerD <= 0 {
		c.PowerD = 3
	}
	if c.HotQuantile <= 0 || c.HotQuantile >= 1 {
		c.HotQuantile = 0.84
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// poolSample is one pooled probe answer with its reuse accounting.
type poolSample struct {
	LoadSample
	at   time.Time
	uses int
}

// probePoolSize bounds the samples a probe pool keeps.
const probePoolSize = 16

// probePool is one backend's probe state: a small ring of recent
// samples plus the async probe loop feeding it.
type probePool struct {
	backend Backend
	samples []poolSample // newest last
	stop    chan struct{}
}

// PolicyPrequal is the Prequal steering policy (PAPERS.md: "Load is not
// what you should balance"): per-backend pools of asynchronous probes
// reporting requests-in-flight + latency, power-of-d candidate
// sampling, and the hot/cold lexicographic selection rule. The ZDR
// twist: probe answers carry the backend's release phase, and a
// draining or committed-awaiting-ready generation is deprioritized so
// new flows bleed off before the drain timer bites — while the LB's
// flow table keeps established flows pinned to it.
//
// Candidate ranking is lexicographic:
//
//  1. backends not advertising a release beat draining ones;
//  2. backends with fresh probe data beat probe-dead ones (expiry: a
//     partitioned backend ages out instead of absorbing traffic);
//  3. cold beats hot (hot = estimated RIF above the HotQuantile of the
//     pooled estimates);
//  4. among cold, lowest latency wins; among hot, least RIF wins.
//
// When every candidate advertises draining (a fleet-wide release) the
// policy still picks the best of them — a live request is never failed
// while the routing ring has healthy backends.
type PolicyPrequal struct {
	cfg PrequalConfig

	cProbes    *metrics.Counter
	cProbeErrs *metrics.Counter
	cReuseOut  *metrics.Counter
	cExpired   *metrics.Counter
	cPickCold  *metrics.Counter
	cPickHot   *metrics.Counter
	cPickFall  *metrics.Counter
	cAvoided   *metrics.Counter
	gPooled    *metrics.Gauge

	mu    sync.Mutex
	pools map[string]*probePool
	rng   *rand.Rand
	wg    sync.WaitGroup
	done  bool
}

// NewPolicyPrequal creates the policy. reg may be nil; pass the same
// registry the LB uses so katran.prequal.* rides the existing
// telemetry scrape.
func NewPolicyPrequal(cfg PrequalConfig, reg *metrics.Registry) *PolicyPrequal {
	cfg.fill()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &PolicyPrequal{
		cfg:        cfg,
		cProbes:    reg.Counter("katran.prequal.probes"),
		cProbeErrs: reg.Counter("katran.prequal.probe_errors"),
		cReuseOut:  reg.Counter("katran.prequal.probe_reuse_exhausted"),
		cExpired:   reg.Counter("katran.prequal.probe_expired"),
		cPickCold:  reg.Counter("katran.prequal.pick_cold"),
		cPickHot:   reg.Counter("katran.prequal.pick_hot"),
		cPickFall:  reg.Counter("katran.prequal.pick_fallback"),
		cAvoided:   reg.Counter("katran.prequal.drain_avoided"),
		gPooled:    reg.Gauge("katran.prequal.pooled_backends"),
		pools:      make(map[string]*probePool),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Name implements Policy.
func (p *PolicyPrequal) Name() string { return "prequal" }

// BackendUp implements Policy: start (or keep) the backend's async
// probe loop.
func (p *PolicyPrequal) BackendUp(b Backend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	if _, ok := p.pools[b.Name]; ok {
		return
	}
	pool := &probePool{backend: b, stop: make(chan struct{})}
	p.pools[b.Name] = pool
	p.gPooled.Set(int64(len(p.pools)))
	p.wg.Add(1)
	go p.probeLoop(pool)
}

// BackendDown implements Policy: stop probing and forget the pool —
// samples for a backend that left the ring must not linger.
func (p *PolicyPrequal) BackendDown(name string) {
	p.mu.Lock()
	pool, ok := p.pools[name]
	if ok {
		delete(p.pools, name)
		p.gPooled.Set(int64(len(p.pools)))
	}
	p.mu.Unlock()
	if ok {
		close(pool.stop)
	}
}

// AdvanceGeneration implements Policy (the pool carries per-sample
// generation tags already; nothing to flip).
func (p *PolicyPrequal) AdvanceGeneration(uint32, bool) {}

// Close implements Policy: stop every probe loop and the prober's
// persistent channels.
func (p *PolicyPrequal) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	pools := p.pools
	p.pools = make(map[string]*probePool)
	p.gPooled.Set(0)
	p.mu.Unlock()
	for _, pool := range pools {
		close(pool.stop)
	}
	p.wg.Wait()
	if c, ok := p.cfg.Prober.(interface{ Close() error }); ok {
		c.Close()
	}
}

// probeLoop probes one backend every ProbeInterval until stopped.
func (p *PolicyPrequal) probeLoop(pool *probePool) {
	defer p.wg.Done()
	addr := pool.backend.HealthAddr
	if addr == "" {
		addr = pool.backend.Addr
	}
	ticker := time.NewTicker(p.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		s, err := p.cfg.Prober.Load(addr, p.cfg.ProbeTimeout)
		p.cProbes.Inc()
		if err != nil {
			p.cProbeErrs.Inc()
		} else {
			p.admit(pool, s)
		}
		select {
		case <-ticker.C:
		case <-pool.stop:
			return
		}
	}
}

// admit appends a fresh sample to the pool, evicting the oldest past
// probePoolSize.
func (p *PolicyPrequal) admit(pool *probePool, s LoadSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pool.samples = append(pool.samples, poolSample{LoadSample: s, at: time.Now()})
	if n := len(pool.samples) - probePoolSize; n > 0 {
		pool.samples = pool.samples[n:]
	}
}

// AddSample injects a probe answer for a backend directly, bypassing
// the async loop. Tests and simulators use it to model probe arrivals
// deterministically; BackendUp must have registered the backend first.
func (p *PolicyPrequal) AddSample(name string, s LoadSample) {
	p.mu.Lock()
	pool := p.pools[name]
	p.mu.Unlock()
	if pool != nil {
		p.admit(pool, s)
	}
}

// estimate is one candidate's pick-time view.
type estimate struct {
	b        Backend
	known    bool // fresh, unspent probe data exists
	draining bool
	rif      int
	latency  time.Duration
}

// consume returns the freshest usable sample for pool, charging one
// reuse against it and pruning expired or spent samples. Caller holds
// p.mu.
func (p *PolicyPrequal) consumeLocked(pool *probePool, now time.Time) (LoadSample, bool) {
	// Prune from the front: samples are appended in arrival order, so
	// everything older than the first fresh one is expired too.
	keep := pool.samples[:0]
	for _, s := range pool.samples {
		switch {
		case now.Sub(s.at) > p.cfg.MaxAge:
			p.cExpired.Inc()
		case s.uses >= p.cfg.ReuseBudget:
			p.cReuseOut.Inc()
		default:
			keep = append(keep, s)
		}
	}
	pool.samples = keep
	if len(pool.samples) == 0 {
		return LoadSample{}, false
	}
	s := &pool.samples[len(pool.samples)-1]
	s.uses++
	return s.LoadSample, true
}

// Pick implements Policy: power-of-d sampling over the healthy set,
// then the drain-aware hot/cold lexicographic rule.
func (p *PolicyPrequal) Pick(flow uint64, view *View) (Backend, error) {
	names := view.Healthy()
	if len(names) == 0 {
		return Backend{}, ErrNoBackends
	}

	p.mu.Lock()
	d := p.cfg.PowerD
	if d > len(names) {
		d = len(names)
	}
	// Sample d distinct candidates (partial Fisher-Yates over a copy of
	// the healthy slice; Healthy() already returns a fresh slice).
	for i := 0; i < d; i++ {
		j := i + p.rng.Intn(len(names)-i)
		names[i], names[j] = names[j], names[i]
	}
	now := time.Now()
	ests := make([]estimate, 0, d)
	rifs := make([]int, 0, len(p.pools))
	anyKnown := false
	for _, pool := range p.pools {
		if len(pool.samples) > 0 {
			rifs = append(rifs, pool.samples[len(pool.samples)-1].RIF)
		}
	}
	for _, name := range names[:d] {
		b, ok := view.Backend(name)
		if !ok {
			continue
		}
		e := estimate{b: b}
		if pool := p.pools[name]; pool != nil {
			if s, ok := p.consumeLocked(pool, now); ok {
				e.known = true
				e.draining = s.Draining()
				e.rif = s.RIF
				e.latency = s.Latency
				anyKnown = true
			}
		}
		ests = append(ests, e)
	}
	p.mu.Unlock()

	if len(ests) == 0 {
		return Backend{}, ErrNoBackends
	}
	if !anyKnown {
		// No probe data anywhere among the candidates (cold start, or a
		// prober that cannot load-probe): placement-only fallback.
		p.cPickFall.Inc()
		if b, ok := view.PickMaglev(flow); ok {
			return b, nil
		}
		return ests[0].b, nil
	}

	hot := p.hotThreshold(rifs)
	best := ests[0]
	for _, e := range ests[1:] {
		if better(e, best, hot) {
			best = e
		}
	}
	for _, e := range ests {
		if e.draining && e.b.Name != best.b.Name {
			p.cAvoided.Inc()
		}
	}
	switch {
	case !e2hot(best, hot) && best.known:
		p.cPickCold.Inc()
	case best.known:
		p.cPickHot.Inc()
	default:
		p.cPickFall.Inc()
	}
	return best.b, nil
}

// hotThreshold returns the RIF value above which a candidate counts as
// hot: the HotQuantile of the freshest pooled RIF estimates.
func (p *PolicyPrequal) hotThreshold(rifs []int) int {
	if len(rifs) == 0 {
		return 0
	}
	sort.Ints(rifs)
	idx := int(float64(len(rifs)) * p.cfg.HotQuantile)
	if idx >= len(rifs) {
		idx = len(rifs) - 1
	}
	return rifs[idx]
}

func e2hot(e estimate, hot int) bool { return e.known && e.rif > hot }

// better reports whether a beats b under the drain-aware hot/cold
// lexicographic rule.
func better(a, b estimate, hot int) bool {
	// 1. Not-draining beats draining: new flows bleed off a releasing
	//    generation first.
	if a.draining != b.draining {
		return !a.draining
	}
	// 2. Probed beats probe-dead: expired pools (partitioned backends)
	//    only absorb traffic when nothing probed is available.
	if a.known != b.known {
		return a.known
	}
	if !a.known {
		return false // both unknown: keep the earlier sample
	}
	// 3. Cold beats hot.
	ah, bh := e2hot(a, hot), e2hot(b, hot)
	if ah != bh {
		return !ah
	}
	// 4. Among hot: least RIF. Among cold: lowest latency, RIF breaking
	//    ties.
	if ah {
		return a.rif < b.rif
	}
	if a.latency != b.latency {
		return a.latency < b.latency
	}
	return a.rif < b.rif
}
