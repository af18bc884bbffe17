package experiments

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"zdr/internal/fleet"
	"zdr/internal/katran"
	"zdr/internal/metrics"
	"zdr/internal/proxy"
)

// TblSteeringRelease regenerates the steering-policy release comparison:
// the same rolling restart of one edge (fresh-socket model: drain, exit,
// rebind — the disruptive §6 baseline) under the same request schedule,
// steered by the default Maglev placement policy versus Prequal-assisted
// drain-aware steering.
//
// The point is the disruption window §6 measures: under Maglev the
// draining instance keeps absorbing new flows until the health checker
// evicts it (consecutive probe failures × probe interval), and every
// one of those arrivals is a refused connection. Under Prequal the
// instance's own LOAD probe channel advertises phase=draining within
// one probe interval — long before any health verdict — so new flows
// bleed off it almost immediately, at no tail-latency cost.
func TblSteeringRelease() (Table, error) {
	tab := Table{
		ID:      "T-G",
		Title:   "Rolling release under Maglev-only vs Prequal drain-aware steering",
		Columns: []string{"policy", "requests", "ok", "drain arrivals", "disrupted", "p50", "p99"},
		Notes: "4-edge fleet, one edge fresh-socket-restarted mid-run (drain 400ms, rebind, " +
			"readmit) under an identical seeded request schedule; 'drain arrivals' counts fresh " +
			"flows steered to the restarting edge while its release was in flight. Maglev keeps " +
			"feeding it until health-check eviction (2 failures x 100ms); Prequal hears the " +
			"drain advertisement on its persistent load-probe channel within ~5ms and steers " +
			"away first — strictly fewer arrivals, no p99 regression",
	}
	for _, policy := range []string{"maglev", "prequal"} {
		res, err := steeringRelease(policy)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", policy, err)
		}
		tab.Rows = append(tab.Rows, []string{
			policy,
			fmt.Sprintf("%d", res.total),
			fmt.Sprintf("%d", res.ok),
			fmt.Sprintf("%d", res.drainArrivals),
			fmt.Sprintf("%d", res.disrupted),
			fmt.Sprintf("%.0f us", float64(res.p50.Microseconds())),
			fmt.Sprintf("%.0f us", float64(res.p99.Microseconds())),
		})
	}
	return tab, nil
}

// steeringResult is one policy run's outcome.
type steeringResult struct {
	total         int
	ok            int
	disrupted     int
	drainArrivals int
	p50, p99      time.Duration
}

// steeringRelease runs one rolling-release scenario under the named
// steering policy. Everything that varies between runs is pinned — the
// flow schedule is sequential, the Prequal sampler is seeded, and the
// release fires at the same request index — so the two policies see the
// same world.
func steeringRelease(policyName string) (steeringResult, error) {
	const (
		nEdges       = 4
		totalReqs    = 600
		reqPeriod    = 2 * time.Millisecond
		releaseAtReq = 150 // ≈300ms into the run
		drainPeriod  = 400 * time.Millisecond
	)
	var res steeringResult

	newEdge := func(name string, gen int, vipAddrs map[string]string) (*proxy.Proxy, error) {
		p := proxy.New(proxy.Config{
			Name:          name,
			Role:          proxy.RoleEdge,
			Origins:       []string{"127.0.0.1:1"},
			DrainPeriod:   drainPeriod,
			StaticContent: map[string][]byte{"/s": []byte("static")},
			VIPAddrs:      vipAddrs,
			Generation:    gen,
		}, nil)
		if err := p.Listen(); err != nil {
			return nil, err
		}
		return p, nil
	}

	edges := make([]*proxy.Proxy, nEdges)
	for i := range edges {
		e, err := newEdge(fmt.Sprintf("edge-%d", i), 1, nil)
		if err != nil {
			return res, err
		}
		defer e.Close()
		edges[i] = e
	}

	reg := metrics.NewRegistry()
	lb := katran.New("l4-"+policyName, katran.Config{
		HealthyAfter:   1,
		UnhealthyAfter: 2,
		ProbeTimeout:   150 * time.Millisecond,
		FlowCacheSize:  1 << 12,
		Policy: katran.NewPolicy(policyName, katran.PrequalConfig{
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  150 * time.Millisecond,
			MaxAge:        100 * time.Millisecond,
			ReuseBudget:   8,
			PowerD:        3,
			Seed:          7,
		}, reg),
	}, reg)
	defer lb.Close()
	for _, e := range edges {
		lb.AddBackend(katran.Backend{
			Name:       e.Name(),
			Addr:       e.Addr(proxy.VIPWeb),
			HealthAddr: e.Addr(proxy.VIPHealth),
		}, true)
	}
	lb.StartHealthChecks(100 * time.Millisecond)
	time.Sleep(120 * time.Millisecond) // probe pools warm, health confirmed

	victim := edges[1]
	victimWeb := victim.Addr(proxy.VIPWeb)
	victimHealth := victim.Addr(proxy.VIPHealth)

	// releaseActive brackets the victim's disruption window: from drain
	// start until the replacement generation is bound and serving.
	var releaseActive atomic.Bool
	releaseDone := make(chan error, 1)
	gen2Ch := make(chan *proxy.Proxy, 1)
	release := func() {
		releaseActive.Store(true)
		victim.Shutdown() // drain 400ms, serve established conns, exit
		// Fresh-socket restart: the replacement rebinds the SAME VIPs
		// (the traditional restart model — the §6 baseline the paper
		// replaces with Socket Takeover). The rebind can race the old
		// instance's teardown; retry briefly.
		var gen2 *proxy.Proxy
		var err error
		deadline := time.Now().Add(2 * time.Second)
		for {
			gen2, err = newEdge("edge-1-g2", 2, map[string]string{
				proxy.VIPWeb:    victimWeb,
				proxy.VIPHealth: victimHealth,
			})
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		releaseActive.Store(false)
		gen2Ch <- gen2
		releaseDone <- err
	}

	latencies := make([]time.Duration, 0, totalReqs)
	for i := 0; i < totalReqs; i++ {
		if i == releaseAtReq {
			go release()
		}
		res.total++
		b, err := lb.Steer(uint64(1_000_000 + i)) // fresh flow per request
		if err != nil {
			res.disrupted++
			time.Sleep(reqPeriod)
			continue
		}
		if b.Name == victim.Name() && releaseActive.Load() {
			res.drainArrivals++
		}
		t0 := time.Now()
		if code, err := fleet.GetStatus(b.Addr, "/s", 5*time.Second); err != nil || code != 200 {
			res.disrupted++
		} else {
			res.ok++
			latencies = append(latencies, time.Since(t0))
		}
		time.Sleep(reqPeriod)
	}
	if gen2 := <-gen2Ch; gen2 != nil {
		defer gen2.Close()
	}
	if err := <-releaseDone; err != nil {
		return res, fmt.Errorf("replacement generation never bound: %w", err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		res.p50 = latencies[n/2]
		res.p99 = latencies[n*99/100]
	}
	return res, nil
}
