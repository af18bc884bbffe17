package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"zdr/internal/fleet"
	"zdr/internal/katran"
	"zdr/internal/metrics"
	"zdr/internal/proxy"
)

// tblSteeringRelease regenerates the steering-policy release comparison:
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
func tblSteeringRelease() (Table, error) {
	tab := Table{
		id:      "T-G",
		title:   "Rolling release under Maglev-only vs Prequal drain-aware steering",
		columns: []string{"policy", "requests", "ok", "drain arrivals", "disrupted", "p50", "p99", "disrupted on"},
		notes: "4-edge fleet, edge-01 fresh-socket-restarted mid-run (drain 400ms, rebind, " +
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
			strings.TrimPrefix(fmt.Sprint(res.landed), "map"), // fmt sorts the keys
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
	landed        map[string]int // disrupted requests by the Edge steered to, or "none"
}

// steeringRelease runs one rolling-release scenario under the named
// steering policy. Everything that varies between runs is pinned — the
// flow schedule is sequential, request i is due at i × reqPeriod, the
// Prequal sampler is seeded, and the release fires at the same request
// index — so the two policies see the same world.
func steeringRelease(policyName string) (steeringResult, error) {
	const (
		nEdges       = 4
		totalReqs    = 600
		reqPeriod    = 2 * time.Millisecond
		releaseAtReq = 150 // 300ms into the run
	)
	res := steeringResult{landed: map[string]int{}}
	top, err := fleet.NewTopology(fleet.Spec{
		Edges: nEdges,
		Drain: 400 * time.Millisecond,
		Build: func(_ int, cfg *proxy.Config) { cfg.StaticContent = map[string][]byte{"/s": []byte("static")} },
	})
	if err != nil {
		return res, err
	}
	defer top.Close()

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
	for _, e := range top.Edges {
		lb.AddBackend(katran.Backend{
			Name:       e.Name,
			Addr:       e.Addr(proxy.VIPWeb),
			HealthAddr: e.Addr(proxy.VIPHealth),
		}, true)
	}
	lb.StartHealthChecks(100 * time.Millisecond)
	time.Sleep(120 * time.Millisecond) // probe pools warm, health confirmed

	// releaseActive brackets the victim's disruption window: from drain
	// start until the replacement generation is bound and serving. It is
	// set before the release's goroutine starts, so the request steered
	// in the same instant counts as a drain arrival. The release is the
	// traditional restart, drain then rebind — the §6 baseline the paper
	// replaces with Socket Takeover.
	victim := top.Edges[1]
	var releaseActive atomic.Bool
	releaseDone := make(chan error, 1)
	release := func() {
		err := victim.Rebind(false, 0)
		releaseActive.Store(false)
		releaseDone <- err
	}

	latencies := make([]time.Duration, 0, totalReqs)
	t0 := time.Now()
	for i := 0; i < totalReqs; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * reqPeriod)))
		if i == releaseAtReq {
			releaseActive.Store(true)
			go release()
		}
		res.total++
		b, err := lb.Steer(uint64(1_000_000 + i)) // fresh flow per request
		if err != nil {
			res.disrupted++
			res.landed["none"]++
			continue
		}
		if b.Name == victim.Name && releaseActive.Load() {
			res.drainArrivals++
		}
		start := time.Now()
		if code, err := fleet.GetStatus(b.Addr, "/s", 5*time.Second); err != nil || code != 200 {
			res.disrupted++
			res.landed[b.Name]++
		} else {
			res.ok++
			latencies = append(latencies, time.Since(start))
		}
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
