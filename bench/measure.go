package main

import (
	"fmt"
	"sort"
	"time"

	"zdr/bench/gen"
	"zdr/bench/stats"
)

// plan is the shape of a measurement: after a discarded warm-up, cycles
// of short closed-loop slices alternating between the generator's stub
// and the rig (sat), then one open-loop stretch on the rig (paced).
type plan struct {
	setups             int
	cycles, pairs      int
	warm, slice, paced time.Duration
}

// endToEndPlan splits the measured seconds into six cycles, each ten
// pairs of a stub slice and a sat slice followed by a paced stretch as
// long as ten slices: 100 ms slices and 1 s paced stretches at 18 s, so
// 6 s on the stub, 6 s of sat and 6 s of paced load.
func (c config) endToEndPlan() plan {
	if c.quick {
		return plan{setups: 1, cycles: 1, pairs: 2, warm: 100 * time.Millisecond, slice: 40 * time.Millisecond, paced: 250 * time.Millisecond}
	}
	const cycles, pairs = 6, 10
	slice := time.Duration(c.seconds * float64(time.Second) / (cycles * (2*pairs + 10)))
	return plan{setups: 3, cycles: cycles, pairs: pairs, warm: time.Second, slice: slice, paced: 10 * slice}
}

// cycle is one cycle's results: its stub slices summed, its sat slices
// summed, and its paced stretch.
type cycle struct {
	stub, sat, paced gen.Result
}

// measurement is what the cycles of one run produced.
type measurement struct {
	wl     gen.Workload
	warm   gen.Result
	cycles []cycle
	// stub, sat and paced are the cycles' phases summed.
	stub, sat, paced gen.Result
}

// measure drives wl through the plan's cycles against the rig behind
// env. The machine this runs on is a small virtual one whose speed
// changes by a tenth to a quarter for seconds or minutes at a time, and
// the stub's bare loopback echo slows down by the same factor in the same
// seconds. So the stub is measured in slices interleaved with the rig's,
// a tenth of a second each, and every rate and time the run reports is
// taken relative to the stub's rate over the same run: over 18-second
// runs the rig's rate alone spread by 7% to 14% and its ratio to the
// stub's by 3% to 7% (results/SPREADS.md).
func measure(c config, wl gen.Workload, env *gen.Env, p plan) (*measurement, error) {
	stub, err := gen.NewStub(c.seed)
	if err != nil {
		return nil, err
	}
	defer stub.Close()
	cal, err := gen.NewRunner(wl, c.env(&stub.Targets, ""), gen.Workers, false, nil)
	if err != nil {
		return nil, err
	}
	defer cal.Close()
	run, err := gen.NewRunner(wl, env, gen.Workers, false, nil)
	if err != nil {
		return nil, err
	}
	defer run.Close()

	ms := &measurement{wl: wl}
	if !c.quick {
		stop, err := keepAwake()
		if err != nil {
			fmt.Println("  the processors could not be kept from halting:", err)
		} else {
			defer stop()
		}
	}
	cal.Closed(p.warm/4, 0)
	ms.warm = run.Closed(p.warm, 0)
	for i := 0; i < p.cycles; i++ {
		var cy cycle
		base := (i + 1) << 24
		for j := 0; j < p.pairs; j++ {
			cy.stub.Add(cal.Closed(p.slice, base+j<<20))
			cy.sat.Add(run.Closed(p.slice, base+j<<20))
		}
		cy.paced = run.Paced(p.paced, base+1<<23)
		ms.cycles = append(ms.cycles, cy)
		ms.stub.Add(cy.stub)
		ms.sat.Add(cy.sat)
		ms.paced.Add(cy.paced)
	}
	return ms, nil
}

func (ms *measurement) restartFailures() int {
	n := 0
	for _, cy := range ms.cycles {
		for _, rs := range cy.paced.Restarts {
			if rs.Err != nil {
				n++
			}
		}
	}
	return n
}

// speed is how fast the machine ran during the run: the stub's rate over
// all its slices as a share of the rate the reference box reaches. Rates
// are divided by it and times multiplied by it, which states them at
// reference-box speed.
func (ms *measurement) speed() float64 {
	if ms.stub.Ops == 0 {
		return 1
	}
	return ms.stub.RPS() / ms.wl.StubRPS
}

// printCycles prints what each cycle measured, unscaled: the figures the
// run's totals are made of.
func (ms *measurement) printCycles() {
	fmt.Println("  cycle  stub op/s   sat op/s  cpu ns/op  paced ops  p50 us  p99 us")
	for i, cy := range ms.cycles {
		l := ms.steady(cy)
		fmt.Printf("  %5d  %9.0f  %9.1f  %9.0f  %9d  %6.1f  %6.1f\n", i+1, cy.stub.RPS(), cy.sat.RPS(),
			float64(cy.sat.CPU)/float64(max(cy.sat.Ops-cy.sat.Failed, 1)), len(l), stats.Quantile(l, 0.50), stats.Quantile(l, 0.99))
	}
}

// windows are the intervals of a cycle's paced stretch that a restart
// disturbs, or, where nothing is restarted, the same intervals read as
// the control.
func windows(cy cycle) []stats.Interval {
	var out []stats.Interval
	for _, rs := range cy.paced.Restarts {
		out = append(out, rs.Window())
	}
	return out
}

// steady is the ascending latencies of the paced operations of a cycle
// that the plain latency figures cover: in a release workload the ones
// due outside the restart windows, elsewhere all of them.
func (ms *measurement) steady(cy cycle) []float64 {
	var keep func(stats.Sample) bool
	if ms.wl.Release {
		w := windows(cy)
		keep = func(s stats.Sample) bool { return !stats.InAny(w, s.Due) }
	}
	return stats.Latencies(cy.paced.Samples, keep)
}

// pooled is the ascending latencies of the steady operations of all
// cycles together, unscaled.
func (ms *measurement) pooled() []float64 {
	var all []float64
	for _, cy := range ms.cycles {
		all = append(all, ms.steady(cy)...)
	}
	sort.Float64s(all)
	return all
}

// windowed is the median over the cycles of each paced stretch's own
// q-quantile of steady operations, at reference speed: one burst from a
// noisy neighbour spoils one stretch's tail and not the run's.
func (ms *measurement) windowed(q float64) float64 {
	var per []float64
	for _, cy := range ms.cycles {
		if l := ms.steady(cy); len(l) > 0 {
			per = append(per, stats.Quantile(l, q))
		}
	}
	return stats.Median(per) * ms.speed()
}

// releaseTail is, per restart, the p99 of operations due inside its
// window; the median over the restarts, at reference speed.
func (ms *measurement) releaseTail() float64 {
	var per []float64
	for _, cy := range ms.cycles {
		if us, n, _ := stats.ReleaseTail(cy.paced.Samples, windows(cy), 0.99); n > 0 {
			per = append(per, us)
		}
	}
	return stats.Median(per) * ms.speed()
}

// endToEnd adds the end-to-end metrics the cycles carry: rates at
// reference speed, counts as they are.
func (ms *measurement) endToEnd(m *stats.Metrics) {
	sat, speed := ms.sat, ms.speed()
	ops := float64(max(sat.Ops-sat.Failed, 1))
	m.Add("sat_rps", sat.RPS()/speed, "1/s")
	m.Add("goodput_mbps", float64(sat.Bytes)/sat.Elapsed.Seconds()/1e6/speed, "MB/s")
	m.Add("allocs_per_op", float64(sat.Mallocs)/ops, "count")
	m.Add("alloc_bytes_per_op", float64(sat.AllocBytes)/ops, "B")
}

// unbounded adds the paced phase's latency figures and the closed loop's
// processor time, at reference speed. They are per-layer metrics and
// carry no bound: on the box this was built on the latencies spread by
// 10% to 60% between runs of the same code whatever the estimator, and
// the processor time by up to 19% (results/SPREADS.md), so they cannot
// gate a change. p50_us and p95_us are taken over all paced operations
// together (http_post_1m has 400 of them in a run, 20 beyond its p95 and
// too few for more); p99_us is the median of the paced stretches' own
// p99s.
func (ms *measurement) unbounded(m *stats.Metrics) {
	all, speed := ms.pooled(), ms.speed()
	m.Add("p50_us", stats.Quantile(all, 0.50)*speed, "us")
	m.Add("p95_us", stats.Quantile(all, 0.95)*speed, "us")
	m.Add("p99_us", ms.windowed(0.99), "us")
	m.Add("release_p99_us", ms.releaseTail(), "us")
	m.Add("cpu_ns_per_op", float64(ms.sat.CPU)/float64(max(ms.sat.Ops-ms.sat.Failed, 1))*speed, "ns")
}

// sloMiss is the share of paced operations that failed or took longer
// than the workload's limit.
func sloMiss(wl gen.Workload, paced gen.Result) float64 {
	miss := 0
	for _, s := range paced.Samples {
		if !s.OK || s.Lat > wl.Limit {
			miss++
		}
	}
	return float64(miss) / float64(max(len(paced.Samples), 1))
}
