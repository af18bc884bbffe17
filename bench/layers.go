package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"zdr/bench/gen"
	"zdr/bench/probe"
	"zdr/bench/rig"
	"zdr/bench/stats"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// layersPlan splits the measured seconds of a per-layer run: a counted
// run of the workload as the end-to-end run drives it (in half the cycles),
// one-worker runs with tracing off and on, the direct (proxy-less)
// variants, the library probes and the generator against its stub.
type layersPlan struct {
	counted              plan
	solo, traced, direct time.Duration
	stub, probe          time.Duration
	relayBytes           int64
}

func (c config) layersPlan() layersPlan {
	if c.quick {
		p := c.endToEndPlan()
		return layersPlan{counted: p,
			solo: 100 * time.Millisecond, traced: 300 * time.Millisecond, direct: 50 * time.Millisecond,
			stub: 100 * time.Millisecond, probe: 2 * time.Millisecond, relayBytes: 1 << 20}
	}
	s := time.Duration(c.seconds * float64(time.Second))
	p := c.endToEndPlan()
	p.setups, p.cycles, p.warm = 1, 3, time.Second/2
	return layersPlan{counted: p,
		solo: s / 12, traced: s / 6, direct: s / 60,
		stub: s / 12, probe: s / 360, relayBytes: 8 << 20}
}

// watchGoroutines samples the goroutine count until stop is called and
// returns the peak.
func watchGoroutines() (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is after[name] - before[name] summed over names.
func delta(before, after map[string]int64, names ...string) float64 {
	var d int64
	for _, n := range names {
		d += after[n] - before[n]
	}
	return float64(d)
}

// prefixDelta sums the growth of every counter whose name has the
// prefix.
func prefixDelta(before, after map[string]int64, prefix string) float64 {
	var d int64
	for n, v := range after {
		if strings.HasPrefix(n, prefix) {
			d += v - before[n]
		}
	}
	return float64(d)
}

// soloMean is the mean latency of one worker driving wl in a closed
// loop: every operation is then a serial chain, so means add.
func soloMean(wl gen.Workload, env *gen.Env, dur time.Duration, direct bool) (time.Duration, gen.Result, error) {
	run, err := gen.NewRunner(wl, env, 1, direct, nil)
	if err != nil {
		return 0, gen.Result{}, err
	}
	defer run.Close()
	res := run.Closed(dur, 3<<24)
	return res.MeanLat(), res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// calls is how many times one operation calls what a probe times.
type calls struct {
	probe string
	n     float64
}

// smallRequest is the library path of one GET /dyn/64 on a connection
// that takes perConn requests (0: keep-alive for ever).
func smallRequest(perConn float64) []calls {
	c := []calls{{"http1.read_request_ns", 2}, {"http1.read_response_ns", 1}, {"http1.write_response_ns", 2},
		{"h2t.stream_rtt_ns", 1}, {"bufpool.getput_ns", 1}, {"metrics.counter_by_name_ns", 6},
		{"metrics.observe_ns", 3}, {"obs.nil_span_ns", 3}}
	if perConn > 0 {
		c = append(c, calls{"katran.steer_ns", 1 / perConn}, calls{"disrupt.record_ns", 1 / perConn})
	}
	return c
}

// callsPerOp is bench/PATHS.md's multiplicity table, read off the code
// path at the seed commit. Per-MiB probes are counted in MiB.
var callsPerOp = map[string][]calls{
	"http_small":   smallRequest(0),
	"http_release": smallRequest(8),
	"http_post_1m": append(smallRequest(0), calls{"bufpool.copy_ns_per_mib", 2}, calls{"http1.chunked_ns_per_mib", 0.5}),
	"mqtt_pubsub": {{"h2t.frame_ns", 1}, {"mqtt.decode_ns", 1}, {"mqtt.encode_ns", 2}, {"bufpool.getput_ns", 1},
		{"metrics.counter_by_name_ns", 2}},
	"quic_steered": {{"katran.steer_ns", 1.0625}, {"quicx.codec_ns", 1}, {"bufpool.getput_ns", 1},
		{"metrics.counter_by_name_ns", 3.125}, {"metrics.observe_ns", 1}},
}

// printLibraryBudget prints probe cost times calls per operation: the
// part of an operation's time the timed library calls account for.
func printLibraryBudget(wl string, m stats.Metrics) {
	var total float64
	fmt.Println("  library budget (probe cost x calls per operation, bench/PATHS.md):")
	for _, c := range callsPerOp[wl] {
		ns, _ := m.Get(c.probe)
		total += ns * c.n
		fmt.Printf("    %-30s %10.1f ns x %-6.4g = %9.2f us\n", c.probe, ns, c.n, ns*c.n/1e3)
	}
	fmt.Printf("    %-30s %33.2f us\n", "sum", total/1e3)
}

// runLayers is the traced run: it produces every per-layer metric for
// one workload. End-to-end metrics are never taken from it.
func runLayers(c config, wl gen.Workload) (*report, error) {
	p := c.layersPlan()
	leaks := newLeakCheck()
	rep := &report{Workload: wl.Name, Trace: 1}
	m := &rep.Metrics
	book := func(rs ...gen.Result) {
		for _, r := range rs {
			rep.Attempted += r.Ops
			rep.Failed += r.Failed
			if r.Failed > 0 {
				fmt.Printf("  %d of %d operations failed (first: %s)\n", r.Failed, r.Ops, r.FirstErr)
			}
		}
	}
	fmt.Printf("%s  seed %d  per-layer run\n", wl.Name, c.seed)

	// Counted run: the workload as the end-to-end run drives it, with the
	// program's exported counters read before and after.
	r, env, _, err := setUp(c, 1)
	if err != nil {
		return nil, err
	}
	before, relay0, ledger0 := r.ReadCounters(), netx.ReadRelayStats(), r.LedgerKinds()
	stopWatch := watchGoroutines()
	ms, err := measure(c, wl, env, p.counted)
	goroutines := stopWatch()
	if err != nil {
		teardown(r)
		return nil, err
	}
	after, relay1, ledger1 := r.ReadCounters(), netx.ReadRelayStats(), r.LedgerKinds()
	warm := ms.warm
	sat, paced := ms.sat, ms.paced
	book(warm, sat, paced)
	rep.Failed += ms.restartFailures()
	ops := float64(warm.Ops + sat.Ops + paced.Ops)
	satOps := float64(max(sat.Ops, 1))
	measured := (sat.Elapsed + paced.Elapsed).Seconds()

	// One worker, tracing off: the reference the traced run's overhead is
	// taken against, and the direct variants of the two protocols whose
	// path through the proxies carries no per-operation span.
	untraced, soloRes, err := soloMean(wl, env, p.solo, false)
	if err != nil {
		teardown(r)
		return nil, err
	}
	book(soloRes)
	mqttWL, _ := gen.ByName("mqtt_pubsub")
	quicWL, _ := gen.ByName("quic_steered")
	var viaProxies, atBroker, atEdge time.Duration
	for _, d := range []struct {
		wl     gen.Workload
		direct bool
		mean   *time.Duration
	}{{mqttWL, false, &viaProxies}, {mqttWL, true, &atBroker}, {quicWL, true, &atEdge}} {
		mean, res, err := soloMean(d.wl, env, p.direct, d.direct)
		if err != nil {
			teardown(r)
			return nil, err
		}
		book(res)
		*d.mean = mean
	}
	downMs, hung := teardown(r)
	rep.Hung = hung

	// Traced run: the rig rebuilt with the tracer knob every daemon
	// already has, one worker, the generator's own "op" span sent along.
	tr, err := rig.Build(rig.Options{Seed: c.seed, Dir: c.outDir(), Traced: true})
	if err != nil {
		return nil, err
	}
	tracer := obs.NewTracer("gen")
	tracer.SetFinishedCap(1 << 21)
	tenv := c.env(&tr.Targets, tr.BrokerAddr)
	trun, err := gen.NewRunner(wl, tenv, 1, false, tracer)
	if err != nil {
		teardown(tr)
		return nil, err
	}
	var restarts sync.WaitGroup
	if wl.Release {
		root := tracer.StartSpan("release", obs.SpanContext{})
		trun.RestartTrace = root
		restarts.Add(1)
		go func() {
			defer restarts.Done()
			defer root.End()
			for _, rs := range trun.Restarts(time.Now(), p.traced) {
				if rs.Err != nil {
					fmt.Printf("  traced restart of %s failed: %v\n", rs.Slot, rs.Err)
					rep.Failed++
				}
			}
		}()
	}
	tracedRes := trun.Closed(p.traced, 4<<24)
	restarts.Wait()
	trun.Close()
	book(tracedRes)
	if _, h := teardown(tr); h {
		rep.Hung = true
	}
	probeRoot := tracer.StartSpan("probe", obs.SpanContext{})
	in := probe.Inputs{Seed: c.seed, Content: r.Content, Edges: r.Edges, Method: "GET", Target: "/dyn/64",
		Budget: p.probe, RelayBytes: p.relayBytes, Trace: probeRoot}
	switch wl.Name {
	case "http_post_1m":
		in.Method, in.Target, in.BodyLen = "POST", "/echo", rig.PostSize
	case "quic_steered":
		in.QuicFlows = gen.QuicResident
	}
	probes, err := probe.Run(in)
	probeRoot.End()
	netx.DrainPipePool() // the splice probe's pooled pipes would read as leaked descriptors
	if err != nil {
		return nil, err
	}
	spans, dropped := tr.Spans()
	spans = append(spans, tracer.Finished()...)
	dropped += tracer.Dropped()
	if err := writeSpans(fmt.Sprintf("%s/trace-%s.json", c.outDir(), wl.Name), spans); err != nil {
		return nil, err
	}
	b := analyse(spans)
	if dropped > 0 {
		fmt.Printf("  %d spans were dropped from the tracers' rings: the trace is incomplete\n", dropped)
		rep.Failed++
	}

	// The generator against its stub: its own cost and ceiling.
	stub, err := gen.NewStub(c.seed)
	if err != nil {
		return nil, err
	}
	srun, err := gen.NewRunner(wl, c.env(&stub.Targets, ""), gen.Workers, false, nil)
	if err != nil {
		stub.Close()
		return nil, err
	}
	srun.Closed(p.stub/4, 0)
	stubRes := srun.Closed(p.stub, 1<<24)
	srun.Close()
	stub.Close()
	book(stubRes)
	stubOps := float64(max(stubRes.Ops, 1))
	fds, leakedGoroutines := leaks.leaked()

	var restartMs []float64
	if wl.Release {
		for _, rs := range paced.Restarts {
			restartMs = append(restartMs, float64(rs.Returned-rs.Called)/float64(time.Millisecond))
		}
	}

	// gen: the benchmark's own generator.
	m.Add("gen.late_frac", ratio(float64(paced.Late), float64(paced.Ops)), "frac")
	m.Add("gen.max_rps", stubRes.RPS(), "1/s")
	m.Add("gen.ns_per_op", float64(stubRes.CPU)/stubOps, "ns")
	m.Add("gen.allocs_per_op", float64(stubRes.Mallocs)/stubOps, "count")
	m.Add("gen.client_self_us", b.selfUs("op"), "us")
	ms.unbounded(m)
	m.Add("gen.failed_frac", ratio(float64(warm.Failed+sat.Failed+paced.Failed), float64(warm.Ops+sat.Ops+paced.Ops)), "frac")
	m.Add("gen.slo_miss_frac", sloMiss(wl, paced), "frac")
	fmt.Printf("  gen.max_rps is %.2f times the counted run's sat rate %.0f/s", ratio(stubRes.RPS(), sat.RPS()), sat.RPS())
	if ratio(stubRes.RPS(), sat.RPS()) < 1.5 {
		fmt.Print(": the generator bounds sat_rps on this workload")
	}
	fmt.Println()

	// katran: the generator-side steering LB.
	lb := func(name string) float64 { return delta(before.LB, after.LB, "katran.steer."+name) }
	lbSteers := lb("cache_hit") + lb("flowtable_hit") + lb("policy_pick")
	m.Add("katran.steers_per_op", ratio(lbSteers, ops), "count")
	m.Add("katran.cache_hit_ratio", ratio(lb("cache_hit"), lbSteers), "frac")
	m.Add("katran.flowtable_hit_ratio", ratio(lb("flowtable_hit"), lbSteers), "frac")
	m.Add("katran.policy_pick_ratio", ratio(lb("policy_pick"), lbSteers), "frac")
	*m = append(*m, probes...)

	// netx, as the run used it.
	spliced, copied := float64(relay1.SpliceBytes-relay0.SpliceBytes), float64(relay1.CopyBytes-relay0.CopyBytes)
	m.Add("netx.splice_byte_share", ratio(spliced, spliced+copied), "frac")
	m.Add("netx.splice_fallbacks", float64(relay1.SpliceFallbacks-relay0.SpliceFallbacks), "count")
	edge := func(names ...string) float64 { return delta(before.Edge, after.Edge, names...) }
	origin := func(names ...string) float64 { return delta(before.Origin, after.Origin, names...) }
	m.Add("netx.recvmmsg_pkts_per_call", ratio(edge("quicx.batch.recvmmsg_pkts"), edge("quicx.batch.recvmmsg_calls")), "count")
	m.Add("netx.sendmmsg_pkts_per_flush", ratio(edge("quicx.batch.sendmmsg_pkts"), edge("quicx.batch.sendmmsg_flushes")), "count")

	// mqtt and quicx, direct and through the proxies.
	m.Add("mqtt.broker_rtt_us", us(atBroker), "us")
	m.Add("mqtt.delivered_per_publish", ratio(delta(before.Broker, after.Broker, "mqtt.publish.delivered"), delta(before.Broker, after.Broker, "mqtt.publish.received")), "count")
	m.Add("quicx.server_rtt_us", us(atEdge), "us")
	m.Add("quicx.forwarded", edge("quicx.forwarded"), "count")
	m.Add("quicx.misrouted", edge("quicx.misrouted"), "count")

	// appserver and proxy: stage self times from the spans, counters
	// from the counted run.
	m.Add("appserver.self_us", b.selfUs("appserver.request"), "us")
	m.Add("appserver.requests_per_op", ratio(delta(before.App, after.App, "appserver.requests"), ops), "count")
	m.Add("proxy.edge.self_us", b.selfUs("edge.http"), "us")
	m.Add("proxy.origin.self_us", b.selfUs("origin.http", "ppr.replay"), "us")
	m.Add("proxy.relay_self_us", us(viaProxies-atBroker), "us")
	m.Add("proxy.edge.tunnel_dials", edge("edge.tunnel.dials"), "count")
	m.Add("proxy.edge.errors", prefixDelta(before.Edge, after.Edge, "edge.http.errors."), "count")
	m.Add("proxy.origin.ppr_replays", origin("origin.http.ppr_replays"), "count")
	m.Add("proxy.origin.attempt_errors", origin("origin.http.attempt_errors"), "count")
	hist := after.EdgeHTTPLatency.Sub(before.EdgeHTTPLatency)
	m.Add("proxy.edge.hist_p50_us", hist.Quantile(0.5)*1e6, "us")
	m.Add("proxy.teardown_ms", downMs, "ms")
	hungFlag := 0.0
	if rep.Hung {
		hungFlag = 1
	}
	m.Add("proxy.teardown_hung", hungFlag, "count")

	// core, takeover, disrupt: the release path.
	m.Add("core.restart_ms", stats.Median(restartMs), "ms")
	m.Add("core.restart_failures", float64(ms.restartFailures()), "count")
	m.Add("takeover.handoff_ms", b.medianMs(obs.SpanTakeoverHandoff), "ms")
	m.Add("takeover.fds_passed", stats.Median(b.fdsPassed), "count")
	m.Add("proxy.drain_ms", b.medianMs(obs.SpanProxyDrain), "ms")
	m.Add("proxy.drain_undos", edge("proxy.drain_undos")+origin("proxy.drain_undos"), "count")
	m.Add("proxy.release_p99_ratio", ratio(ms.releaseTail(), ms.windowed(0.99)), "ratio")
	m.Add("disrupt.resets", delta(ledger0, ledger1, "reset"), "count")
	m.Add("disrupt.timeouts", delta(ledger0, ledger1, "timeout"), "count")
	m.Add("disrupt.retries", delta(ledger0, ledger1, "retry"), "count")

	// obs: what the traced run cost and how well its stages add up.
	m.Add("obs.trace_overhead_frac", ratio(float64(tracedRes.MeanLat()), float64(untraced))-1, "frac")
	m.Add("trace.residual_frac", b.residual(), "frac")

	// runtime: the whole process during the counted run.
	m.Add("runtime.gc_cycles_per_s", float64(sat.GCCycles+paced.GCCycles)/measured, "1/s")
	m.Add("runtime.gc_pause_us_per_s", us(sat.GCPause+paced.GCPause)/measured, "us/s")
	m.Add("runtime.goroutines_peak", float64(goroutines), "count")
	m.Add("runtime.ctx_switches_per_op", float64(sat.CtxSwitches)/satOps, "count")
	m.Add("runtime.syscr_per_op", float64(sat.SysReads)/satOps, "count")
	m.Add("runtime.syscw_per_op", float64(sat.SysWrites)/satOps, "count")
	m.Add("runtime.fd_leak", float64(fds), "count")
	m.Add("runtime.goroutine_leak", float64(leakedGoroutines), "count")

	// The stage budget, for a reader: where one operation's time went.
	fmt.Printf("  stage budget over %d traced operations (mean %.1f us; one untraced worker: %.1f us):\n", b.ops, ratio(us(b.opTotal), float64(b.ops)), us(untraced))
	for _, stage := range [][2]string{{"gen/client", "op"}, {"edge", "edge.http"}, {"origin", "origin.http"}, {"app server", "appserver.request"}} {
		fmt.Printf("    %-11s %9.1f us\n", stage[0], b.selfUs(stage[1]))
	}
	fmt.Printf("    spans ran on for %.1f us per operation after their parents had finished (not counted above); trace.residual_frac %.4f\n",
		ratio(us(b.overhang), float64(b.ops)), b.residual())
	printLibraryBudget(wl.Name, *m)
	fmt.Printf("    mqtt: via proxies %.1f us, at the broker %.1f us; quic: at one edge, unsteered %.1f us\n", us(viaProxies), us(atBroker), us(atEdge))
	return rep, nil
}
