package fleet

import (
	"strings"
	"testing"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/metrics"
	"zdr/internal/obs"
)

// fakeTelemetryNode builds a Node backed by an in-memory registry and
// ledger — no sockets, just the scrape surface.
func fakeTelemetryNode(name string, requests, errors int64, lat []float64, causes map[string]int64) *Node {
	reg := metrics.NewRegistry()
	reg.Counter("edge.http.requests").Add(requests)
	reg.Counter("edge.http.errors.no_origin").Add(errors)
	h := reg.AtomicHistogram("edge.http.latency")
	for _, v := range lat {
		h.Observe(v)
	}
	led := disrupt.New(name, 64)
	led.SetPhase("serving", 1)
	for cause, n := range causes {
		for i := int64(0); i < n; i++ {
			led.Record(disrupt.KindReset, 0, "web", cause, "")
		}
	}
	return &Node{
		Name:       name,
		state:      func() obs.SlotState { return obs.SlotState{Name: name, Generation: 1, Phase: "serving"} },
		metrics:    reg.Snapshot,
		Disruption: led.Report,
	}
}

func TestTelemetryScrapeMergesFleet(t *testing.T) {
	nodes := []*Node{
		fakeTelemetryNode("n1", 1000, 3, []float64{0.001, 0.001, 0.002}, map[string]int64{"edge:no-origin": 3}),
		fakeTelemetryNode("n2", 500, 0, []float64{0.004, 0.008}, map[string]int64{"dcr:stream-lost": 2}),
		{Name: "n3"}, // no telemetry surface at all
	}
	tele := &Telemetry{Nodes: nodes}
	rep := tele.Scrape()

	if rep.TotalNodes != 3 || rep.ScrapedNodes != 2 {
		t.Fatalf("coverage %d/%d, want 2/3", rep.ScrapedNodes, rep.TotalNodes)
	}
	if rep.Requests != 1500 || rep.Errors != 3 {
		t.Fatalf("requests/errors = %d/%d", rep.Requests, rep.Errors)
	}
	if rep.Latency.Count != 5 {
		t.Fatalf("merged latency count = %d, want 5", rep.Latency.Count)
	}
	// Quantiles are bucket-interpolated: the p99 lands inside the bucket
	// holding the 0.008 sample, i.e. (0.0064, 0.0128].
	if rep.LatencyP99 <= rep.LatencyP50 || rep.LatencyP99 > 0.0128 {
		t.Fatalf("quantiles p50=%v p99=%v", rep.LatencyP50, rep.LatencyP99)
	}
	if rep.Disruption.Terminal != 5 || rep.Disruption.Unattributed != 0 {
		t.Fatalf("merged disruption: %+v", rep.Disruption)
	}
	if got := rep.DisruptionRate; got != float64(5)/1500 {
		t.Fatalf("disruption rate = %v", got)
	}
	// Cells keep per-node identity; CausePhase collapses to (cause, phase).
	byNode := map[string]bool{}
	for _, c := range rep.Disruption.Cells {
		byNode[c.Node] = true
	}
	if !byNode["n1"] || !byNode["n2"] {
		t.Fatalf("merged cells lost node identity: %+v", rep.Disruption.Cells)
	}
	if len(rep.CausePhase) != 2 {
		t.Fatalf("cause-phase cells: %+v", rep.CausePhase)
	}
	// The unscraped node is present in the rows but contributes nothing.
	var n3 nodeTelemetry
	for _, nt := range rep.Nodes {
		if nt.Node == "n3" {
			n3 = nt
		}
	}
	if n3.Scraped {
		t.Fatal("surface-less node reported as scraped")
	}
}

// TestTelemetryControlPartition: a partitioned control plane loses every
// scrape — coverage degrades to zero, nothing is invented.
func TestTelemetryControlPartition(t *testing.T) {
	in := faults.NewInjector(faults.Scenario{Seed: 1})
	in.SetPartitioned(true)
	tele := &Telemetry{
		Nodes:   []*Node{fakeTelemetryNode("n1", 100, 0, []float64{0.001}, nil)},
		control: in,
	}
	rep := tele.Scrape()
	if rep.ScrapedNodes != 0 || rep.Requests != 0 || rep.Latency.Count != 0 {
		t.Fatalf("partitioned scrape invented data: %+v", rep)
	}
	if len(rep.Nodes) != 1 || rep.Nodes[0].Scraped {
		t.Fatalf("node rows: %+v", rep.Nodes)
	}
	if in.Injected(faults.OpDropRPC) == 0 {
		t.Fatal("partition never dropped a scrape RPC")
	}
}

func TestTelemetryWindowBetween(t *testing.T) {
	mk := func(req int64, terminal int64, lat []float64) nodeTelemetry {
		nt := nodeTelemetry{Scraped: true, Requests: req}
		nt.Disruption.Terminal = terminal
		h := metrics.NewAtomicHistogram(nil)
		for _, v := range lat {
			h.Observe(v)
		}
		nt.Latency = h.Snapshot()
		return nt
	}
	before := mk(100, 1, []float64{0.001, 0.001})
	after := mk(300, 6, []float64{0.001, 0.001, 0.050, 0.050, 0.050})
	w := telemetryWindowBetween(before, after)
	if !w.Scraped || w.Requests != 200 || w.Terminal != 5 {
		t.Fatalf("window = %+v", w)
	}
	if w.disruptionRate() != float64(5)/200 {
		t.Fatalf("rate = %v", w.disruptionRate())
	}
	// The windowed p99 reflects only the new (slow) samples, while the
	// baseline p99 is the cumulative pre-window distribution.
	if w.P99 < 0.02 || w.BaselineP99 > 0.01 {
		t.Fatalf("p99=%v baseline=%v", w.P99, w.BaselineP99)
	}
	// A lost bracketing scrape abstains instead of guessing.
	if w := telemetryWindowBetween(nodeTelemetry{}, after); w.Scraped {
		t.Fatalf("half-scraped window conclusive: %+v", w)
	}
	// Restarted counters clamp to zero rather than going negative.
	if w := telemetryWindowBetween(after, before); w.Requests != 0 || w.Terminal != 0 {
		t.Fatalf("negative delta not clamped: %+v", w)
	}
}

// TestEvalNodeDisruptionRate: the telemetry channel rolls back on a
// windowed ledger disruption rate the HTTP counters never saw (e.g.
// connection resets with clean 200s).
func TestEvalNodeDisruptionRate(t *testing.T) {
	g := GateConfig{MaxDisruptionRate: 0.02}
	clean := telemetryWindow{Scraped: true, Requests: 1000, Terminal: 10} // 1%
	v := evalNode(g, "n1", delta(100, 0, 100, 0), probeWindow{Sent: 5}, clean)
	if v.Decision != promote {
		t.Fatalf("1%% disruption under 2%% bound: %s (%s)", v.Decision, v.Reason)
	}
	dirty := telemetryWindow{Scraped: true, Requests: 1000, Terminal: 100} // 10%
	v = evalNode(g, "n1", delta(100, 0, 100, 0), probeWindow{Sent: 5}, dirty)
	if v.Decision != rollback {
		t.Fatalf("10%% disruption: %s", v.Decision)
	}
	if !strings.Contains(v.Reason, "disruption rate") {
		t.Fatalf("reason %q does not name the channel", v.Reason)
	}
	// Zero bound disables the channel entirely.
	v = evalNode(GateConfig{}, "n1", delta(100, 0, 100, 0), probeWindow{Sent: 5}, dirty)
	if v.Decision != promote {
		t.Fatalf("disabled channel gated: %s (%s)", v.Decision, v.Reason)
	}
}

// TestEvalNodeTelemetryLatency: the data-plane histogram p99 shares
// maxP99Factor with the probe channel.
func TestEvalNodeTelemetryLatency(t *testing.T) {
	g := GateConfig{maxP99Factor: 3}
	ok := telemetryWindow{Scraped: true, Requests: 500, P99: 0.002, BaselineP99: 0.001}
	v := evalNode(g, "n1", delta(100, 0, 100, 0), probeWindow{Sent: 5}, ok)
	if v.Decision != promote {
		t.Fatalf("2x data-plane p99 under 3x factor: %s (%s)", v.Decision, v.Reason)
	}
	slow := telemetryWindow{Scraped: true, Requests: 500, P99: 0.010, BaselineP99: 0.001}
	v = evalNode(g, "n1", delta(100, 0, 100, 0), probeWindow{Sent: 5}, slow)
	if v.Decision != rollback {
		t.Fatalf("10x data-plane p99: %s", v.Decision)
	}
}

// TestEvalNodeTelemetryRescuesInconclusive: a scraped window with
// traffic is a conclusive health channel even when counters and probes
// are both silent.
func TestEvalNodeTelemetryRescuesInconclusive(t *testing.T) {
	silentCounters := delta(1000, 5, 0, 0)
	tel := telemetryWindow{Scraped: true, Requests: 50}
	v := evalNode(GateConfig{MaxDisruptionRate: 0.05}, "n1", silentCounters, probeWindow{}, tel)
	if v.Decision != promote {
		t.Fatalf("clean telemetry did not rescue: %s (%s)", v.Decision, v.Reason)
	}
	// All three channels silent still pauses.
	v = evalNode(GateConfig{}, "n1", silentCounters, probeWindow{}, telemetryWindow{})
	if v.Decision != pause {
		t.Fatalf("fully silent node: %s, want pause", v.Decision)
	}
}

func TestBatchTelemetryWorstNodeTail(t *testing.T) {
	bt := batchTelemetry(2, []string{"a", "b", "c"}, []telemetryWindow{
		{Scraped: true, Requests: 100, Terminal: 1, P99: 0.002, BaselineP99: 0.001},
		{Scraped: true, Requests: 300, Terminal: 5, P99: 0.040, BaselineP99: 0.002},
		{}, // lost scrape
	})
	if bt.Batch != 2 || bt.ScrapedNodes != 2 {
		t.Fatalf("batch roll-up: %+v", bt)
	}
	if bt.Requests != 400 || bt.Terminal != 6 {
		t.Fatalf("totals: %+v", bt)
	}
	if bt.P99 != 0.040 || bt.BaselineP99 != 0.002 {
		t.Fatalf("tail must be the worst node's: %+v", bt)
	}
	if bt.DisruptionRate != float64(6)/400 {
		t.Fatalf("rate = %v", bt.DisruptionRate)
	}
}
