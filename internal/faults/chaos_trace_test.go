// Traced-release chaos tests: the release path runs under the obs tracer
// while a deterministic stall is injected into exactly one Fig. 5 step,
// and the resulting span tree is audited — every two-phase takeover phase
// present exactly once per hand-off, in order, with positive durations,
// and the stall attributed to the stalled step alone.
package faults_test

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"zdr/internal/core"
	"zdr/internal/fleet"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// takeoverSteps is the receiver-side phase sequence of one two-phase
// hand-off: steps A–C transfer the sockets, takeover.prepare arms the new
// instance and sends PREPARE-ACK, takeover.commit awaits the sender's
// COMMIT, and steps E–F cover drain confirmation and health-check
// transfer. Fig. 5's step D is the prepare/commit pair; no span carries
// its letter.
var takeoverSteps = []string{
	"takeover.step.A", "takeover.step.B", "takeover.step.C",
	"takeover.prepare", "takeover.commit",
	"takeover.step.E", "takeover.step.F",
}

func TestChaosTracedRollingRestartSpanTree(t *testing.T) {
	const stall = 120 * time.Millisecond
	const stalledStep = "takeover.step.C"

	tracer := obs.NewTracer("chaos")
	tracer.SetSpanStartHook(func(sp *obs.Span) {
		if sp.Name() == stalledStep {
			time.Sleep(stall) // charged to this span: the hook runs inside StartSpan
		}
	})
	tp := buildChaosTopo(t,
		func(cfg *proxy.Config) { cfg.Trace = tracer },
		func(cfg *proxy.Config) { cfg.Trace = tracer },
	)

	nodes := []*fleet.Node{{Name: tp.origin.SlotName, Target: tp.origin}, {Name: tp.edge.SlotName, Target: tp.edge}}
	o, err := fleet.New(fleet.Config{Ungated: true, MaxBatchSize: 1, Trace: tracer}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	tp.origin.WaitDrains()
	tp.edge.WaitDrains()
	rr := core.NewReleaseReport(nil, nil, tracer.Finished())
	if rr == nil {
		t.Fatal("no release report")
	}
	if rr.Failed != 0 {
		t.Fatalf("release failed %d restarts", rr.Failed)
	}

	// The forest has one release root (the receiver-side view, since the
	// receivers' spans join the release trace) plus one sender-rooted
	// takeover.serve trace per hand-off: the sender cannot join a trace
	// that only begins, on the receiver, after the sender's span started.
	var release *obs.SpanNode
	var serves []*obs.SpanNode
	for _, r := range rr.Spans {
		switch r.Name {
		case "rollout":
			release = r
		case "takeover.serve":
			serves = append(serves, r)
		default:
			t.Errorf("unexpected root span %q", r.Name)
		}
	}
	if release == nil {
		t.Fatalf("no release root among %d roots", len(rr.Spans))
	}
	if len(serves) != 2 {
		t.Fatalf("takeover.serve roots = %d, want 2 (origin + edge senders)", len(serves))
	}
	for _, s := range serves {
		names := map[string]int{}
		for _, c := range s.Children {
			names[c.Name]++
			if got := c.Attrs["side"]; got != "sender" {
				t.Errorf("takeover.serve child %s has side=%q, want sender", c.Name, got)
			}
		}
		if names["takeover.prepare"] != 1 || names["takeover.commit"] != 1 {
			t.Errorf("takeover.serve children = %v, want one takeover.prepare and one takeover.commit", names)
		}
	}

	var handoffs []*obs.SpanNode
	obs.Walk(rr.Spans, func(n *obs.SpanNode) {
		if n.EndUnixNano == 0 {
			t.Errorf("span %s never ended", n.Name)
		}
		if n.Duration() <= 0 {
			t.Errorf("span %s has non-positive duration %v", n.Name, n.Duration())
		}
		if n.Error != "" {
			t.Errorf("span %s errored: %s", n.Name, n.Error)
		}
		if n.Name == "takeover.handoff" {
			handoffs = append(handoffs, n)
		}
	})
	if len(handoffs) != 2 {
		t.Fatalf("hand-offs traced = %d, want 2 (origin + edge)", len(handoffs))
	}

	for _, hand := range handoffs {
		inst := hand.Attrs["instance"]
		// Every step exactly once per hand-off.
		count := map[string]int{}
		var steps []*obs.SpanNode
		for _, c := range hand.Children {
			count[c.Name]++
			for _, s := range takeoverSteps {
				if c.Name == s {
					steps = append(steps, c)
				}
			}
		}
		for _, s := range takeoverSteps {
			if count[s] != 1 {
				t.Errorf("%s: step %s appeared %d times, want exactly 1", inst, s, count[s])
			}
		}
		// The confirmation is prepare/commit; nothing records a step D.
		if count["takeover.step.D"] != 0 {
			t.Errorf("%s: one-shot step D appeared %d times on a two-phase hand-off", inst, count["takeover.step.D"])
		}
		// The old generation's drain joins the hand-off trace as a child
		// (its context crossed the takeover socket in the ack frame).
		if count["proxy.drain"] != 1 {
			t.Errorf("%s: old generation's proxy.drain not stitched into the hand-off (children %v)", inst, count)
		}
		// In order A → F by start time (BuildTree sorts children by start).
		for i := 1; i < len(steps); i++ {
			if steps[i].StartUnixNano < steps[i-1].StartUnixNano {
				t.Errorf("%s: %s started before %s", inst, steps[i].Name, steps[i-1].Name)
			}
		}
		// The stall landed on the stalled step and nowhere else.
		for _, s := range steps {
			if s.Name == stalledStep {
				if s.Duration() < stall {
					t.Errorf("%s: %s duration %v, want >= injected stall %v", inst, s.Name, s.Duration(), stall)
				}
			} else if s.Duration() >= stall {
				t.Errorf("%s: stall bled into %s (duration %v)", inst, s.Name, s.Duration())
			}
		}
	}

	// Phase accounting reflects the two hand-offs. takeover.prepare and
	// takeover.commit are recorded on BOTH sides of the socket (receiver
	// and sender views), so they count 4 across the release.
	for _, s := range takeoverSteps {
		want := int64(2)
		if s == "takeover.prepare" || s == "takeover.commit" {
			want = 4
		}
		if got := rr.PhaseCount[s]; got != want {
			t.Errorf("PhaseCount[%s] = %d, want %d", s, got, want)
		}
	}
	if rr.Phase(stalledStep) < 2*stall {
		t.Errorf("Phase(%s) = %v, want >= %v across both hand-offs", stalledStep, rr.Phase(stalledStep), 2*stall)
	}
}

// TestChaosAdminHealthzAcrossTakeover drives the /healthz contract
// through a real Socket Takeover: the serving generation answers 200,
// flips to 503 the moment the hand-off puts it into drain, and the new
// generation answers 200 on its own admin endpoint.
func TestChaosAdminHealthzAcrossTakeover(t *testing.T) {
	tp := buildChaosTopo(t, nil, nil)

	adminFor := func(p *proxy.Proxy) (*obs.AdminServer, string) {
		t.Helper()
		a := &obs.Admin{
			Service:      p.Name(),
			Registry:     p.Metrics(),
			Tracer:       p.Tracer(),
			Draining:     p.Draining,
			ReleaseState: p.ReleaseState,
		}
		srv, err := a.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, srv.Addr()
	}
	healthz := func(addr string) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	oldGen := tp.origin.Current()
	_, oldAdmin := adminFor(oldGen)
	if code := healthz(oldAdmin); code != 200 {
		t.Fatalf("serving generation /healthz = %d, want 200", code)
	}

	if err := tp.origin.Restart(); err != nil {
		t.Fatal(err)
	}
	// The hand-off flipped the old generation into drain before Restart
	// returned (step E confirms it), so its admin endpoint must now 503.
	if code := healthz(oldAdmin); code != 503 {
		t.Fatalf("draining generation /healthz = %d, want 503", code)
	}
	newGen := tp.origin.Current()
	if newGen == oldGen {
		t.Fatal("restart did not replace the generation")
	}
	_, newAdmin := adminFor(newGen)
	if code := healthz(newAdmin); code != 200 {
		t.Fatalf("new generation /healthz = %d, want 200", code)
	}

	// /metrics on the new generation is valid exposition text with the
	// takeover recorded.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", newAdmin))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "zdr_proxy_takeovers 1"; !containsLine(string(body), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, body)
	}
}

func containsLine(body, line string) bool {
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		if body[:i] == line {
			return true
		}
		if i == len(body) {
			break
		}
		body = body[i+1:]
	}
	return false
}
