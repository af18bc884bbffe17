package fleet

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/obs"
)

// Node is one fleet member under orchestrator control: a restart target
// plus the health surface the gate decides on.
type Node struct {
	// Name identifies the node in the journal, status, and spans.
	Name string
	// VIP names the VIP group the node serves. Conflict fencing never
	// drains two nodes of the same group concurrently (the fleet-level
	// form of the multi-Origin DCR invariant), and concurrent rollouts
	// over overlapping groups are refused. Empty means unfenced.
	VIP string
	// Target is restarted to release the node. During a gated rollout the
	// restart blocks inside the canary window (committed-awaiting-ready)
	// until the orchestrator's verdict resolves it.
	Target core.Restartable
	// Counters snapshots the node's cumulative serving counters (the
	// same shape as a ReleaseReport's CountersBefore/After). The registry
	// must be shared across generations so windows bracket a restart.
	Counters func() map[string]int64
	// Probe issues one synchronous health probe against the node's
	// serving path (Prequal-style: the gate reads probe latency and
	// failures, not raw load). A nil Probe disables the probe channel.
	Probe func() error
	// Window must be installed as the ReadyGate of every proxy
	// generation the target builds; the orchestrator holds canaries open
	// through it. Nil makes the node ungateable (ungated rollouts only).
	Window *CanaryWindow
	// State reports the node's release state machine position
	// (generation, phase) for status pages and crash resume. Typically
	// (*core.ProxySlot).State.
	State func() obs.SlotState
	// Metrics snapshots the node's full metrics registry — counters,
	// gauges, and the mergeable atomic latency histograms the telemetry
	// pipeline aggregates fleet-wide. Nil excludes the node from latency
	// merges and the gate's telemetry channel.
	Metrics func() metrics.RegistrySnapshot
	// Disruption reports the node's disruption ledger. Nil excludes the
	// node from disruption accounting (the gate's disruption-rate channel
	// then abstains for it).
	Disruption func() disrupt.Report
}

// generation returns the node's current generation (0 when unknown).
func (n *Node) generation() int {
	if n.State == nil {
		return 0
	}
	return n.State().Generation
}

// phase returns the node's release phase ("" when unknown).
func (n *Node) phase() string {
	if n.State == nil {
		return ""
	}
	return n.State().Phase
}

// ProxyNode assembles a Node around a core.ProxySlot: counters from the
// slot's shared registry, HTTP probes against addr()+path, and the
// canary window win — the same window the slot's Build closure must
// wire as proxy.Config.ReadyGate on every generation (see
// cmd/zdr-operator for the full pattern). The proxies'
// TakeoverReadyTimeout must exceed win's MaxHold.
func ProxyNode(vip string, slot *core.ProxySlot, reg *metrics.Registry, addr func() string, path string, win *CanaryWindow) *Node {
	// A gate-rejected hand-off must surface to the orchestrator, not be
	// retried by the slot: the retry's Gate call would find the window's
	// one-shot entry already consumed and silently promote the rejected
	// build.
	slot.AbortRetries = -1
	return &Node{
		Name:     slot.SlotName,
		VIP:      vip,
		Target:   slot,
		Counters: func() map[string]int64 { return reg.Snapshot().Counters },
		Probe:    func() error { return HTTPProbe(addr(), path, 2*time.Second) },
		Window:   win,
		State:    slot.State,
		Metrics:  reg.Snapshot,
		// Disruption is left nil: assign the node's ledger Report (e.g.
		// led.Report) when the slot's generations share a disrupt.Ledger.
	}
}

// HTTPProbe issues one GET against addr and classifies the outcome: any
// transport failure or a >= 500 status is a probe failure.
func HTTPProbe(addr, path string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", path, nil, 0)); err != nil {
		return err
	}
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return err
	}
	if _, err := http1.ReadFullBody(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("fleet: probe status %d", resp.StatusCode)
	}
	return nil
}

// requestKeys are the cumulative request counters summed into the gate's
// and the telemetry's request total — the serving paths a proxy node
// exposes.
var requestKeys = []string{
	"edge.http.requests",
	"edge.quic.requests",
	"origin.http.requests",
}

// errorKeys are the cumulative error counters summed into the gate's and
// the telemetry's error total.
var errorKeys = []string{
	"edge.http.errors.no_origin",
	"edge.http.errors.open_stream",
	"edge.http.errors.upstream",
	"origin.http.attempt_errors",
	"origin.http.ppr_exhausted",
}
