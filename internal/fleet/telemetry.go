// Telemetry pipeline: the operator-side scrape-and-merge layer over the
// per-node observability surfaces (metrics registries with mergeable
// atomic histograms, disruption ledgers). It answers the fleet-wide
// questions the paper's §6 evaluation asks — what is the live disruption
// rate, what does the latency tail look like, and exactly which (cause,
// phase) cells the failures land in — from per-node data merged
// bucket-wise and cell-wise, never from re-sampled approximations.
package fleet

import (
	"sort"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/metrics"
)

// latencyKeys are the request-boundary atomic histograms merged into the
// fleet latency distribution. edge.tunnel.latency is excluded
// deliberately: it is a sub-span of edge.http.latency and would double
// count every tunneled request.
var latencyKeys = []string{
	"edge.http.latency",
	"edge.quic.latency",
	"origin.http.latency",
}

// NodeTelemetry is one node's scrape: request/error totals, the node's
// merged latency distribution, and its disruption report. Scraped is
// false when the scrape RPC was dropped by a faulted control plane or
// the node exposes no telemetry surface — merged reports then degrade
// to partial coverage instead of inventing zeros.
type NodeTelemetry struct {
	Node       string                 `json:"node"`
	Generation int                    `json:"generation,omitempty"`
	Phase      string                 `json:"phase,omitempty"`
	Scraped    bool                   `json:"scraped"`
	Requests   int64                  `json:"requests"`
	Errors     int64                  `json:"errors"`
	Latency    metrics.AtomicSnapshot `json:"latency"`
	Disruption disrupt.Report         `json:"disruption"`
}

// TelemetryReport is the fleet-merged view: per-node rows plus the
// cross-node aggregation — bucket-wise histogram merge, cell-wise ledger
// merge, and the derived headline numbers (disruption rate, latency
// quantiles). CausePhase is the §6-table shape: terminal failures
// collapsed to (cause, phase) cells.
type TelemetryReport struct {
	Nodes        []NodeTelemetry        `json:"nodes,omitempty"`
	TotalNodes   int                    `json:"total_nodes"`
	ScrapedNodes int                    `json:"scraped_nodes"`
	Requests     int64                  `json:"requests"`
	Errors       int64                  `json:"errors"`
	Latency      metrics.AtomicSnapshot `json:"latency"`
	LatencyP50   float64                `json:"latency_p50_s"`
	LatencyP99   float64                `json:"latency_p99_s"`
	LatencyP999  float64                `json:"latency_p999_s"`
	Disruption   disrupt.Report         `json:"disruption"`
	// DisruptionRate is terminal ledger events / requests (0 with no
	// requests).
	DisruptionRate float64        `json:"disruption_rate"`
	CausePhase     []disrupt.Cell `json:"cause_phase,omitempty"`
}

// Telemetry scrapes a node set and merges the results fleet-wide. The
// zero value over Nodes is usable; cmd/zdr-operator serves Scrape() at
// /debug/telemetry.
type Telemetry struct {
	// Nodes is the scrape set.
	Nodes []*Node
	// Control, when non-nil, injects faults into the scrape RPCs — the
	// telemetry plane rides the same lossy operator↔node channel as the
	// rollout control plane, and a partition degrades coverage
	// (ScrapedNodes < TotalNodes), never invents data.
	Control *faults.Injector
}

// Scrape reads every node and merges the fleet report.
func (t *Telemetry) Scrape() TelemetryReport {
	rep := TelemetryReport{TotalNodes: len(t.Nodes)}
	for _, n := range t.Nodes {
		nt := NodeTelemetry{Node: n.Name}
		if err := t.Control.RPC("scrape " + n.Name); err == nil {
			nt = scrapeNode(n)
		} else if n.State != nil {
			s := n.State()
			nt.Generation, nt.Phase = s.Generation, s.Phase
		}
		rep.Nodes = append(rep.Nodes, nt)
		if !nt.Scraped {
			continue
		}
		rep.ScrapedNodes++
		rep.Requests += nt.Requests
		rep.Errors += nt.Errors
		rep.Latency.Merge(nt.Latency)
		rep.Disruption = rep.Disruption.Merge(nt.Disruption)
	}
	rep.LatencyP50 = rep.Latency.Quantile(0.50)
	rep.LatencyP99 = rep.Latency.Quantile(0.99)
	rep.LatencyP999 = rep.Latency.Quantile(0.999)
	rep.DisruptionRate = rate(rep.Disruption.Terminal, rep.Requests)
	rep.CausePhase = rep.Disruption.CausePhaseTotals()
	return rep
}

// scrapeNode reads one node's telemetry surface directly. Control-plane
// faults are the caller's concern: callers pass the RPC first, so a
// partitioned control plane loses the scrape (the telemetry channel
// abstains) rather than fabricating a clean window. A node exposing
// neither Metrics nor Disruption is reported unscraped.
func scrapeNode(n *Node) NodeTelemetry {
	nt := NodeTelemetry{Node: n.Name}
	if n.State != nil {
		s := n.State()
		nt.Generation, nt.Phase = s.Generation, s.Phase
	}
	if n.Metrics == nil && n.Disruption == nil {
		return nt
	}
	nt.Scraped = true
	if n.Metrics != nil {
		snap := n.Metrics()
		for _, k := range requestKeys {
			nt.Requests += snap.Counters[k]
		}
		for _, k := range errorKeys {
			nt.Errors += snap.Counters[k]
		}
		for _, k := range latencyKeys {
			if s, ok := snap.AtomicHistograms[k]; ok {
				nt.Latency.Merge(s)
			}
		}
	}
	if n.Disruption != nil {
		nt.Disruption = n.Disruption()
		// The ring tail is a per-node debugging aid, not fleet accounting.
		nt.Disruption.Recent = nil
	}
	return nt
}

// TelemetryWindow is the windowed node-local telemetry the health gate's
// third channel judges: ledger disruption and data-plane latency deltas
// across the canary observation window, against the node's own
// pre-release history. Scraped is false when either bracketing scrape
// was lost — the channel then abstains.
type TelemetryWindow struct {
	Scraped      bool  `json:"scraped"`
	Requests     int64 `json:"requests"`
	Terminal     int64 `json:"terminal"`
	Unattributed int64 `json:"unattributed"`
	// P99 is the windowed data-plane p99 (seconds) from the node's own
	// atomic histograms; BaselineP99 is the cumulative pre-restart p99.
	P99         float64 `json:"p99_s"`
	BaselineP99 float64 `json:"baseline_p99_s"`
}

// DisruptionRate is terminal window events / window requests (0 with no
// requests).
func (w TelemetryWindow) DisruptionRate() float64 {
	return rate(w.Terminal, w.Requests)
}

// telemetryWindowBetween computes the observation-window deltas from two
// scrapes of the same node. Negative deltas (restarted counters, racing
// snapshots) clamp to zero.
func telemetryWindowBetween(before, after NodeTelemetry) TelemetryWindow {
	if !before.Scraped || !after.Scraped {
		return TelemetryWindow{}
	}
	w := TelemetryWindow{
		Scraped:      true,
		Requests:     clamp0(after.Requests - before.Requests),
		Terminal:     clamp0(after.Disruption.Terminal - before.Disruption.Terminal),
		Unattributed: clamp0(after.Disruption.Unattributed - before.Disruption.Unattributed),
		BaselineP99:  before.Latency.Quantile(0.99),
	}
	w.P99 = after.Latency.Sub(before.Latency).Quantile(0.99)
	return w
}

// BatchTelemetry is the live per-batch roll-up surfaced in Status while
// a rollout runs: the batch's windowed request/disruption totals and the
// merged canary-window latency tail.
type BatchTelemetry struct {
	Batch          int      `json:"batch"`
	Nodes          []string `json:"nodes,omitempty"`
	ScrapedNodes   int      `json:"scraped_nodes"`
	Requests       int64    `json:"requests"`
	Terminal       int64    `json:"terminal"`
	Unattributed   int64    `json:"unattributed"`
	DisruptionRate float64  `json:"disruption_rate"`
	P99            float64  `json:"p99_s"`
	BaselineP99    float64  `json:"baseline_p99_s"`
}

// batchTelemetry folds per-node windows into the batch roll-up. The p99
// columns take the worst node — a batch's tail is its slowest member,
// and averaging would hide exactly the node the gate should catch.
func batchTelemetry(idx int, names []string, windows []TelemetryWindow) BatchTelemetry {
	bt := BatchTelemetry{Batch: idx, Nodes: append([]string(nil), names...)}
	for _, w := range windows {
		if !w.Scraped {
			continue
		}
		bt.ScrapedNodes++
		bt.Requests += w.Requests
		bt.Terminal += w.Terminal
		bt.Unattributed += w.Unattributed
		if w.P99 > bt.P99 {
			bt.P99 = w.P99
		}
		if w.BaselineP99 > bt.BaselineP99 {
			bt.BaselineP99 = w.BaselineP99
		}
	}
	bt.DisruptionRate = rate(bt.Terminal, bt.Requests)
	return bt
}

func rate(events, requests int64) float64 {
	if requests <= 0 {
		return 0
	}
	return float64(events) / float64(requests)
}

func clamp0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// SortCellsByCount orders attribution cells largest-first (ties by
// cause/phase) — the presentation order of the §6-style tables.
func SortCellsByCount(cells []disrupt.Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		return a.Phase < b.Phase
	})
}
