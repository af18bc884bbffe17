// Package experiments regenerates every table and figure in the paper's
// motivation and evaluation sections. Each experiment is a function
// returning a Table — the same rows/series the paper reports — built
// either from the virtual-time fleet simulator (cluster-scale figures) or
// from real sockets on localhost (protocol-level figures).
//
// The per-experiment index lives in DESIGN.md §3; EXPERIMENTS.md records
// paper-vs-measured values. `cmd/zdr-exp` prints every table, and the
// repo-root bench suite wraps each experiment in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one regenerated figure or table.
type Table struct {
	// id matches the per-experiment index (e.g. "F8", "F12").
	id string
	// title describes the experiment.
	title string
	// columns are the header cells.
	columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// notes records the paper's expectation and how the measured shape
	// compares.
	notes string
}

// Render formats the table as aligned plain text.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.id, t.title)
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.notes)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.id, t.title)
	sb.WriteString("| " + strings.Join(t.columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.notes != "" {
		fmt.Fprintf(&sb, "\n*%s*\n", t.notes)
	}
	return sb.String()
}

// Experiment couples an ID to its generator.
type Experiment struct {
	ID  string
	Run func() (Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"F2a", fig2aReleaseCadence},
		{"F2b", fig2bReleaseCauses},
		{"F2c", fig2cCommitsPerRelease},
		{"F2d", fig2dReuseportMisrouting},
		{"F3a", fig3aCapacityTimeline},
		{"F3b", fig3bReconnectCPU},
		{"F8", fig8IdleCPU},
		{"F9", fig9DCRTimeline},
		{"F10", fig10UDPMisrouting},
		{"F11", fig11PPRDisruption},
		{"F12", fig12ProxyErrors},
		{"F13", fig13ReleaseTimeline},
		{"F15", fig15RestartHours},
		{"F16", fig16CompletionTime},
		{"F17", fig17TakeoverOverhead},
		{"T-A", tblPPRRetries},
		{"T-B", tblHeadlineBenefits},
		{"T-C", tblPeakHourRelease},
		{"T-D", tblReleasePhases},
		{"T-E", tblFleetRollout},
		{"T-F", tblDisruptionAttribution},
		{"T-G", tblSteeringRelease},
	}
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
