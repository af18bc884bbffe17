package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zdr/internal/fleet"
)

// TestDisruptionAttributionArtifact is the telemetry CI artifact
// producer: it regenerates T-F, writes each scenario's fleet-merged
// TelemetryReport JSON plus the rendered table to
// $ZDR_RELEASE_REPORT_DIR (CI uploads them) or a test temp dir, and
// audits the books — in BOTH scenarios every injected fault must appear
// as one attributed ledger event and nothing may be unattributed.
func TestDisruptionAttributionArtifact(t *testing.T) {
	dir := os.Getenv("ZDR_RELEASE_REPORT_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	tab, runs, err := disruptionAttribution(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tab.id != "T-F" {
		t.Fatalf("ID = %q", tab.id)
	}
	if err := os.WriteFile(filepath.Join(dir, "disruption-attribution.txt"),
		[]byte(tab.Render()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, sc := range []string{"gated", "ungated"} {
		run, ok := runs[sc]
		if !ok {
			t.Fatalf("no %s run", sc)
		}
		rep := run.report
		if run.injected == 0 {
			t.Fatalf("%s: chaos injected nothing; scenario is vacuous", sc)
		}
		if rep.ScrapedNodes != rep.TotalNodes || rep.TotalNodes == 0 {
			t.Fatalf("%s: scraped %d of %d nodes", sc, rep.ScrapedNodes, rep.TotalNodes)
		}
		if rep.Requests == 0 || rep.Latency.Count == 0 {
			t.Fatalf("%s: no traffic merged: %+v", sc, rep)
		}
		// The books: injected == attributed, nothing unattributed.
		if got := rep.Disruption.ByKind["fault"]; got != run.injected {
			t.Fatalf("%s: ledger fault events = %d, injectors fired %d", sc, got, run.injected)
		}
		if rep.Disruption.Unattributed != 0 {
			t.Fatalf("%s: unattributed terminal events: %d", sc, rep.Disruption.Unattributed)
		}
		var attributed int64
		for _, c := range rep.CausePhase {
			if strings.HasPrefix(c.Cause, "injected:") {
				attributed += c.Count
			}
		}
		if attributed != run.injected {
			t.Fatalf("%s: cause-phase cells attribute %d of %d injected faults: %+v",
				sc, attributed, run.injected, rep.CausePhase)
		}

		// The artifact on disk reloads to the same headline numbers.
		data, err := os.ReadFile(filepath.Join(dir, "telemetry-report-"+sc+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var back fleet.TelemetryReport
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Requests != rep.Requests || back.Disruption.Terminal != rep.Disruption.Terminal ||
			back.ScrapedNodes != rep.ScrapedNodes || len(back.CausePhase) != len(rep.CausePhase) {
			t.Fatalf("%s: artifact did not survive the JSON round-trip:\n got %+v\nwant %+v", sc, back, rep)
		}
	}

	// Table shape: both scenarios present, each with its total row and at
	// least one injected-fault attribution cell.
	seenTotal := map[string]bool{}
	seenInjected := map[string]bool{}
	for _, row := range tab.Rows {
		if row[1] == "(all terminal)" {
			seenTotal[row[0]] = true
		}
		if strings.HasPrefix(row[1], "injected:") {
			seenInjected[row[0]] = true
		}
	}
	for _, sc := range []string{"gated", "ungated"} {
		if !seenTotal[sc] || !seenInjected[sc] {
			t.Fatalf("table missing %s rows (total %v, injected %v):\n%s",
				sc, seenTotal[sc], seenInjected[sc], tab.Render())
		}
	}
}
