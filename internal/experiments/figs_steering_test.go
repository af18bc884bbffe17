package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTblSteeringRelease is the steering-policy CI artifact producer: it
// regenerates T-G (the same rolling release under Maglev-only vs Prequal
// drain-aware steering), asserts the drain-avoidance claim numerically,
// and writes the rendered table to $ZDR_RELEASE_REPORT_DIR for CI to
// upload.
func TestTblSteeringRelease(t *testing.T) {
	tab, err := tblSteeringRelease()
	if err != nil {
		t.Fatal(err)
	}
	if tab.id != "T-G" {
		t.Fatalf("ID = %q", tab.id)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	maglev, prequal := rows["maglev"], rows["prequal"]
	if maglev == nil || prequal == nil {
		t.Fatalf("missing policy rows in %v", tab.Rows)
	}

	// Maglev keeps hashing fresh flows onto the draining edge until the
	// health checker evicts it — the §6 disruption window must be visible
	// or the scenario never exercised it.
	if num(t, maglev[3]) == 0 {
		t.Fatal("maglev run saw no drain arrivals — release window never stressed the placement")
	}

	// The tentpole claim: Prequal hears the drain advertisement on the
	// load-probe channel and bleeds new flows off the draining generation
	// strictly before health eviction could.
	if m, p := num(t, maglev[3]), num(t, prequal[3]); p >= m {
		t.Fatalf("prequal drain arrivals (%v) not below maglev (%v) — advertisement bought nothing", p, m)
	}

	// Drain-aware steering must not trade availability for avoidance.
	if m, p := num(t, maglev[4]), num(t, prequal[4]); p > m {
		t.Fatalf("prequal disrupted %v requests, maglev only %v", p, m)
	}

	// ...and no tail-latency regression: static local GETs should land in
	// the same ballpark; allow generous scheduler slack.
	if m, p := num(t, maglev[6]), num(t, prequal[6]); p > 4*m+5000 {
		t.Fatalf("prequal p99 %v us way above maglev %v us", p, m)
	}

	if dir := os.Getenv("ZDR_RELEASE_REPORT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "steering-release.txt"), []byte(tab.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
