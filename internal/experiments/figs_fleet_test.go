package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTblFleetRollout is the fleet-disruption CI artifact producer: it
// regenerates T-E (gated vs ungated push of a bad build to a live
// fleet), asserts the gate's blast-radius claim numerically, and writes
// the rendered table to $ZDR_RELEASE_REPORT_DIR for CI to upload.
func TestTblFleetRollout(t *testing.T) {
	tab, err := tblFleetRollout()
	if err != nil {
		t.Fatal(err)
	}
	if tab.id != "T-E" {
		t.Fatalf("ID = %q", tab.id)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}

	// Control: a good build promotes everywhere with a clean client view.
	good := rows["gated, good build"]
	if good[1] != "done" || good[2] != "6" || good[3] != "0" {
		t.Fatalf("gated good build row %v, want done/6 promoted/0 rolled back", good)
	}
	if num(t, good[4]) != 0 {
		t.Fatalf("good build produced %s client 5xx", good[4])
	}

	// Gated bad build: the canary (batch of 1) is refused and rolled
	// back; nobody is promoted; the rollout ends aborted (the scenario's
	// operator abandons the pause).
	gatedBad := rows["gated, bad build"]
	if gatedBad[1] != "aborted" || gatedBad[2] != "0" || gatedBad[3] != "1" {
		t.Fatalf("gated bad build row %v, want aborted/0 promoted/1 rolled back", gatedBad)
	}

	// Ungated bad build: the pre-gate process promotes the broken build
	// fleet-wide.
	ungatedBad := rows["ungated, bad build"]
	if ungatedBad[1] != "done" || ungatedBad[2] != "6" {
		t.Fatalf("ungated bad build row %v, want done/6 promoted", ungatedBad)
	}

	// The blast-radius claim: the gated rollout's client-visible errors
	// (one canary, one observation window) stay below the ungated push's
	// (six nodes serving 503s from promotion onward).
	if g, u := num(t, gatedBad[4]), num(t, ungatedBad[4]); g >= u {
		t.Fatalf("gated bad build 5xx (%v) not below ungated (%v) — the gate bought nothing", g, u)
	}
	if u := num(t, ungatedBad[4]); u == 0 {
		t.Fatal("ungated bad build produced no client 5xx — load loop starved")
	}

	// Zero transport failures in every scenario: promotion, drain-undo
	// rollback, and the bad build itself are all socket-preserving.
	for name, row := range rows {
		if num(t, row[5]) != 0 {
			t.Fatalf("%s: %s transport failures, want 0", name, row[5])
		}
	}

	if dir := os.Getenv("ZDR_RELEASE_REPORT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fleet-rollout.txt"), []byte(tab.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
