package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/core"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// TestReleaseReport is the CI artifact producer: it runs the traced
// two-tier release with a deterministic stall injected into takeover
// step E, asserts the ReleaseReport's phase accounting separates the
// stalled protocol step from the (short) drain phase, and proves the
// report survives its JSON round-trip bit-for-bit. The report is written
// to $ZDR_RELEASE_REPORT_DIR (CI uploads it) or a test temp dir.
func TestReleaseReport(t *testing.T) {
	const stall = 150 * time.Millisecond

	dir := os.Getenv("ZDR_RELEASE_REPORT_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "release-report.json")

	tab, rr, err := releasePhases(path, func(sp *obs.Span) {
		if sp.Name() == "takeover.step.E" {
			time.Sleep(stall)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Restarts != 2 || rr.Failed != 0 {
		t.Fatalf("restarts/failed = %d/%d, want 2/0", rr.Restarts, rr.Failed)
	}

	// Every takeover phase ran once per hand-off (2 hand-offs); the
	// two-phase confirmation spans are recorded on both sides of the
	// socket, so they count twice per hand-off. The one-shot step D never
	// occurs between two v2 generations.
	for _, step := range []string{
		"takeover.step.A", "takeover.step.B", "takeover.step.C",
		"takeover.step.E", "takeover.step.F",
	} {
		if got := rr.PhaseCount[step]; got != 2 {
			t.Errorf("PhaseCount[%s] = %d, want 2", step, got)
		}
	}
	for _, step := range []string{"takeover.prepare", "takeover.commit"} {
		if got := rr.PhaseCount[step]; got != 4 {
			t.Errorf("PhaseCount[%s] = %d, want 4 (receiver + sender views, 2 hand-offs)", step, got)
		}
	}

	// Phase accounting localises the stall: step E absorbed it on both
	// hand-offs, while the drain phase (10ms DrainWait per slot) stayed
	// far below the stall.
	if got := rr.Phase("takeover.step.E"); got < 2*stall {
		t.Errorf("Phase(takeover.step.E) = %v, want >= %v", got, 2*stall)
	}
	// Comparative rather than absolute (drain is ~20ms of work but CI
	// scheduling noise can inflate it): the stalled protocol step must
	// dominate the drain phase.
	if drain, stepE := rr.Phase("slot.drain"), rr.Phase("takeover.step.E"); drain >= stepE {
		t.Errorf("Phase(slot.drain) = %v not below Phase(takeover.step.E) = %v — stall misattributed", drain, stepE)
	}
	if rr.Phase("rollout") < rr.Phase("takeover.step.E") {
		t.Error("release envelope shorter than a phase inside it")
	}

	// The JSON on disk reloads to a deep-equal report.
	back, err := core.ReadReleaseReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Fatal("ReleaseReport did not survive the JSON round-trip")
	}

	// And the table consumed the same phases.
	var sawStepE bool
	for _, row := range tab.Rows {
		if row[0] == "takeover.step.E" {
			sawStepE = true
			if ms := num(t, row[2]); ms < float64(2*stall/time.Millisecond) {
				t.Errorf("table total for step E = %vms, want >= %v", ms, 2*stall)
			}
		}
	}
	if !sawStepE {
		t.Fatal("phase table has no takeover.step.E row")
	}
}

// TestReleaseReportTwoPhaseAbort is the second CI artifact producer: a
// release in which the first hand-off attempt dies at the PREPARE-ACK
// instant (injected via the netx FD hook), is classified as a pre-commit
// abort, and is absorbed by the slot's default single retry — Failed = 0.
// The written report must carry the abort's evidence: a failed
// takeover.prepare span whose trace has no takeover.commit, alongside
// the successful attempts' commit spans.
func TestReleaseReportTwoPhaseAbort(t *testing.T) {
	dir := os.Getenv("ZDR_RELEASE_REPORT_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "release-report-two-phase.json")

	// Fail exactly one PREPARE-ACK write (frame kind 5 on the takeover
	// wire): the first hand-off aborts, every later one succeeds.
	var injected atomic.Int64
	netx.SetFDHook(func(op string, data []byte, fds []int) error {
		if op == "write" && len(data) > 0 && data[0] == 5 && injected.Add(1) == 1 {
			return errors.New("injected receiver death at prepare-ack")
		}
		return nil
	})
	defer netx.SetFDHook(nil)

	_, rr, err := releasePhases(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if injected.Load() == 0 {
		t.Fatal("prepare-ack injection never fired")
	}
	if rr.Restarts != 2 || rr.Failed != 0 {
		t.Fatalf("restarts/failed = %d/%d, want 2/0 (abort absorbed by the retry)", rr.Restarts, rr.Failed)
	}

	// Aborted attempt: +1 receiver-side and +1 sender-side failed
	// takeover.prepare on top of the 4 successful views; commits stay 4.
	if got := rr.PhaseCount["takeover.prepare"]; got != 6 {
		t.Errorf("PhaseCount[takeover.prepare] = %d, want 6 (4 committed views + 2 aborted)", got)
	}
	if got := rr.PhaseCount["takeover.commit"]; got != 4 {
		t.Errorf("PhaseCount[takeover.commit] = %d, want 4", got)
	}

	// Per hand-off attempt (the prepare span's parent — takeover.handoff
	// on the receiver, takeover.serve on the sender): an aborted prepare
	// must never sit alongside a commit. The receiver's retry lives in
	// the same release trace, so the scope is the parent span, not the
	// trace.
	abortedAttempts := 0
	obs.Walk(rr.Spans, func(n *obs.SpanNode) {
		var aborted, committed bool
		for _, c := range n.Children {
			if c.Name == "takeover.prepare" && c.Error != "" {
				aborted = true
			}
			if c.Name == "takeover.commit" {
				committed = true
			}
		}
		if aborted {
			abortedAttempts++
			if committed {
				t.Errorf("%s records an aborted takeover.prepare alongside a takeover.commit", n.Name)
			}
		}
	})
	if abortedAttempts != 2 {
		t.Errorf("aborted takeover.prepare found under %d spans, want 2 (receiver + sender views)", abortedAttempts)
	}

	// The artifact on disk reloads intact.
	back, err := core.ReadReleaseReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Fatal("two-phase abort report did not survive the JSON round-trip")
	}
}

func TestTblReleasePhasesShape(t *testing.T) {
	tab, err := TblReleasePhases()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "T-D" {
		t.Fatalf("ID = %q", tab.ID)
	}
	want := map[string]bool{"rollout": false, "takeover.handoff": false, "slot.drain": false}
	for _, row := range tab.Rows {
		if _, ok := want[row[0]]; ok {
			want[row[0]] = true
		}
	}
	for phase, ok := range want {
		if !ok {
			t.Errorf("phase table missing %q row", phase)
		}
	}
}
