package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zdr/internal/obs"
)

// tracedRelease records a small release's spans: a root, one batch per
// slot, and each slot's restart with a drain child of the given length;
// a slot named in failed records a failed restart.
func tracedRelease(drain time.Duration, failed string, slots ...string) *obs.Tracer {
	tr := obs.NewTracer("core-test")
	root := tr.StartSpan(obs.SpanRollout, obs.SpanContext{})
	for _, name := range slots {
		batch := root.StartChild(obs.SpanRolloutBatch)
		sp := batch.StartChild(obs.SpanSlotRestart)
		sp.SetAttr("slot", name)
		work := sp.StartChild(obs.SpanSlotDrain)
		time.Sleep(drain)
		work.End()
		if name == failed {
			sp.Fail(errors.New("scripted failure"))
		}
		sp.End()
		batch.End()
	}
	root.End()
	return tr
}

func TestNewReleaseReport(t *testing.T) {
	tr := tracedRelease(2*time.Millisecond, "c", "a", "b", "c")
	before := map[string]int64{"preexisting": 4}
	after := map[string]int64{"preexisting": 4, "proxy.takeovers": 3}
	rr := NewReleaseReport(before, after, tr.Finished())
	if rr.Restarts != 3 || rr.Failed != 1 {
		t.Fatalf("restarts/failed = %d/%d, want 3/1", rr.Restarts, rr.Failed)
	}
	if rr.CountersBefore["preexisting"] != 4 || rr.CountersAfter["proxy.takeovers"] != 3 {
		t.Fatalf("counters = %v → %v", rr.CountersBefore, rr.CountersAfter)
	}
	// Phase accounting: one release, three batches, three restarts.
	for phase, want := range map[string]int64{
		"rollout": 1, "rollout.batch": 3, "slot.restart": 3, "slot.drain": 3,
	} {
		if got := rr.PhaseCount[phase]; got != want {
			t.Errorf("PhaseCount[%q] = %d, want %d", phase, got, want)
		}
	}
	if rr.Phase("slot.drain") < 6*time.Millisecond {
		t.Fatalf("Phase(slot.drain) = %v, want >= 6ms", rr.Phase("slot.drain"))
	}
	if rr.Phase("rollout") < rr.Phase("rollout.batch") {
		t.Fatal("release phase shorter than its batches")
	}
	// The total spans the stream: here, exactly the root.
	if rr.TotalNS != int64(rr.Phase("rollout")) || rr.Total() != time.Duration(rr.TotalNS) {
		t.Fatalf("TotalNS = %d, want the root's %d", rr.TotalNS, rr.Phase("rollout"))
	}
	// Exactly one root: the release span, with every batch under it.
	if len(rr.Spans) != 1 || rr.Spans[0].Name != "rollout" {
		t.Fatalf("span forest roots = %+v", rr.Spans)
	}
	if len(rr.Spans[0].Children) != 3 {
		t.Fatalf("release children = %d, want 3 batches", len(rr.Spans[0].Children))
	}

	// No spans: an empty report, its maps present.
	empty := NewReleaseReport(nil, nil, nil)
	if empty.Restarts != 0 || empty.TotalNS != 0 || empty.Spans != nil ||
		empty.CountersBefore == nil || empty.CountersAfter == nil || empty.PhaseNS == nil {
		t.Fatalf("report of no spans = %+v", empty)
	}
}

func TestReleaseReportJSONRoundTrip(t *testing.T) {
	tr := tracedRelease(time.Millisecond, "", "a")
	rr := NewReleaseReport(map[string]int64{"x": 1}, map[string]int64{"x": 2}, tr.Finished())
	path := filepath.Join(t.TempDir(), "release.json")
	if err := rr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReleaseReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Fatalf("report did not survive the JSON round-trip:\nwrote %+v\nread  %+v", rr, back)
	}
	if back.Phase("slot.restart") < time.Millisecond {
		t.Fatalf("reloaded Phase(slot.restart) = %v", back.Phase("slot.restart"))
	}
}
