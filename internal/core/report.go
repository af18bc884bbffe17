// Release reports: the machine-readable record of one rolling release.
//
// A ReleaseReport is pure data — every field survives a JSON round-trip
// bit-for-bit (timestamps are UnixNano int64, durations are nanosecond
// counts, spans are obs.SpanNode trees) — so experiment harnesses and CI
// can marshal it to disk, load it back, and assert on phase durations
// with reflect.DeepEqual.
package core

import (
	"encoding/json"
	"os"
	"time"

	"zdr/internal/obs"
)

// ReleaseReport is the machine-readable summary of a release: outcome
// and per-phase time accounting derived from the span stream, the
// registry counters bracketing the release, and the full span tree.
type ReleaseReport struct {
	// Restarts and Failed count slot.restart spans and the failed ones.
	Restarts int `json:"restarts"`
	Failed   int `json:"failed"`
	// TotalNS runs from the first span's start to the last span's end.
	TotalNS int64 `json:"total_ns"`
	// CountersBefore/After snapshot the registry counters bracketing the
	// release. Never nil.
	CountersBefore map[string]int64 `json:"counters_before"`
	CountersAfter  map[string]int64 `json:"counters_after"`
	// PhaseNS sums the duration of every finished span by span name
	// ("takeover.step.B", "slot.drain", ...); PhaseCount counts them.
	// Never nil.
	PhaseNS    map[string]int64 `json:"phase_ns"`
	PhaseCount map[string]int64 `json:"phase_count"`
	// Spans is the finished span forest (empty when tracing was off).
	Spans []*obs.SpanNode `json:"spans,omitempty"`
}

// Phase returns the summed duration of all finished spans with the given
// name (0 when the phase never ran).
func (r *ReleaseReport) Phase(name string) time.Duration {
	return time.Duration(r.PhaseNS[name])
}

// WriteFile marshals the report (indented JSON) to path.
func (r *ReleaseReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReleaseReport loads a report written by WriteFile.
func ReadReleaseReport(path string) (*ReleaseReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ReleaseReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// NewReleaseReport assembles the report of a finished release from the
// registry counters bracketing it and its span stream. Every span must
// have ended: a caller whose targets drain in the background waits for
// them (ProxySlot.WaitDrains) before it reads the spans.
func NewReleaseReport(before, after map[string]int64, spans []obs.SpanRecord) *ReleaseReport {
	rr := &ReleaseReport{
		CountersBefore: before,
		CountersAfter:  after,
		PhaseNS:        map[string]int64{},
		PhaseCount:     map[string]int64{},
	}
	if rr.CountersBefore == nil {
		rr.CountersBefore = map[string]int64{}
	}
	if rr.CountersAfter == nil {
		rr.CountersAfter = map[string]int64{}
	}
	if len(spans) == 0 {
		return rr
	}
	first, last := spans[0].StartUnixNano, spans[0].EndUnixNano
	for _, s := range spans {
		first, last = min(first, s.StartUnixNano), max(last, s.EndUnixNano)
		rr.PhaseNS[s.Name] += int64(s.Duration())
		rr.PhaseCount[s.Name]++
		if s.Name == obs.SpanSlotRestart {
			rr.Restarts++
			if s.Error != "" {
				rr.Failed++
			}
		}
	}
	rr.TotalNS = last - first
	rr.Spans = obs.BuildTree(spans)
	return rr
}
