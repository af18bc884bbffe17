package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJournalRoundTrip: appended records replay intact and in order.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: RecBegin, Rollout: "r1", Nodes: []string{"a", "b", "c"}},
		{Kind: RecBatchStart, Rollout: "r1", Batch: 0, Nodes: []string{"a"}},
		{Kind: RecNodePromoted, Rollout: "r1", Node: "a", Batch: 0},
		{Kind: RecGate, Rollout: "r1", Batch: 0, Decision: "promote",
			Verdicts: []NodeVerdict{{Node: "a", Outcome: "promote"}}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Node != recs[i].Node || got[i].Decision != recs[i].Decision {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
		if got[i].TS == 0 {
			t.Fatalf("record %d: Append did not stamp TS", i)
		}
	}
	if len(got[3].Verdicts) != 1 || got[3].Verdicts[0].Node != "a" {
		t.Fatalf("gate verdicts did not round-trip: %+v", got[3].Verdicts)
	}
}

// TestJournalTornTail: a crash mid-append leaves a truncated final line;
// Replay trusts everything before it and skips the tear.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: RecBegin, Rollout: "r1", Nodes: []string{"a"}})
	j.Append(Record{Kind: RecBatchStart, Rollout: "r1", Nodes: []string{"a"}})
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"node-promoted","node":"a","ba`) // torn mid-write
	f.Close()
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail skipped)", len(got))
	}
	if got[1].Kind != RecBatchStart {
		t.Fatalf("last trusted record = %q, want batch-start", got[1].Kind)
	}
}

// TestJournalAppendAfterTornTail: an operator that resumes after a crash
// appends to the journal its predecessor tore; the torn record is gone and
// the resumed one replays in its place, whole — where, glued to the tear,
// it and every record after it would be lost to the next recovery.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.jsonl")
	if err := os.WriteFile(path, []byte(`{"kind":"begin","rollout":"r1","nodes":["a","b"]}`+"\n"+`{"kind":"node-promoted","node":"a"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: RecResume, Rollout: "r1"})
	j.Append(Record{Kind: RecNodePromoted, Rollout: "r1", Node: "b"})
	j.Close()
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Kind != RecResume || got[2].Node != "b" {
		t.Fatalf("replayed %+v, want begin, resume, node-promoted b", got)
	}
}

// TestReplayMissingFile: a never-written journal replays empty, not as
// an error — first boot and post-crash boot share one code path.
func TestReplayMissingFile(t *testing.T) {
	got, err := Replay(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || got != nil {
		t.Fatalf("missing journal: recs=%v err=%v", got, err)
	}
}

// TestRecoverProgress folds a mid-rollout journal into the resume point:
// promoted nodes skipped, the interrupted batch re-examined in rollout
// order.
func TestRecoverProgress(t *testing.T) {
	p := Recover([]Record{
		{Kind: RecBegin, Rollout: "r1", Nodes: []string{"a", "b", "c", "d"}},
		{Kind: RecBatchStart, Batch: 0, Nodes: []string{"a"}},
		{Kind: RecNodePromoted, Node: "a", Batch: 0},
		{Kind: RecGate, Batch: 0, Decision: "promote"},
		{Kind: RecBatchStart, Batch: 1, Nodes: []string{"b", "c"}},
		{Kind: RecNodeRolledBack, Node: "b", Batch: 1},
		// operator died here: c has no terminal record, d never started
	})
	if p.Rollout != "r1" {
		t.Fatalf("rollout = %q", p.Rollout)
	}
	if !p.Promoted["a"] || len(p.Promoted) != 1 {
		t.Fatalf("promoted = %v", p.Promoted)
	}
	if !p.RolledBack["b"] || len(p.RolledBack) != 1 {
		t.Fatalf("rolled back = %v", p.RolledBack)
	}
	if len(p.InFlight) != 1 || p.InFlight[0] != "c" {
		t.Fatalf("in-flight = %v, want [c]", p.InFlight)
	}
	if p.Paused || p.Done != "" {
		t.Fatalf("paused=%v done=%q on an open rollout", p.Paused, p.Done)
	}
}

// TestRecoverPauseResume: the latest pause/resume wins, and a terminal
// record closes the rollout.
func TestRecoverPauseResume(t *testing.T) {
	p := Recover([]Record{
		{Kind: RecBegin, Rollout: "r1", Nodes: []string{"a"}},
		{Kind: RecPause, Batch: 0},
	})
	if !p.Paused {
		t.Fatal("pause not recovered")
	}
	p = Recover([]Record{
		{Kind: RecBegin, Rollout: "r1", Nodes: []string{"a"}},
		{Kind: RecPause, Batch: 0},
		{Kind: RecResume},
		{Kind: RecNodePromoted, Node: "a"},
		{Kind: RecDone, Decision: StateDone},
	})
	if p.Paused {
		t.Fatal("resume did not clear pause")
	}
	if p.Done != StateDone {
		t.Fatalf("done = %q", p.Done)
	}
}

// TestRecoverEmpty: an empty journal recovers a zero progress.
func TestRecoverEmpty(t *testing.T) {
	p := Recover(nil)
	if p.Rollout != "" || len(p.Promoted) != 0 || len(p.InFlight) != 0 {
		t.Fatalf("empty journal recovered %+v", p)
	}
}

// FuzzReplay throws bytes at the journal parser: torn, duplicated and
// garbage records among real ones. Neither Replay nor Recover may panic,
// and a journal cut anywhere — what a crash left before the rest was
// appended — replays a prefix of the records the whole replays, so it
// recovers no promotion or rollback the whole does not have. The seed
// corpus is testdata/fuzz/FuzzReplay, one file per case, named for it.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole := replay(data)
		all := Recover(whole)
		// Either side of every newline, and one cut the input chooses.
		cuts := []int{0, int(cut) % (len(data) + 1), len(data)}
		for i, c := range data {
			if c == '\n' {
				cuts = append(cuts, i, i+1)
			}
		}
		for _, at := range cuts {
			part := replay(data[:at])
			if len(part) > len(whole) || len(part) > 0 && !reflect.DeepEqual(part, whole[:len(part)]) {
				t.Fatalf("cut at %d of %d bytes: %d records, not a prefix of the whole's %d", at, len(data), len(part), len(whole))
			}
			p := Recover(part)
			for n := range p.Promoted {
				if !all.Promoted[n] {
					t.Fatalf("cut at %d: %q promoted, and not in the whole", at, n)
				}
			}
			for n := range p.RolledBack {
				if !all.RolledBack[n] {
					t.Fatalf("cut at %d: %q rolled back, and not in the whole", at, n)
				}
			}
		}
	})
}
