package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Journal record kinds. The journal is the rollout's write-ahead log:
// every state transition is appended (and fsynced) BEFORE the transition
// executes, so a restarted operator can reconstruct where the rollout
// was and resume — or roll back — without guessing.
const (
	// RecBegin opens a rollout: name, node set, batch plan.
	RecBegin = "begin"
	// RecBatchStart marks a batch entering its canary window.
	RecBatchStart = "batch-start"
	// RecNodePromoted marks one node's verdict delivered as promote and
	// its window released. Promoted nodes are never revisited on resume.
	RecNodePromoted = "node-promoted"
	// RecNodeRolledBack marks one node rolled back via drain-undo.
	RecNodeRolledBack = "node-rolled-back"
	// RecGate records a batch's gate decision with its verdicts.
	RecGate = "gate"
	// RecPause marks the rollout paused awaiting operator Decide.
	RecPause = "pause"
	// RecResume marks an operator Decide(resume) or a journal recovery.
	RecResume = "resume"
	// RecDone closes the rollout with its terminal state.
	RecDone = "done"
)

// Record is one journal line.
type Record struct {
	Kind string `json:"kind"`
	// TS is the wall-clock append time (UnixNano).
	TS int64 `json:"ts"`
	// Rollout is the rollout name (on every record, so interleaved or
	// concatenated journals stay attributable).
	Rollout string `json:"rollout,omitempty"`
	// Nodes carries the full node list (RecBegin) or the batch members
	// (RecBatchStart).
	Nodes []string `json:"nodes,omitempty"`
	// Gens records each batch member's generation BEFORE its restart
	// (RecBatchStart). Recovery reconciles an in-flight node against it:
	// a higher observed generation means the verdict was delivered and
	// the promotion simply missed its journal record when the operator
	// died.
	Gens map[string]int `json:"gens,omitempty"`
	// Node is the subject of per-node records.
	Node string `json:"node,omitempty"`
	// Batch is the batch index (RecBatchStart, RecGate).
	Batch int `json:"batch,omitempty"`
	// Decision is the gate outcome (RecGate) or terminal state (RecDone).
	Decision string `json:"decision,omitempty"`
	// Verdicts carries the per-node gate evaluations (RecGate).
	Verdicts []NodeVerdict `json:"verdicts,omitempty"`
	// Reason annotates pauses, rollbacks, and recoveries.
	Reason string `json:"reason,omitempty"`
}

// Journal is an append-only, fsync-per-record JSONL file. Appends are
// serialised; a torn final line (operator died mid-write) is tolerated
// by Replay and cut off by OpenJournal.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path for append.
// A torn append a crash left at its end is cut off first: the next record
// starts a line of its own, where Replay finds it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err == nil {
		if whole := bytes.LastIndexByte(data, '\n') + 1; whole < len(data) {
			err = f.Truncate(int64(whole))
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append writes one record and fsyncs before returning, so the record
// survives an operator crash immediately after the call.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	if rec.TS == 0 {
		rec.TS = time.Now().UnixNano()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fleet: journal closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Replay reads every complete record from a journal file. A record is a
// line that its newline ends: Append returns, and the transition it
// records runs, only once both are synced, so what follows the last
// newline is a torn append whose transition never ran, and is skipped even
// where it parses. A line that does not parse ends the replay: nothing
// after it is trusted. A missing file replays empty.
func Replay(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return replay(data), nil
}

// replay is Replay of a journal's bytes.
func replay(data []byte) []Record {
	var recs []Record
	for {
		line, rest, whole := bytes.Cut(data, []byte{'\n'})
		if !whole {
			return recs
		}
		data = rest
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			return recs
		}
		recs = append(recs, rec)
	}
}

// Progress is the resume point reconstructed from a journal.
type Progress struct {
	// Rollout is the journaled rollout's name ("" = empty journal).
	Rollout string
	// Nodes is the node list from RecBegin, in rollout order.
	Nodes []string
	// Promoted names nodes whose promotion was journaled; resume skips
	// them.
	Promoted map[string]bool
	// RolledBack names nodes whose rollback was journaled.
	RolledBack map[string]bool
	// InFlight names nodes of a batch that started but reached no
	// per-node terminal record — the batch the operator died inside.
	// These nodes are in an unknown state: possibly still holding a
	// canary window (which will self-roll-back via MaxHold), possibly
	// already promoted with the journal record lost, possibly back on
	// the old generation. Resume re-examines them against InFlightGens.
	InFlight []string
	// InFlightGens maps each in-flight node to its journaled pre-restart
	// generation (absent for journals predating the field).
	InFlightGens map[string]int
	// Paused reports whether the last gate decision left the rollout
	// paused with no subsequent resume.
	Paused bool
	// Done is the terminal state from RecDone ("" = rollout still open).
	Done string
}

// Recover folds journal records into a resume point.
func Recover(recs []Record) Progress {
	p := Progress{Promoted: map[string]bool{}, RolledBack: map[string]bool{}, InFlightGens: map[string]int{}}
	inflight := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case RecBegin:
			p.Rollout = r.Rollout
			p.Nodes = r.Nodes
		case RecBatchStart:
			for _, n := range r.Nodes {
				inflight[n] = true
				if g, ok := r.Gens[n]; ok {
					p.InFlightGens[n] = g
				}
			}
		case RecNodePromoted:
			p.Promoted[r.Node] = true
			delete(inflight, r.Node)
		case RecNodeRolledBack:
			p.RolledBack[r.Node] = true
			delete(inflight, r.Node)
		case RecPause:
			p.Paused = true
		case RecResume:
			p.Paused = false
		case RecDone:
			p.Done = r.Decision
		}
	}
	// Preserve rollout order for the re-examined batch.
	for _, n := range p.Nodes {
		if inflight[n] {
			p.InFlight = append(p.InFlight, n)
		}
	}
	for n := range p.InFlightGens {
		if !inflight[n] {
			delete(p.InFlightGens, n)
		}
	}
	return p
}
