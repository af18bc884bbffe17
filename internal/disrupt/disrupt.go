// Package disrupt is the disruption ledger: a lock-light, ring-buffered
// per-connection event stream that turns "some requests failed during
// the release" into "drain-undo reset 12 connections on node edge-07,
// generation 3, while it was rolling back".
//
// The paper's evaluation (§6) is a disruption *accounting* exercise —
// every reset, timeout, and proxied-away connection during a release is
// counted and attributed to a release phase. The ledger is that
// substrate at runtime: proxy pumps, the takeover state machine, and
// the fault injectors all record events here, and every terminal
// failure carries a (cause, phase, generation, node) attribution tuple.
// An event with a terminal kind and no cause is a bug in the recording
// site; Report surfaces those as Unattributed so tests can pin the
// count to zero.
//
// Design: recording claims a slot with one atomic increment and takes
// only that slot's striped mutex (writers contend only on ring wrap),
// so the hot path is O(1) and allocation-free for callers that pass
// pre-built strings. The ring is made a page at a time by the Records
// that first reach each page: a ledger that has recorded nothing — an
// Origin's, in steady state — holds no ring. Aggregation (cause × phase × generation counts)
// uses a small map under its own mutex — attribution events are rare
// next to data-plane operations. All methods are nil-receiver safe, so
// wiring can be unconditional.
package disrupt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind is the event taxonomy. Accept/Handoff/Drain/Undo/Reattach trace
// a connection's path through a release; Reset/Timeout are terminal
// failures; Retry marks a recoverable failure that was absorbed by a
// retry mechanism (PPR replay, DCR reconnect, backoff redial); Fault is
// the fault injector's attribution channel — every injected fault lands
// in the ledger as one Fault event whose cause names the injected op.
type kind uint8

const (
	KindAccept kind = iota
	KindHandoff
	KindDrain
	KindUndo
	KindReset
	KindTimeout
	KindRetry
	KindReattach
	KindFault

	kindCount
)

var kindNames = [kindCount]string{
	"accept", "handoff", "drain", "undo", "reset", "timeout", "retry", "reattach", "fault",
}

// String returns the lower-case event name.
func (k kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// terminal reports whether the kind is a client-visible failure that
// must carry a cause attribution.
func (k kind) terminal() bool {
	return k == KindReset || k == KindTimeout || k == KindFault
}

// event is one ledger entry. Terminal events (Reset, Timeout, Fault)
// must have Cause set; Phase/Generation/Node are stamped by the ledger
// from its current release position.
type event struct {
	Seq        uint64 `json:"seq"`
	UnixNano   int64  `json:"unix_nano"`
	Kind       string `json:"kind"`
	Conn       uint64 `json:"conn,omitempty"`
	VIP        string `json:"vip,omitempty"`
	Cause      string `json:"cause,omitempty"`
	Phase      string `json:"phase,omitempty"`
	Generation int    `json:"generation"`
	Node       string `json:"node"`
	Detail     string `json:"detail,omitempty"`
}

// Cell is one cell of the attribution table: how many terminal events
// share a (cause, phase, generation, node) tuple.
type Cell struct {
	Cause      string `json:"cause"`
	Phase      string `json:"phase"`
	Generation int    `json:"generation"`
	Node       string `json:"node"`
	Count      int64  `json:"count"`
}

type attrKey struct {
	cause string
	phase string
	gen   int
}

type slot struct {
	mu sync.Mutex
	ev event
	ok bool // slot has been written at least once
}

type phaseInfo struct {
	phase string
	gen   int
}

// Ledger records events for one node. One ledger outlives the node's
// process generations (like the node's metrics registry): the release
// phase and generation are updated by whoever drives the release state
// machine via SetPhase, and stamped onto every event at record time —
// attribution reflects where the release *was* when the failure
// happened, which is the whole point.
type Ledger struct {
	node  string
	mask  uint64
	seq   atomic.Uint64
	pages []atomic.Pointer[[pageSlots]slot]
	phase atomic.Pointer[phaseInfo]

	kinds [kindCount]atomic.Int64

	attrMu sync.Mutex
	attr   map[attrKey]int64

	unattributed atomic.Int64
}

// defaultCapacity is the ring size used when New is given cap <= 0.
const defaultCapacity = 4096

// pageSlots is how many slots of the ring are allocated together.
const pageSlots = 64

// New returns a ledger for the named node. capacity is rounded up to a
// power of two; the ring retains that many most-recent events (the
// aggregate attribution counts are not ring-bounded).
func New(node string, capacity int) *Ledger {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	l := &Ledger{
		node:  node,
		mask:  uint64(size - 1),
		pages: make([]atomic.Pointer[[pageSlots]slot], (size+pageSlots-1)/pageSlots),
		attr:  make(map[attrKey]int64),
	}
	l.phase.Store(&phaseInfo{phase: "serving"})
	return l
}

// slot returns the ring's slot for seq, or nil when no Record has reached
// its page yet and create is false; Record passes true and makes the page.
func (l *Ledger) slot(seq uint64, create bool) *slot {
	i := seq & l.mask
	page := &l.pages[i/pageSlots]
	p := page.Load()
	if p == nil {
		if !create {
			return nil
		}
		page.CompareAndSwap(nil, new([pageSlots]slot))
		p = page.Load()
	}
	return &p[i%pageSlots]
}

// SetPhase moves the ledger's release position. Subsequent events are
// attributed to this (phase, generation) until the next transition.
func (l *Ledger) SetPhase(phase string, generation int) {
	if l == nil {
		return
	}
	l.phase.Store(&phaseInfo{phase: phase, gen: generation})
}

// CompareAndSetPhase moves the ledger's release position, as SetPhase
// does, only if it is still (oldPhase, oldGeneration), and reports whether
// it did: a generation moves its own stamp on without overwriting one that
// another generation sharing the ledger has made since.
func (l *Ledger) CompareAndSetPhase(oldPhase string, oldGeneration int, phase string, generation int) bool {
	if l == nil {
		return false
	}
	for {
		cur := l.phase.Load()
		if cur.phase != oldPhase || cur.gen != oldGeneration {
			return false
		}
		if l.phase.CompareAndSwap(cur, &phaseInfo{phase: phase, gen: generation}) {
			return true
		}
	}
}

// Phase returns the current release position.
func (l *Ledger) Phase() (string, int) {
	if l == nil {
		return "", 0
	}
	p := l.phase.Load()
	return p.phase, p.gen
}

// Record appends one event. conn is a per-node connection ordinal (0 if
// not connection-scoped), vip names the listener the connection arrived
// on, cause attributes terminal events ("" is a recording bug for a
// terminal kind and is counted as unattributed), and detail is free
// text. Safe for unbounded concurrent use; nil-receiver safe.
func (l *Ledger) Record(kind kind, conn uint64, vip, cause, detail string) {
	if l == nil {
		return
	}
	p := l.phase.Load()
	seq := l.seq.Add(1) - 1
	s := l.slot(seq, true)
	s.mu.Lock()
	s.ev = event{
		Seq:        seq,
		UnixNano:   time.Now().UnixNano(),
		Kind:       kind.String(),
		Conn:       conn,
		VIP:        vip,
		Cause:      cause,
		Phase:      p.phase,
		Generation: p.gen,
		Node:       l.node,
		Detail:     detail,
	}
	s.ok = true
	s.mu.Unlock()

	if int(kind) < len(l.kinds) {
		l.kinds[kind].Add(1)
	}
	if kind.terminal() {
		if cause == "" {
			l.unattributed.Add(1)
			return
		}
		k := attrKey{cause: cause, phase: p.phase, gen: p.gen}
		l.attrMu.Lock()
		l.attr[k]++
		l.attrMu.Unlock()
	}
}

// Recent returns up to n most-recent events, oldest first.
func (l *Ledger) Recent(n int) []event {
	if l == nil || n <= 0 {
		return nil
	}
	end := l.seq.Load()
	span := min(l.mask+1, uint64(n))
	start := uint64(0)
	if end > span {
		start = end - span
	}
	out := make([]event, 0, span)
	for seq := start; seq < end; seq++ {
		s := l.slot(seq, false)
		if s == nil {
			continue
		}
		s.mu.Lock()
		ev, ok := s.ev, s.ok
		s.mu.Unlock()
		// A racing writer may have lapped this slot; keep only events
		// from the window we asked for.
		if ok && ev.Seq >= start {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Report summarises the ledger: totals by kind, the terminal-event
// attribution table, the unattributed count, and a recent-event tail.
type Report struct {
	Node         string           `json:"node,omitempty"`
	Phase        string           `json:"phase,omitempty"`
	Generation   int              `json:"generation,omitempty"`
	Total        int64            `json:"total"`
	Terminal     int64            `json:"terminal"`
	Unattributed int64            `json:"unattributed"`
	ByKind       map[string]int64 `json:"by_kind,omitempty"`
	Cells        []Cell           `json:"cells,omitempty"`
	Recent       []event          `json:"recent,omitempty"`
}

// ReportRecent builds the node's disruption report, including the ring
// tail (up to recent events; pass 0 to omit the tail).
func (l *Ledger) ReportRecent(recent int) Report {
	if l == nil {
		return Report{}
	}
	phase, gen := l.Phase()
	r := Report{
		Node:       l.node,
		Phase:      phase,
		Generation: gen,
		ByKind:     make(map[string]int64, kindCount),
	}
	for k := kind(0); k < kindCount; k++ {
		n := l.kinds[k].Load()
		if n == 0 {
			continue
		}
		r.ByKind[k.String()] = n
		r.Total += n
		if k.terminal() {
			r.Terminal += n
		}
	}
	r.Unattributed = l.unattributed.Load()
	l.attrMu.Lock()
	r.Cells = make([]Cell, 0, len(l.attr))
	for k, n := range l.attr {
		r.Cells = append(r.Cells, Cell{
			Cause: k.cause, Phase: k.phase, Generation: k.gen, Node: l.node, Count: n,
		})
	}
	l.attrMu.Unlock()
	sortCells(r.Cells)
	if recent > 0 {
		r.Recent = l.Recent(recent)
	}
	return r
}

// Report is ReportRecent with a 64-event tail — the shape served at
// /debug/disruption.
func (l *Ledger) Report() Report { return l.ReportRecent(64) }

// Merge folds o into r: totals add, attribution cells concatenate
// (cells keep their per-node identity so a fleet-merged report still
// answers "which node"), and recent tails are dropped — a fleet report
// is an accounting document, not a log.
func (r Report) Merge(o Report) Report {
	out := r
	out.Node = joinNonEmpty(r.Node, o.Node)
	out.Phase, out.Generation = "", 0
	out.Total += o.Total
	out.Terminal += o.Terminal
	out.Unattributed += o.Unattributed
	out.ByKind = make(map[string]int64, len(r.ByKind)+len(o.ByKind))
	for k, v := range r.ByKind {
		out.ByKind[k] = v
	}
	for k, v := range o.ByKind {
		out.ByKind[k] += v
	}
	out.Cells = make([]Cell, 0, len(r.Cells)+len(o.Cells))
	out.Cells = append(out.Cells, r.Cells...)
	out.Cells = append(out.Cells, o.Cells...)
	sortCells(out.Cells)
	out.Recent = nil
	return out
}

// CausePhaseTotals collapses the cells to (cause, phase) → count, the
// shape of the paper's §6 tables.
func (r Report) CausePhaseTotals() []Cell {
	type cp struct{ cause, phase string }
	m := make(map[cp]int64)
	for _, c := range r.Cells {
		m[cp{c.Cause, c.Phase}] += c.Count
	}
	out := make([]Cell, 0, len(m))
	for k, n := range m {
		out = append(out, Cell{Cause: k.cause, Phase: k.phase, Count: n})
	}
	sortCells(out)
	return out
}

func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Generation < b.Generation
	})
}

func joinNonEmpty(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "+" + b
	}
}
