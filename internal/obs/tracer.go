// Package obs is the observability layer: a span-based release tracer,
// Prometheus text exposition for metrics.Registry, and a stdlib-only
// admin HTTP endpoint (/metrics, /healthz, /debug/release).
//
// The tracer is deliberately tiny — Dapper-shaped, in-process, with a
// textual context (`zdr1-<trace-id>-<span-id>`) that crosses process and
// tier boundaries in the `x-zdr-trace` header (HTTP/1.1 and h2t stream
// headers), MQTT CONNECT properties, and the takeover manifest/ack.
// Every method is safe on a nil *Tracer or nil *Span, so instrumented
// code pays nothing when tracing is off.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the header/property key carrying a SpanContext across
// tiers: HTTP/1.1 requests, h2t stream headers, MQTT CONNECT properties,
// and takeover manifest metadata all use the same key.
const TraceHeader = "x-zdr-trace"

// SpanContext identifies a position in a trace. The zero value is "no
// trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context refers to a real span.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// String renders the wire form "zdr1-<trace-id>-<span-id>" (hex), or ""
// for an invalid context.
func (c SpanContext) String() string {
	if !c.Valid() {
		return ""
	}
	return fmt.Sprintf("zdr1-%016x-%016x", c.TraceID, c.SpanID)
}

// ParseSpanContext parses the wire form produced by String. It returns
// false for empty or malformed input.
func ParseSpanContext(s string) (SpanContext, bool) {
	if len(s) != 5+16+1+16 || s[:5] != "zdr1-" || s[21] != '-' {
		return SpanContext{}, false
	}
	tid, err1 := strconv.ParseUint(s[5:21], 16, 64)
	sid, err2 := strconv.ParseUint(s[22:], 16, 64)
	if err1 != nil || err2 != nil {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: tid, SpanID: sid}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// SpanRecord is the immutable, JSON-friendly form of a finished (or
// in-flight) span. Timestamps are wall-clock UnixNano so records
// round-trip through JSON and compare with reflect.DeepEqual.
type SpanRecord struct {
	Name          string            `json:"name"`
	Service       string            `json:"service,omitempty"`
	TraceID       string            `json:"trace_id"`
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	StartUnixNano int64             `json:"start_unix_nano"`
	EndUnixNano   int64             `json:"end_unix_nano,omitempty"` // 0 while in flight
	Attrs         map[string]string `json:"attrs,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// Duration is the span's wall-clock duration (0 while in flight).
func (r SpanRecord) Duration() time.Duration {
	if r.EndUnixNano == 0 {
		return 0
	}
	return time.Duration(r.EndUnixNano - r.StartUnixNano)
}

// SpanNode is a SpanRecord with its children, forming the span tree
// embedded in release reports.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// Span is a live span. All methods are nil-safe.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent uint64

	mu    sync.Mutex
	name  string
	start time.Time
	attrs map[string]string
	err   string
	ended bool
}

// Context returns the span's context (zero for a nil span), for
// propagation to children local or remote.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
}

// SetAttrInt is SetAttr for a number, formatted only on a live span: the
// request path calls it with tracing off.
func (s *Span) SetAttrInt(k string, v int) {
	if s != nil {
		s.SetAttr(k, strconv.Itoa(v))
	}
}

// Fail marks the span as errored. Fail(nil) is a no-op, so it composes
// with `defer func() { sp.Fail(err); sp.End() }()`.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// StartChild opens a child span under this span. On a nil span it
// returns nil, so call chains degrade to no-ops when tracing is off.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.startSpan(name, s.ctx.TraceID, s.ctx.SpanID)
}

// End finishes the span and moves it into the tracer's finished set.
// Double-End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := s.recordLocked()
	rec.EndUnixNano = s.start.Add(time.Since(s.start)).UnixNano()
	s.mu.Unlock()
	s.tracer.finish(s.ctx.SpanID, rec)
}

// recordLocked snapshots the span. Callers hold s.mu.
func (s *Span) recordLocked() SpanRecord {
	rec := SpanRecord{
		Name:          s.name,
		Service:       s.tracer.service,
		TraceID:       fmt.Sprintf("%016x", s.ctx.TraceID),
		SpanID:        fmt.Sprintf("%016x", s.ctx.SpanID),
		StartUnixNano: s.start.UnixNano(),
		Error:         s.err,
	}
	if s.parent != 0 {
		rec.ParentID = fmt.Sprintf("%016x", s.parent)
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	return rec
}

// DefaultFinishedCap is the default bound on retained finished spans.
// It is far above what a traced release produces (a few dozen spans per
// hand-off) while keeping a long-lived daemon tracing per-request spans
// (appserver.request) at a fixed memory ceiling instead of growing until
// Finished() happens to be drained.
const DefaultFinishedCap = 16384

// Tracer records spans for one service instance. The zero of *Tracer
// (nil) is a valid no-op tracer. Finished spans are retained in a
// bounded ring (SetFinishedCap): when it fills, the oldest records are
// dropped and counted in Dropped.
type Tracer struct {
	service string

	mu       sync.Mutex
	open     map[uint64]*Span
	finished []SpanRecord // ring once len reaches cap; head marks the oldest
	head     int
	cap      int
	dropped  uint64
	onStart  func(*Span)
}

// NewTracer returns a tracer whose spans carry the given service name,
// retaining up to DefaultFinishedCap finished spans.
func NewTracer(service string) *Tracer {
	return &Tracer{service: service, open: map[uint64]*Span{}, cap: DefaultFinishedCap}
}

// SetFinishedCap bounds the finished-span ring to n records (n <= 0
// restores DefaultFinishedCap). If more than n spans are currently
// retained, the oldest are dropped immediately and counted in Dropped.
func (t *Tracer) SetFinishedCap(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultFinishedCap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if over := len(t.finished) - n; over > 0 {
		lin := t.finishedLocked()
		t.finished = lin[over:]
		t.dropped += uint64(over)
	} else if t.head != 0 {
		t.finished = t.finishedLocked()
	}
	t.head = 0
	t.cap = n
}

// Dropped reports how many finished spans have been evicted from the
// ring since the last Reset.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetSpanStartHook installs fn to run synchronously inside every
// StartSpan/StartChild, after the span exists but before control returns
// to the instrumented code. The chaos suite uses it to inject stalls
// attributed to exactly one span.
func (t *Tracer) SetSpanStartHook(fn func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onStart = fn
	t.mu.Unlock()
}

// StartSpan opens a span. If parent is valid the span joins that trace
// as a remote child; otherwise a fresh trace is started. Nil tracers
// return nil spans.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if parent.Valid() {
		return t.startSpan(name, parent.TraceID, parent.SpanID)
	}
	return t.startSpan(name, newID(), 0)
}

func (t *Tracer) startSpan(name string, traceID, parentID uint64) *Span {
	s := &Span{
		tracer: t,
		ctx:    SpanContext{TraceID: traceID, SpanID: newID()},
		parent: parentID,
		name:   name,
		start:  time.Now(),
	}
	t.mu.Lock()
	t.open[s.ctx.SpanID] = s
	hook := t.onStart
	t.mu.Unlock()
	if hook != nil {
		hook(s)
	}
	return s
}

func (t *Tracer) finish(id uint64, rec SpanRecord) {
	t.mu.Lock()
	delete(t.open, id)
	// cap <= 0 (a Tracer literal that bypassed NewTracer) means unbounded,
	// preserving the zero value's historical behaviour.
	if t.cap <= 0 || len(t.finished) < t.cap {
		t.finished = append(t.finished, rec)
	} else {
		// Ring full: drop-oldest. Memory stays flat no matter how long
		// the daemon traces for.
		t.finished[t.head] = rec
		t.head++
		if t.head == len(t.finished) {
			t.head = 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// Finished returns the retained finished spans in End order (oldest
// first). When more spans ended than the ring holds, only the newest
// SetFinishedCap records are returned; see Dropped.
func (t *Tracer) Finished() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finishedLocked()
}

// finishedLocked linearises the ring (oldest first). Callers hold t.mu.
func (t *Tracer) finishedLocked() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.finished))
	out = append(out, t.finished[t.head:]...)
	out = append(out, t.finished[:t.head]...)
	return out
}

// InFlight snapshots the spans that have started but not ended, for
// /debug/release.
func (t *Tracer) InFlight() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.open))
	for _, s := range t.open {
		spans = append(spans, s)
	}
	t.mu.Unlock()
	out := make([]SpanRecord, 0, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		out = append(out, s.recordLocked())
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNano != out[j].StartUnixNano {
			return out[i].StartUnixNano < out[j].StartUnixNano
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Reset discards all finished spans and zeroes the dropped counter
// (open spans keep running).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.finished = nil
	t.head = 0
	t.dropped = 0
	t.mu.Unlock()
}

// BuildTree assembles records into forests: children are attached to
// their parent when the parent is present, ordered by start time (ties
// keep record order). Spans whose parent is absent (root spans, or
// children of a remote span not in recs) become roots.
func BuildTree(recs []SpanRecord) []*SpanNode {
	nodes := make([]*SpanNode, len(recs))
	byID := make(map[string]*SpanNode, len(recs))
	for i, r := range recs {
		nodes[i] = &SpanNode{SpanRecord: r}
		byID[r.SpanID] = nodes[i]
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p, ok := byID[n.ParentID]; ok && n.ParentID != "" && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			return ns[i].StartUnixNano < ns[j].StartUnixNano
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// Walk visits every node in the forest depth-first.
func Walk(roots []*SpanNode, fn func(*SpanNode)) {
	for _, n := range roots {
		fn(n)
		Walk(n.Children, fn)
	}
}

// ID generation: a per-process random base (crypto/rand, falling back to
// the clock) mixed with an atomic counter through splitmix64. Never
// returns 0, never repeats within a process, and needs no locking.
var (
	idBase    = seedIDBase()
	idCounter atomic.Uint64
)

func seedIDBase() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

func newID() uint64 {
	for {
		x := idBase + idCounter.Add(1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}
