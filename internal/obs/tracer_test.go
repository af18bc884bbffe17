package obs

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestSpanContextStringParseRoundTrip(t *testing.T) {
	c := SpanContext{traceID: 0xdeadbeef, spanID: 0x1234567890abcdef}
	s := c.String()
	got, ok := ParseSpanContext(s)
	if !ok || got != c {
		t.Fatalf("ParseSpanContext(%q) = %+v, %v; want %+v", s, got, ok, c)
	}
}

func TestSpanContextInvalid(t *testing.T) {
	if s := (SpanContext{}).String(); s != "" {
		t.Fatalf("zero context String() = %q, want empty", s)
	}
	for _, bad := range []string{
		"",
		"zdr1-",
		"zdr1-0000000000000000-0000000000000001",  // zero trace id
		"zdr1-0000000000000001-0000000000000000",  // zero span id
		"zdr2-0000000000000001-0000000000000002",  // wrong version
		"zdr1-000000000000000g-0000000000000002",  // bad hex
		"zdr1-0000000000000001_0000000000000002",  // bad separator
		"zdr1-0000000000000001-00000000000000020", // too long
		"zdr1-0000000000000001-000000000000002",   // too short
	} {
		if _, ok := ParseSpanContext(bad); ok {
			t.Errorf("ParseSpanContext(%q) accepted malformed input", bad)
		}
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// Every method must be callable on the nils.
	tr.SetSpanStartHook(func(*Span) {})
	tr.Reset()
	if got := tr.Finished(); got != nil {
		t.Fatalf("nil tracer Finished() = %v", got)
	}
	if got := tr.InFlight(); got != nil {
		t.Fatalf("nil tracer InFlight() = %v", got)
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("status", 200)
	sp.Fail(errors.New("boom"))
	sp.End()
	if sp.Context().valid() {
		t.Fatal("nil span has a valid context")
	}
	if sp.Name() != "" {
		t.Fatal("nil span has a name")
	}
	if child := sp.StartChild("y"); child != nil {
		t.Fatal("nil span returned a non-nil child")
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer("svc")
	root := tr.StartSpan("release", SpanContext{})
	if !root.Context().valid() {
		t.Fatal("root context invalid")
	}
	child := root.StartChild("slot.restart")
	child.SetAttr("slot", "edge")
	child.SetAttrInt("status", 200)
	if got := tr.InFlight(); len(got) != 2 {
		t.Fatalf("InFlight = %d spans, want 2", len(got))
	}
	child.Fail(errors.New("kaput"))
	child.End()
	child.End() // double End is a no-op
	root.End()
	fin := tr.Finished()
	if len(fin) != 2 {
		t.Fatalf("Finished = %d spans, want 2", len(fin))
	}
	// End order: child first.
	if fin[0].Name != "slot.restart" || fin[1].Name != "release" {
		t.Fatalf("finish order = %q, %q", fin[0].Name, fin[1].Name)
	}
	if fin[0].ParentID != fin[1].SpanID {
		t.Fatalf("child ParentID %q != root SpanID %q", fin[0].ParentID, fin[1].SpanID)
	}
	if fin[0].TraceID != fin[1].TraceID {
		t.Fatal("child left the root's trace")
	}
	if fin[0].Error != "kaput" || fin[0].Attrs["slot"] != "edge" || fin[0].Attrs["status"] != "200" {
		t.Fatalf("child record = %+v", fin[0])
	}
	if fin[0].Duration() < 0 || fin[0].EndUnixNano < fin[0].StartUnixNano {
		t.Fatalf("non-positive child duration: %+v", fin[0])
	}
	if got := tr.InFlight(); len(got) != 0 {
		t.Fatalf("InFlight after End = %d spans", len(got))
	}
	tr.Reset()
	if got := tr.Finished(); len(got) != 0 {
		t.Fatal("Reset kept finished spans")
	}
}

func TestStartSpanJoinsRemoteParent(t *testing.T) {
	remoteTr := NewTracer("edge")
	remote := remoteTr.StartSpan("proxy.drain", SpanContext{})
	wire := remote.Context().String()

	parsed, ok := ParseSpanContext(wire)
	if !ok {
		t.Fatal(ok)
	}
	local := NewTracer("origin")
	sp := local.StartSpan("dcr.reconnect", parsed)
	sp.End()
	rec := local.Finished()[0]
	wantTrace := remote.Context().traceID
	if got, _ := ParseSpanContext("zdr1-" + rec.TraceID + "-" + rec.SpanID); got.traceID != wantTrace {
		t.Fatalf("joined trace id %s, want %016x", rec.TraceID, wantTrace)
	}
	if got, _ := ParseSpanContext("zdr1-" + rec.TraceID + "-" + rec.ParentID); got.spanID != remote.Context().spanID {
		t.Fatalf("parent id %s, want %016x", rec.ParentID, remote.Context().spanID)
	}
}

func TestSpanStartHookRunsSynchronously(t *testing.T) {
	tr := NewTracer("svc")
	var seen []string
	tr.SetSpanStartHook(func(sp *Span) {
		seen = append(seen, sp.Name())
		time.Sleep(5 * time.Millisecond) // stall charged to the span
	})
	sp := tr.StartSpan("takeover.step.C", SpanContext{})
	sp.End()
	if len(seen) != 1 || seen[0] != "takeover.step.C" {
		t.Fatalf("hook saw %v", seen)
	}
	if d := tr.Finished()[0].Duration(); d < 5*time.Millisecond {
		t.Fatalf("stall not attributed to the span: duration %v", d)
	}
}

func TestSpanRecordJSONRoundTrip(t *testing.T) {
	tr := NewTracer("svc")
	root := tr.StartSpan("release", SpanContext{})
	c1 := root.StartChild("slot.restart")
	c1.SetAttr("slot", "origin")
	c2 := c1.StartChild("takeover.handoff")
	c2.Fail(errors.New("injected"))
	c2.End()
	c1.End()
	root.End()

	recs := tr.Finished()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var back []SpanRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Fatalf("records did not survive JSON round-trip:\n%+v\n%+v", recs, back)
	}

	tree := BuildTree(recs)
	tb, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var treeBack []*SpanNode
	if err := json.Unmarshal(tb, &treeBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree, treeBack) {
		t.Fatal("span tree did not survive JSON round-trip")
	}
}

func TestBuildTree(t *testing.T) {
	tr := NewTracer("svc")
	root := tr.StartSpan("release", SpanContext{})
	b1 := root.StartChild("release.batch")
	time.Sleep(time.Millisecond) // order batches by start time
	b2 := root.StartChild("release.batch")
	b2.End()
	b1.End()
	root.End()
	// A span whose parent is remote (not in the record set) becomes a root.
	orphan := tr.StartSpan("dcr.reconnect", SpanContext{traceID: 7, spanID: 9})
	orphan.End()

	roots := BuildTree(tr.Finished())
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (release + orphan)", len(roots))
	}
	var release *SpanNode
	for _, r := range roots {
		if r.Name == "release" {
			release = r
		}
	}
	if release == nil {
		t.Fatal("release root missing")
	}
	if len(release.Children) != 2 {
		t.Fatalf("release children = %d, want 2", len(release.Children))
	}
	if release.Children[0].StartUnixNano > release.Children[1].StartUnixNano {
		t.Fatal("children not ordered by start time")
	}

	var walked int
	Walk(roots, func(*SpanNode) { walked++ })
	if walked != 4 {
		t.Fatalf("Walk visited %d nodes, want 4", walked)
	}
}

// TestFinishedRingBoundsMemory is the regression test for the unbounded
// finished-span growth bug: a long-lived daemon tracing per-request
// spans (appserver.request) must hold no more than the configured cap no
// matter how many spans end, with evictions counted, drop-oldest order
// preserved, and memory flat.
func TestFinishedRingBoundsMemory(t *testing.T) {
	const (
		total = 100_000
		cap   = 1024
	)
	tr := NewTracer("appserver")
	tr.SetFinishedCap(cap)
	for i := 0; i < total; i++ {
		sp := tr.StartSpan("appserver.request", SpanContext{})
		sp.SetAttr("seq", strconv.Itoa(i))
		sp.End()
	}
	fin := tr.Finished()
	if len(fin) != cap {
		t.Fatalf("retained %d spans, want cap %d", len(fin), cap)
	}
	if got := tr.Dropped(); got != total-cap {
		t.Fatalf("Dropped() = %d, want %d", got, total-cap)
	}
	// Drop-oldest: the survivors are exactly the newest cap spans, in End
	// order.
	for i, rec := range fin {
		if want := strconv.Itoa(total - cap + i); rec.Attrs["seq"] != want {
			t.Fatalf("fin[%d].seq = %s, want %s", i, rec.Attrs["seq"], want)
		}
	}

	// Shrinking the cap evicts the oldest immediately.
	tr.SetFinishedCap(16)
	if got := len(tr.Finished()); got != 16 {
		t.Fatalf("after shrink: retained %d, want 16", got)
	}
	if got := tr.Dropped(); got != total-16 {
		t.Fatalf("after shrink: Dropped() = %d, want %d", got, total-16)
	}
	if last := tr.Finished()[15]; last.Attrs["seq"] != strconv.Itoa(total-1) {
		t.Fatalf("newest span evicted by shrink: seq = %s", last.Attrs["seq"])
	}

	tr.Reset()
	if tr.Dropped() != 0 || len(tr.Finished()) != 0 {
		t.Fatal("Reset did not clear the ring and dropped counter")
	}
}

// TestFinishedRingDefaultCap pins the default bound: NewTracer must not
// retain more than defaultFinishedCap spans.
func TestFinishedRingDefaultCap(t *testing.T) {
	tr := NewTracer("svc")
	for i := 0; i < defaultFinishedCap+100; i++ {
		tr.StartSpan("s", SpanContext{}).End()
	}
	if got := len(tr.Finished()); got != defaultFinishedCap {
		t.Fatalf("retained %d spans, want %d", got, defaultFinishedCap)
	}
	if got := tr.Dropped(); got != 100 {
		t.Fatalf("Dropped() = %d, want 100", got)
	}
}

func TestNewIDUniqueAndNonZero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatal("newID returned 0")
		}
		if seen[id] {
			t.Fatalf("newID repeated %x", id)
		}
		seen[id] = true
	}
}
