package disrupt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestKindTaxonomy(t *testing.T) {
	want := map[Kind]string{
		KindAccept: "accept", KindHandoff: "handoff", KindDrain: "drain",
		KindUndo: "undo", KindReset: "reset", KindTimeout: "timeout",
		KindRetry: "retry", KindReattach: "reattach", KindFault: "fault",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind name = %q", Kind(200).String())
	}
	for _, k := range []Kind{KindReset, KindTimeout, KindFault} {
		if !k.Terminal() {
			t.Fatalf("%s not terminal", k)
		}
	}
	for _, k := range []Kind{KindAccept, KindHandoff, KindDrain, KindUndo, KindRetry, KindReattach} {
		if k.Terminal() {
			t.Fatalf("%s terminal", k)
		}
	}
}

func TestLedgerAttribution(t *testing.T) {
	l := New("edge-01", 64)
	l.SetPhase("serving", 1)
	l.Record(KindAccept, 1, "web", "", "")
	l.Record(KindReset, 1, "web", "edge:upstream", "dial refused")
	l.SetPhase("draining", 1)
	l.Record(KindReset, 2, "web", "edge:upstream", "")
	l.Record(KindReset, 3, "web", "edge:no-origin", "")
	l.SetPhase("committed-awaiting-ready", 2)
	l.Record(KindTimeout, 4, "mqtt", "dcr:reconnect-timeout", "")

	r := l.Report()
	if r.Node != "edge-01" {
		t.Fatalf("node = %q", r.Node)
	}
	if r.Total != 5 || r.Terminal != 4 || r.Unattributed != 0 {
		t.Fatalf("total=%d terminal=%d unattributed=%d", r.Total, r.Terminal, r.Unattributed)
	}
	if r.ByKind["reset"] != 3 || r.ByKind["accept"] != 1 || r.ByKind["timeout"] != 1 {
		t.Fatalf("by kind: %v", r.ByKind)
	}
	wantCells := map[string]int64{
		"edge:upstream/serving/1":                          1,
		"edge:upstream/draining/1":                         1,
		"edge:no-origin/draining/1":                        1,
		"dcr:reconnect-timeout/committed-awaiting-ready/2": 1,
	}
	if len(r.Cells) != len(wantCells) {
		t.Fatalf("cells: %+v", r.Cells)
	}
	var attributed int64
	for _, c := range r.Cells {
		key := fmt.Sprintf("%s/%s/%d", c.Cause, c.Phase, c.Generation)
		if wantCells[key] != c.Count {
			t.Fatalf("cell %s = %d, want %d", key, c.Count, wantCells[key])
		}
		if c.Node != "edge-01" {
			t.Fatalf("cell node = %q", c.Node)
		}
		attributed += c.Count
	}
	if attributed != r.Terminal {
		t.Fatalf("attributed %d != terminal %d", attributed, r.Terminal)
	}

	// Phase stamping on the event stream itself.
	evs := l.Recent(10)
	if len(evs) != 5 {
		t.Fatalf("recent = %d events", len(evs))
	}
	if evs[1].Phase != "serving" || evs[1].Generation != 1 {
		t.Fatalf("event phase stamp: %+v", evs[1])
	}
	if evs[4].Phase != "committed-awaiting-ready" || evs[4].Generation != 2 {
		t.Fatalf("event phase stamp: %+v", evs[4])
	}
}

func TestLedgerUnattributed(t *testing.T) {
	l := New("edge-02", 16)
	l.Record(KindReset, 1, "web", "", "terminal with no cause")
	l.Record(KindRetry, 2, "web", "", "non-terminal needs no cause")
	r := l.Report()
	if r.Unattributed != 1 {
		t.Fatalf("unattributed = %d, want 1", r.Unattributed)
	}
	if len(r.Cells) != 0 {
		t.Fatalf("unattributed event produced a cell: %+v", r.Cells)
	}
}

func TestLedgerRingWrap(t *testing.T) {
	l := New("edge-03", 8) // power of two already
	for i := 0; i < 100; i++ {
		l.Record(KindAccept, uint64(i), "web", "", "")
	}
	evs := l.Recent(100)
	if len(evs) != 8 {
		t.Fatalf("recent after wrap = %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(92 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if r := l.Report(); r.Total != 100 {
		t.Fatalf("aggregate total = %d, want 100 (ring must not bound totals)", r.Total)
	}
}

// TestLedgerHoldsNoRingUntilRecorded: New allocates the page table and no
// page, a Record makes the one page it lands in, and Recent reads across
// page boundaries, over pages nobody has made and over a wrap as it did
// over one slice.
func TestLedgerHoldsNoRingUntilRecorded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := New("origin-01", 0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("New allocated %d bytes, want < 16 KiB", got)
	}
	made := func() (n int) {
		for i := range l.pages {
			if l.pages[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if evs := l.Recent(DefaultCapacity); len(evs) != 0 || made() != 0 {
		t.Fatalf("empty ledger: %d events, %d pages", len(evs), made())
	}
	contiguous := func(evs []Event, first, n uint64) {
		t.Helper()
		if uint64(len(evs)) != n {
			t.Fatalf("recent = %d events, want %d", len(evs), n)
		}
		for i, ev := range evs {
			if ev.Seq != first+uint64(i) || ev.Conn != ev.Seq {
				t.Fatalf("event %d: seq %d conn %d, want %d", i, ev.Seq, ev.Conn, first+uint64(i))
			}
		}
	}
	for i := uint64(0); i < pageSlots+6; i++ {
		l.Record(KindAccept, i, "web", "", "")
	}
	contiguous(l.Recent(DefaultCapacity), 0, pageSlots+6)
	if made() != 2 {
		t.Fatalf("%d pages made for %d events, want 2", made(), pageSlots+6)
	}
	for i := uint64(pageSlots + 6); i < DefaultCapacity+pageSlots+6; i++ {
		l.Record(KindAccept, i, "web", "", "")
	}
	contiguous(l.Recent(2*DefaultCapacity), pageSlots+6, DefaultCapacity)
	contiguous(l.Recent(pageSlots+1), DefaultCapacity+5, pageSlots+1)

	// Concurrent Records reaching a page together make it once: no event
	// lands in a page that loses the race and is dropped.
	l = New("edge-01", 0)
	const writers, each = 8, DefaultCapacity / 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record(KindAccept, 0, "web", "", "")
				l.Recent(pageSlots)
			}
		}()
	}
	wg.Wait()
	if evs := l.Recent(DefaultCapacity); len(evs) != DefaultCapacity {
		t.Fatalf("%d of %d concurrent events readable", len(evs), DefaultCapacity)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Record(KindReset, 1, "web", "cause", "")
	l.SetPhase("draining", 1)
	if p, g := l.Phase(); p != "" || g != 0 {
		t.Fatal("nil phase")
	}
	if r := l.Report(); r.Total != 0 {
		t.Fatal("nil report")
	}
	if evs := l.Recent(5); evs != nil {
		t.Fatal("nil recent")
	}
	if l.Node() != "" {
		t.Fatal("nil node")
	}
}

func TestReportMerge(t *testing.T) {
	a := New("edge-01", 16)
	a.SetPhase("draining", 2)
	a.Record(KindReset, 1, "web", "edge:upstream", "")
	a.Record(KindReset, 2, "web", "edge:upstream", "")
	b := New("edge-02", 16)
	b.SetPhase("serving", 1)
	b.Record(KindTimeout, 1, "mqtt", "dcr:reconnect-timeout", "")
	b.Record(KindReset, 9, "web", "", "bug: no cause")

	m := a.Report().Merge(b.Report())
	if m.Total != 4 || m.Terminal != 4 || m.Unattributed != 1 {
		t.Fatalf("merged total=%d terminal=%d unattributed=%d", m.Total, m.Terminal, m.Unattributed)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("merged cells: %+v", m.Cells)
	}
	nodes := map[string]bool{}
	for _, c := range m.Cells {
		nodes[c.Node] = true
	}
	if !nodes["edge-01"] || !nodes["edge-02"] {
		t.Fatalf("merge lost per-node identity: %+v", m.Cells)
	}
	cp := m.CausePhaseTotals()
	if len(cp) != 2 {
		t.Fatalf("cause-phase totals: %+v", cp)
	}
	if m.ByKind["reset"] != 3 {
		t.Fatalf("merged by-kind: %v", m.ByKind)
	}
}

// TestLedgerConcurrency is the -race test the satellite asks for:
// concurrent writers racing a reader mid-"takeover" (phase flips while
// events stream in). Asserts nothing is lost from the aggregates.
func TestLedgerConcurrency(t *testing.T) {
	l := New("edge-chaos", 256)
	const writers, perWriter = 8, 2000

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Flip phases like a takeover in progress.
			switch i % 3 {
			case 0:
				l.SetPhase("serving", i%5)
			case 1:
				l.SetPhase("draining", i%5)
			case 2:
				l.SetPhase("rolling-back", i%5)
			}
			r := l.Report()
			if r.Unattributed != 0 {
				panic("unattributed event appeared")
			}
			_ = l.Recent(64)
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 4 {
				case 0:
					l.Record(KindAccept, uint64(i), "web", "", "")
				case 1:
					l.Record(KindReset, uint64(i), "web", "edge:upstream", "")
				case 2:
					l.Record(KindRetry, uint64(i), "web", "", "")
				case 3:
					l.Record(KindHandoff, uint64(i), "web", "", "")
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	r := l.Report()
	if want := int64(writers * perWriter); r.Total != want {
		t.Fatalf("total = %d, want %d", r.Total, want)
	}
	if want := int64(writers * perWriter / 4); r.Terminal != want {
		t.Fatalf("terminal = %d, want %d", r.Terminal, want)
	}
	var attributed int64
	for _, c := range r.Cells {
		attributed += c.Count
	}
	if attributed != r.Terminal || r.Unattributed != 0 {
		t.Fatalf("attributed=%d terminal=%d unattributed=%d", attributed, r.Terminal, r.Unattributed)
	}
}

func BenchmarkLedgerRecord(b *testing.B) {
	l := New("bench", 4096)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Record(KindAccept, 1, "web", "", "")
		}
	})
}
