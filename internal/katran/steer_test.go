package katran

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"zdr/internal/racetest"
)

// TestSteerStaleHitNoResurrection: a steer racing a health flip must not
// resurrect a pin to an unhealthy backend. Two steers of one flow and a
// flapping backend keep opening the window in which a re-pin decided
// against an older snapshot could be written after the backend left the
// ring; repin loads the snapshot inside the shard critical section, and a
// tombstoned slot answers no lookup, so a flow whose backend is unhealthy
// must never be served from its pin — run under -race to also pin the
// locking.
func TestSteerStaleHitNoResurrection(t *testing.T) {
	lb := New("t", Config{FlowCacheSize: 1024}, nil)
	defer lb.Close()
	lb.AddBackend(Backend{Name: "victim", Addr: "v"}, true)
	lb.AddBackend(Backend{Name: "stable", Addr: "s"}, true)

	// Find a flow that Maglev maps to victim while it is healthy.
	var flow uint64
	for f := uint64(0); ; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name == "victim" {
			flow = f
			break
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 1)
	start := make(chan struct{})
	const rounds = 2000
	// Two steer workers fighting over the same flow maximizes the
	// interleaving window the old two-critical-section path exposed.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				b, err := lb.Steer(flow)
				if err != nil {
					continue
				}
				// The invariant: the steered backend is healthy in some
				// recently published snapshot. Since only "victim" flaps,
				// catching a pinned "victim" while it is down is the
				// resurrection bug.
				if b.Name == "victim" && !lb.victimHealthyForTest() {
					// Tolerate the benign snapshot race (pick published
					// just before the flap) but not a stale pin being
					// served: re-steer immediately — a resurrected pin
					// keeps answering "victim", a benign race corrects
					// itself on the next snapshot load.
					if b2, err2 := lb.Steer(flow); err2 == nil && b2.Name == "victim" && !lb.victimHealthyForTest() {
						select {
						case errs <- "stale pin to unhealthy victim resurrected":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds/4; i++ {
			lb.SetHealth("victim", false)
			lb.SetHealth("victim", true)
		}
		lb.SetHealth("victim", false)
	}()
	close(start)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Victim is now down for good: its pins must not be served.
	for i := 0; i < 100; i++ {
		b, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name == "victim" {
			t.Fatalf("steer %d returned unhealthy victim from its pin", i)
		}
	}
}

// victimHealthyForTest reads victim's health from the current snapshot.
func (lb *LB) victimHealthyForTest() bool {
	_, ok := lb.route.Load().healthy["victim"]
	return ok
}

// TestSteerConsistencyAcrossTakeover is the §5.1 property under the
// lock-free data plane: while backends flap health (as they do during a
// rolling release) and steering runs concurrently, a flow that was pinned
// to a still-healthy backend keeps landing on that backend.
func TestSteerConsistencyAcrossTakeover(t *testing.T) {
	lb := New("test", Config{FlowCacheSize: 4096}, nil)
	defer lb.Close()
	const backends = 8
	for i := 0; i < backends; i++ {
		lb.AddBackend(Backend{
			Name: fmt.Sprintf("proxy-%d", i),
			Addr: fmt.Sprintf("10.0.0.%d:443", i),
		}, true)
	}
	// "victim" restarts during the run; every flow pinned elsewhere must
	// never move.
	const victim = "proxy-0"
	const flowCount = 512
	pinned := make(map[uint64]string, flowCount)
	for f := uint64(0); f < flowCount; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != victim {
			pinned[f] = b.Name
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for f := uint64(0); f < flowCount; f++ {
					b, err := lb.Steer(f)
					if err != nil {
						continue
					}
					if want, ok := pinned[f]; ok && b.Name != want {
						select {
						case errs <- fmt.Sprintf("flow %d moved %s → %s", f, want, b.Name):
						default:
						}
						return
					}
				}
			}
		}()
	}
	// The release: victim drains, restarts, comes back — repeatedly, so
	// the table shuffles while steering is in flight.
	for i := 0; i < 50; i++ {
		lb.SetHealth(victim, false)
		lb.SetHealth(victim, true)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestRepinValidateAndReplace walks repin's cases by entry-write count: a
// live pin is answered without a write, a stale one is replaced by exactly
// one, and with no backend left the pin is kept so the flow comes home
// when its backend does.
func TestRepinValidateAndReplace(t *testing.T) {
	lb := newLB(t, Config{FlowCacheSize: 64}, "p1", "p2")
	ft := lb.FlowTable()
	first, err := lb.Steer(1)
	if err != nil {
		t.Fatal(err)
	}
	writes := ft.EntryWrites()
	if writes != 1 {
		t.Fatalf("fresh pick wrote %d entries, want 1", writes)
	}

	// Live pin, reached through repin (as a steer that lost the race to a
	// concurrent re-pin would): answered, not rewritten.
	if b, err := lb.repin(1); err != nil || b != first {
		t.Fatalf("repin on a live pin = %v, %v; want %v", b, err, first)
	}
	if ft.EntryWrites() != writes {
		t.Fatal("repin rewrote a live pin")
	}

	lb.SetHealth(first.Name, false)
	second, err := lb.Steer(1)
	if err != nil || second.Name == first.Name {
		t.Fatalf("stale pin re-picked to %v, %v", second, err)
	}
	if got := ft.EntryWrites() - writes; got != 1 {
		t.Fatalf("stale re-pick wrote %d entries, want 1", got)
	}
	if ft.Len() != 1 {
		t.Fatalf("Len = %d after an in-place re-pin, want 1", ft.Len())
	}

	lb.SetHealth(second.Name, false)
	writes = ft.EntryWrites()
	if _, err := lb.Steer(1); !errors.Is(err, errNoBackends) {
		t.Fatalf("steer with no backends: %v", err)
	}
	if ft.EntryWrites() != writes {
		t.Fatal("a steer that found no backend touched the pin")
	}
	lb.SetHealth(second.Name, true)
	if b, err := lb.Steer(1); err != nil || b != second {
		t.Fatalf("flow did not come home: %v, %v; want %v", b, err, second)
	}
}

// TestSnapshotCarriesBackendRecord: a table hit answers with the record
// the backend was last admitted with, not the one it was first interned
// with — the slot is stable, the record is the snapshot's.
func TestSnapshotCarriesBackendRecord(t *testing.T) {
	lb := newLB(t, Config{FlowTableSize: 64})
	lb.AddBackend(Backend{Name: "p", Addr: "old:1"}, true)
	if b, _ := lb.Steer(9); b.Addr != "old:1" {
		t.Fatalf("first steer: %+v", b)
	}
	lb.RemoveBackend("p")
	lb.AddBackend(Backend{Name: "p", Addr: "new:2"}, true)
	b, err := lb.Steer(9)
	if err != nil || b.Addr != "new:2" {
		t.Fatalf("steer after re-admission = %+v, %v; want Addr new:2", b, err)
	}
	if lb.Metrics().CounterValue("katran.steer.flowtable_hit") != 1 {
		t.Fatal("re-admitted backend's flow was not a table hit")
	}
}

// TestSteerAllocatesNothing: the three steer outcomes — table hit, policy
// pick that inserts, stale pin re-picked — and the table-less pick.
func TestSteerAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	lb := newLB(t, Config{FlowCacheSize: 1 << 12, FlowTableSize: 1 << 16}, "p1", "p2", "p3", "p4")
	lb.Steer(42)
	if n := testing.AllocsPerRun(1000, func() { lb.Steer(42) }); n != 0 {
		t.Errorf("table hit: %v allocs/steer", n)
	}
	flow := uint64(1 << 32)
	if n := testing.AllocsPerRun(1000, func() { flow++; lb.Steer(flow) }); n != 0 {
		t.Errorf("policy pick that inserts: %v allocs/steer", n)
	}
	// Every flow pinned to p1 goes stale at once; each run re-pins one.
	var stale []uint64
	for f := uint64(0); len(stale) < 1100; f++ {
		if b, _ := lb.Steer(f); b.Name == "p1" {
			stale = append(stale, f)
		}
	}
	lb.SetHealth("p1", false)
	hits := lb.Metrics().CounterValue("katran.steer.flowtable_hit")
	i := 0
	if n := testing.AllocsPerRun(1000, func() { lb.Steer(stale[i]); i++ }); n != 0 {
		t.Errorf("stale-pin re-pick: %v allocs/steer", n)
	}
	if got := lb.Metrics().CounterValue("katran.steer.flowtable_hit"); got != hits {
		t.Fatalf("%d of the stale steers were table hits", got-hits)
	}

	bare := newLB(t, Config{}, "p1", "p2")
	if n := testing.AllocsPerRun(1000, func() { flow++; bare.Steer(flow) }); n != 0 {
		t.Errorf("table-less pick: %v allocs/steer", n)
	}
}
