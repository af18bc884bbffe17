package katran

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestFlowTableBasic(t *testing.T) {
	ft := NewFlowTable(1024, 4)
	ft.SetBackends([]string{"a", "b"})

	if _, ok := ft.Lookup(7); ok {
		t.Fatal("lookup on empty table hit")
	}
	if !ft.Insert(7, "a") {
		t.Fatal("insert of interned backend failed")
	}
	if name, ok := ft.Lookup(7); !ok || name != "a" {
		t.Fatalf("lookup = %q,%v want a,true", name, ok)
	}
	if ft.Insert(8, "nope") {
		t.Fatal("insert of unknown backend succeeded")
	}
	if ft.Len() != 1 {
		t.Fatalf("Len = %d want 1", ft.Len())
	}
}

// TestFlowTableEntrySize pins the bounded-memory-per-flow claim: one
// entry is exactly 16 bytes and carries no pointers.
func TestFlowTableEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(flowTableEntry{}); got != 16 {
		t.Fatalf("flowTableEntry is %d bytes, want 16", got)
	}
}

// TestFlowTableShardStride pins the shard padding: adjacent shard locks
// must live a full prefetch pair (128 bytes) apart.
func TestFlowTableShardStride(t *testing.T) {
	if got := unsafe.Sizeof(flowTableShard{}); got != 128 {
		t.Fatalf("flowTableShard is %d bytes, want 128", got)
	}
}

// TestFlowTableTombstoneAndRevive: tombstoning a backend flips every flow
// pinned to it in one view publication; re-admitting it revives them
// (the §5.1 consistency property at table scale).
func TestFlowTableTombstoneAndRevive(t *testing.T) {
	ft := NewFlowTable(1024, 4)
	ft.SetBackends([]string{"a", "b"})
	for f := uint64(0); f < 100; f++ {
		ft.Insert(f, "a")
	}
	writes := ft.EntryWrites()

	ft.SetBackends([]string{"b"}) // a drained
	for f := uint64(0); f < 100; f++ {
		if name, ok := ft.Lookup(f); ok {
			t.Fatalf("flow %d still routes to tombstoned backend %q", f, name)
		}
	}
	ft.SetBackends([]string{"a", "b"}) // a back
	for f := uint64(0); f < 100; f++ {
		if name, ok := ft.Lookup(f); !ok || name != "a" {
			t.Fatalf("flow %d did not revive to a: %q,%v", f, name, ok)
		}
	}
	if got := ft.EntryWrites(); got != writes {
		t.Fatalf("backend-set flips wrote entries: %d -> %d", writes, got)
	}
}

// TestFlowTableEpochBumpIsO1 is the acceptance property: a takeover flips
// routing for every pinned flow with a single epoch bump — zero per-entry
// writes — and afterwards no flow resolves from the drained generation.
func TestFlowTableEpochBumpIsO1(t *testing.T) {
	const flows = 200_000
	ft := NewFlowTable(flows*2, 0)
	ft.SetBackends([]string{"a", "b", "c"})
	for f := uint64(0); f < flows; f++ {
		ft.Insert(f, []string{"a", "b", "c"}[f%3])
	}
	occupied := ft.Len()
	writesBefore := ft.EntryWrites()

	ft.Bump(true) // the takeover: one O(1) publication

	if got := ft.EntryWrites(); got != writesBefore {
		t.Fatalf("epoch bump performed %d per-entry writes, want 0", got-writesBefore)
	}
	if ft.EpochBumps() != 1 {
		t.Fatalf("EpochBumps = %d want 1", ft.EpochBumps())
	}
	// Every pre-bump pin is dead (drained generation)...
	for _, f := range []uint64{0, 1, 2, flows / 2, flows - 1} {
		if name, ok := ft.Lookup(f); ok {
			t.Fatalf("flow %d still routes to drained generation via %q", f, name)
		}
	}
	// ...while the entries still occupy their sockets until overwritten.
	if ft.Len() != occupied {
		t.Fatalf("bump changed occupancy %d -> %d (should be lazy)", occupied, ft.Len())
	}
	// New pins under the new generation route normally and reclaim the
	// same sockets in place.
	if !ft.Insert(1, "b") {
		t.Fatal("post-bump insert failed")
	}
	if name, ok := ft.Lookup(1); !ok || name != "b" {
		t.Fatalf("post-bump lookup = %q,%v want b,true", name, ok)
	}
	if ft.Len() != occupied {
		t.Fatalf("in-place re-pin changed occupancy %d -> %d", occupied, ft.Len())
	}
}

// TestFlowTableBumpWithoutInvalidate: a bookkeeping bump keeps old pins
// routable.
func TestFlowTableBumpWithoutInvalidate(t *testing.T) {
	ft := NewFlowTable(256, 2)
	ft.SetBackends([]string{"a"})
	ft.Insert(1, "a")
	ft.Bump(false)
	if name, ok := ft.Lookup(1); !ok || name != "a" {
		t.Fatalf("pin lost across non-invalidating bump: %q,%v", name, ok)
	}
}

// TestFlowTableEvictsOldestGeneration: a full bucket overwrites the entry
// from the stalest generation, so memory stays bounded and fresh pins
// win.
func TestFlowTableEvictsOldestGeneration(t *testing.T) {
	// Smallest table: one shard, one bucket of ftBucketWay entries.
	ft := NewFlowTable(ftBucketWay, 1)
	ft.SetBackends([]string{"a", "b"})
	var flows []uint64
	for f := uint64(0); len(flows) < ftBucketWay+1; f++ {
		flows = append(flows, f) // single bucket: all flows collide
	}
	ft.Insert(flows[0], "a")
	ft.Bump(false) // flows[0] is now the oldest generation
	for _, f := range flows[1 : ftBucketWay+1] {
		ft.Insert(f, "b")
	}
	if _, ok := ft.Lookup(flows[0]); ok {
		t.Fatal("oldest-generation entry survived a full-bucket insert")
	}
	if name, ok := ft.Lookup(flows[ftBucketWay]); !ok || name != "b" {
		t.Fatalf("newest entry missing: %q,%v", name, ok)
	}
	if ft.Len() != ftBucketWay {
		t.Fatalf("Len = %d want %d (bounded)", ft.Len(), ftBucketWay)
	}
}

// TestLBSteerUsesFlowTable: LB-level integration — the table is sized by
// the larger of FlowCacheSize and FlowTableSize, pins every flow it was
// sized for, and the counters attribute hits to it.
func TestLBSteerUsesFlowTable(t *testing.T) {
	lb := New("t", Config{FlowCacheSize: 8, FlowTableSize: 1 << 14}, nil)
	defer lb.Close()
	for i := 0; i < 8; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("p%d", i), Addr: "x"}, true)
	}
	const flows = 4096 // far beyond FlowCacheSize, well within FlowTableSize
	want := make(map[uint64]string, flows)
	for f := uint64(0); f < flows; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = b.Name
	}
	for f := uint64(0); f < flows; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != want[f] {
			t.Fatalf("flow %d moved %s -> %s", f, want[f], b.Name)
		}
	}
	if lb.Metrics().CounterValue("katran.steer.flowtable_hit") == 0 {
		t.Fatal("no flow-table hits recorded")
	}
	if lb.Metrics().GaugeValue("katran.flowtable.epoch") == 0 {
		t.Fatal("epoch gauge not exported")
	}
}

// TestLBAdvanceGenerationDrainsPins is the epoch-bump-during-steer chaos
// test: steering runs hot while AdvanceGeneration(true) flips the table,
// and (a) the flip itself performs zero per-entry writes, (b) after the
// flip no flow ever resolves from the drained generation — observed as:
// flows pinned to a backend that left the routing ring before the bump
// never steer to it after the bump, even though their dead entries still
// sit in the table.
func TestLBAdvanceGenerationDrainsPins(t *testing.T) {
	lb := New("t", Config{FlowTableSize: 1 << 15}, nil)
	defer lb.Close()
	const backends = 8
	for i := 0; i < backends; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("p%d", i), Addr: "x"}, true)
	}
	const flows = 8192
	pinnedToVictim := map[uint64]bool{}
	for f := uint64(0); f < flows; f++ {
		b, err := lb.Steer(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name == "p0" {
			pinnedToVictim[f] = true
		}
	}
	if len(pinnedToVictim) == 0 {
		t.Fatal("no flows pinned to victim")
	}

	// The write count is scoped to the bump: the table's counter cannot
	// say which goroutine wrote, so for the two reads that bracket
	// AdvanceGeneration the steer workers — which insert and re-pin all
	// the time — wait at a gate, and every write between the reads is the
	// bump's own. They steer concurrently before and after, which is what
	// the routing assertion needs.
	const workers = 4
	var stop, bumped atomic.Bool
	var gate sync.RWMutex // workers steer under RLock; the bracket takes Lock
	errs := make(chan string, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				f := uint64(rng.Intn(flows))
				gate.RLock()
				b, err := lb.Steer(f)
				after := bumped.Load()
				gate.RUnlock()
				if err != nil {
					continue
				}
				if after && b.Name == "p0" {
					select {
					case errs <- fmt.Sprintf("flow %d routed to drained p0 after bump", f):
					default:
					}
					return
				}
			}
		}(int64(w))
	}

	// The release: victim leaves the ring, then the takeover bumps the
	// generation. Order matters — after the bump, nothing may route to
	// p0 anymore.
	lb.RemoveBackend("p0")
	gate.Lock()
	writesBefore := lb.FlowTable().EntryWrites()
	lb.AdvanceGeneration(true)
	bumpWrites := lb.FlowTable().EntryWrites() - writesBefore
	bumped.Store(true)
	gate.Unlock()

	// Let the steer workers hammer the post-bump table for a while.
	for f := uint64(0); f < flows; f++ {
		if b, err := lb.Steer(f); err == nil && b.Name == "p0" {
			t.Fatalf("flow %d routed to drained p0 after bump", f)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if bumpWrites != 0 {
		t.Fatalf("AdvanceGeneration performed %d per-entry writes, want 0 (O(1) flip)", bumpWrites)
	}
	if lb.Metrics().CounterValue("katran.flowtable.bumps") != 1 {
		t.Fatal("bump counter not recorded")
	}
}

// TestFlowTableSoak interleaves Lookup/Insert/Len/Bump/SetBackends
// across shards from many goroutines; under -race this pins
// the locking discipline of every table op against concurrent view
// publications.
func TestFlowTableSoak(t *testing.T) {
	ft := NewFlowTable(1<<12, 8)
	names := []string{"a", "b", "c", "d"}
	ft.SetBackends(names)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				f := uint64(rng.Intn(1 << 13))
				switch i % 5 {
				case 0, 1, 2:
					ft.Lookup(f)
				case 3:
					ft.Insert(f, names[i%len(names)])
				case 4:
					if ft.Len() > ft.capacity() {
						t.Errorf("Len %d exceeds capacity %d", ft.Len(), ft.capacity())
					}
				}
				if w == 0 && i%1000 == 999 {
					ft.Bump(i%2000 == 999)
					ft.SetBackends(names[:1+i%len(names)])
				}
			}
		}(w)
	}
	wg.Wait()
	if ft.Len() > ft.capacity() {
		t.Fatalf("Len %d exceeds capacity %d", ft.Len(), ft.capacity())
	}
}
