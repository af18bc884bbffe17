package katran

import (
	"sync"
	"sync/atomic"
)

// flowTable is the routing memory behind Steer and the LB's only
// flow-pinning tier — §5.1's "connection table cache for the most recent
// flows": a compact, bounded-memory, O(1)-update hash table pinning flow
// hashes to backends, in the spirit of Concury's stateless-ish connection
// table and the stateful/stateless tradeoff analysis in *LB Scalability*
// (PAPERS.md). It absorbs momentary shuffles of the routing ring and is
// sized for every established flow an instance carries:
//
//   - Bounded memory per flow: each entry is exactly 16 bytes (flow hash +
//     packed slot/epoch word) in flat, pointer-free arrays allocated once
//     at construction. A million flows cost 16 MiB and zero GC pressure.
//   - O(1) update: entries live in 8-way buckets addressed by a splitmix64
//     of the flow hash; a full bucket evicts its oldest-generation entry
//     in place. No linked lists, no rehashing, no growth.
//   - Generation-tagged entries: every entry records the release epoch it
//     was written under. A takeover that must flip routing for millions of
//     established flows bumps the epoch ONCE (bump(true) publishes a new
//     view whose validity window excludes all earlier generations) instead
//     of issuing N per-entry writes; stale entries are lazily overwritten
//     by the next packet of their flow, which is O(1) per packet. The
//     chaos tests pin this by asserting EntryWrites() does not move across
//     a bump.
//
// Backend identity is interned: names map to stable uint16 slots in an
// immutable view published through an atomic pointer. Marking a backend
// unhealthy or drained tombstones its slot in a fresh view — again one
// O(1) publication flipping every flow pinned to it — and re-admitting it
// revives the slot, so flows return to their §5.1-consistent home.
//
// The LB publishes its table: each view it derives is carried inside the
// LB's routing View, so Steer resolves a pin and its Backend record from
// the one snapshot it loaded.
//
// All methods are safe for concurrent use: lookups take one shard mutex
// held for a handful of word operations; view publications are lock-free
// for readers.
type flowTable struct {
	shardMask  uint64
	bucketMask uint64
	shardBits  uint

	view atomic.Pointer[flowTableView]

	mu         sync.Mutex // serializes view publications (control plane)
	epochBumps uint64     // bumps published, under mu
	shards     []flowTableShard
}

// flowTableEntry is one pinned flow: 16 bytes, no pointers.
type flowTableEntry struct {
	key  uint64 // flow hash
	meta uint64 // bit 63: occupied; bits 47..32: backend slot; bits 31..0: epoch
}

const (
	ftOccupied  = uint64(1) << 63
	ftSlotShift = 32
	ftEpochMask = uint64(0xffffffff)

	// ftBucketWay is the bucket associativity: a full bucket evicts its
	// oldest-generation entry, so the table degrades by forgetting the
	// stalest pins first instead of growing.
	ftBucketWay = 8
)

func ftMeta(slot uint16, epoch uint32) uint64 {
	return ftOccupied | uint64(slot)<<ftSlotShift | uint64(epoch)
}

func (e flowTableEntry) occupied() bool { return e.meta&ftOccupied != 0 }
func (e flowTableEntry) slot() uint16   { return uint16(e.meta >> ftSlotShift) }
func (e flowTableEntry) epoch() uint32  { return uint32(e.meta & ftEpochMask) }

// flowTableShard owns a contiguous run of buckets under one lock, padded
// to 128 bytes — two cache lines, one adjacent-line-prefetch pair — so
// adjacent shard locks never false-share.
type flowTableShard struct {
	mu      sync.Mutex
	entries []flowTableEntry // bucketsPerShard × ftBucketWay
	count   int
	// writes counts entry mutations (insert, in-place update, eviction).
	// Epoch bumps and backend-set changes must never move it — that is
	// the O(1)-flip property the chaos suite asserts.
	writes uint64
	_      [128 - 8 - 24 - 8 - 8]byte
}

// flowTableView is one immutable generation view. Readers load it
// lock-free; publications swap in a fresh value.
type flowTableView struct {
	// epoch is the current release generation; new entries are tagged
	// with it.
	epoch uint32
	// minEpoch is the oldest generation still routable. Entries tagged
	// below it are dead regardless of their slot — the O(1) mass
	// invalidation a takeover uses to flip millions of flows at once.
	minEpoch uint32
	// backends maps slot -> backend record (as of the slot's last
	// admission). Slots are stable for the table's lifetime so re-admitted
	// backends revive their pinned flows.
	backends []Backend
	// live marks slots currently routable; a drained backend's slot is
	// tombstoned (false) in one publication.
	live []bool
	// slots maps backend name -> slot.
	slots map[string]uint16
}

// defaultFlowTableShards is the shard count used when shards <= 0.
const defaultFlowTableShards = 64

// maxFlowTableSlots bounds interned backend identities (slot is 16 bits).
const maxFlowTableSlots = 1 << 16

// newFlowTable creates a table holding about capacity flows, split over
// shards locks (both rounded up to powers of two; shards <= 0 selects
// defaultFlowTableShards). Memory is allocated once: capacity × 16 bytes.
func newFlowTable(capacity, shards int) *flowTable {
	if capacity < ftBucketWay {
		capacity = ftBucketWay
	}
	nShards := 1
	if shards <= 0 {
		shards = defaultFlowTableShards
	}
	for nShards < shards {
		nShards <<= 1
	}
	totalBuckets := 1
	for totalBuckets*ftBucketWay < capacity {
		totalBuckets <<= 1
	}
	if totalBuckets < nShards {
		nShards = totalBuckets
	}
	bucketsPerShard := totalBuckets / nShards

	t := &flowTable{
		shardMask:  uint64(nShards - 1),
		bucketMask: uint64(bucketsPerShard - 1),
		shardBits:  uint(bitsFor(nShards)),
		shards:     make([]flowTableShard, nShards),
	}
	for i := range t.shards {
		t.shards[i].entries = make([]flowTableEntry, bucketsPerShard*ftBucketWay)
	}
	t.view.Store(&flowTableView{
		epoch:    1,
		minEpoch: 1,
		slots:    map[string]uint16{},
	})
	return t
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// shardMix is the splitmix64 finalizer: shard and bucket choice must not
// correlate with low flow-hash bits (sequential connection IDs would
// otherwise pile onto a few shards).
func shardMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// locate returns the shard and the first entry index of flow's bucket.
func (t *flowTable) locate(flow uint64) (*flowTableShard, int) {
	h := shardMix(flow)
	s := &t.shards[h&t.shardMask]
	bucket := (h >> t.shardBits) & t.bucketMask
	return s, int(bucket) * ftBucketWay
}

// capacity returns the number of entry sockets the table holds.
func (t *flowTable) capacity() int {
	return len(t.shards) * len(t.shards[0].entries)
}

// Len returns the number of occupied entries (including ones whose
// generation has been invalidated but not yet overwritten).
func (t *flowTable) Len() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += s.count
		s.mu.Unlock()
	}
	return total
}

// setBackends publishes the routable backend set, in the order given
// (slot assignment follows it, so callers sort): each keeps (or is
// assigned) a stable slot and is marked live; every previously known name
// missing from live has its slot tombstoned, flipping all flows pinned to
// it in this one O(1) publication. Entry arrays are untouched. It returns
// the published view.
func (t *flowTable) setBackends(live []Backend) *flowTableView {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.view.Load()
	nv := &flowTableView{
		epoch:    old.epoch,
		minEpoch: old.minEpoch,
		backends: append([]Backend(nil), old.backends...),
		live:     make([]bool, len(old.live), len(old.live)+len(live)),
		slots:    make(map[string]uint16, len(old.slots)+len(live)),
	}
	for k, v := range old.slots {
		nv.slots[k] = v
	}
	for _, b := range live {
		slot, ok := nv.slots[b.Name]
		if !ok {
			if len(nv.backends) >= maxFlowTableSlots {
				continue // slot space exhausted: flows fall through to the policy
			}
			slot = uint16(len(nv.backends))
			nv.slots[b.Name] = slot
			nv.backends = append(nv.backends, b)
			nv.live = append(nv.live, false)
		}
		nv.backends[slot] = b
		nv.live[slot] = true
	}
	t.view.Store(nv)
	return nv
}

// bump advances the release generation and returns the published view.
// With invalidate, the validity window closes behind the new epoch: every
// entry written under an older generation is dead after this single
// publication — the O(1) routing flip for a takeover that must not touch
// N entries. Without invalidate, existing pins stay routable and only new
// writes carry the new tag (bookkeeping bump, e.g. a release that kept
// the backend set).
func (t *flowTable) bump(invalidate bool) *flowTableView {
	t.mu.Lock()
	defer t.mu.Unlock()
	nv := *t.view.Load()
	nv.epoch++
	if invalidate {
		nv.minEpoch = nv.epoch
	}
	t.view.Store(&nv)
	t.epochBumps++
	return &nv
}

// resolve checks an entry against a view: the entry must be from a
// still-routable generation and point at a live slot.
func (v *flowTableView) resolve(e flowTableEntry) (slot uint16, ok bool) {
	if !e.occupied() {
		return 0, false
	}
	ep := e.epoch()
	if ep < v.minEpoch || ep > v.epoch {
		return 0, false
	}
	slot = e.slot()
	if int(slot) >= len(v.live) || !v.live[slot] {
		return 0, false
	}
	return slot, true
}

// findLocked returns the index of flow's entry in the bucket at base, or
// -1. Caller holds s.mu.
func (s *flowTableShard) findLocked(base int, flow uint64) int {
	for i := base; i < base+ftBucketWay; i++ {
		if e := s.entries[i]; e.occupied() && e.key == flow {
			return i
		}
	}
	return -1
}

// lookup resolves flow's pin against v, the view the caller is routing by.
func (t *flowTable) lookup(v *flowTableView, flow uint64) (slot uint16, ok bool) {
	s, base := t.locate(flow)
	s.mu.Lock()
	if at := s.findLocked(base, flow); at >= 0 {
		slot, ok = v.resolve(s.entries[at])
	}
	s.mu.Unlock()
	return slot, ok
}

// storeLocked writes {flow, meta} into the bucket at base: in place when
// flow is already pinned, into a free socket otherwise, evicting the
// oldest-generation entry when the bucket is full. Caller holds s.mu.
func (s *flowTableShard) storeLocked(base int, flow, meta uint64) {
	free, victim := -1, base
	victimEpoch := uint32(0xffffffff)
	for i := base; i < base+ftBucketWay; i++ {
		e := s.entries[i]
		if !e.occupied() {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.key == flow {
			s.entries[i].meta = meta
			s.writes++
			return
		}
		if ep := e.epoch(); ep < victimEpoch {
			victimEpoch, victim = ep, i
		}
	}
	at := free
	if at < 0 {
		at = victim // overwrite the stalest generation's pin
	} else {
		s.count++
	}
	s.entries[at] = flowTableEntry{key: flow, meta: meta}
	s.writes++
}

// occupancy returns Len()/capacity() in parts per thousand, the gauge the
// fleet telemetry scrapes.
func (t *flowTable) occupancy() int {
	c := t.capacity()
	if c == 0 {
		return 0
	}
	return t.Len() * 1000 / c
}
