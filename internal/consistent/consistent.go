// Package consistent implements the two consistent-hashing schemes the
// infrastructure relies on.
//
// The paper uses consistent hashing in two places:
//
//   - Katran, the L4 load balancer, picks an L7 proxy for each packet with
//     a Maglev-style lookup table so that flows keep hitting the same proxy
//     even as the set of healthy proxies changes (§2.1, §5.1).
//   - Origin Proxygen locates the MQTT broker holding a user's connection
//     context by consistently hashing the globally unique user-id (§4.2),
//     which is what makes Downstream Connection Reuse possible: any healthy
//     Origin proxy resolves the same user to the same broker.
//
// Both a classic hash Ring (virtual nodes) and a Maglev table are
// provided.
package consistent

import (
	"sort"
)

// fnv64a is a small local FNV-1a so the package has zero dependencies and
// the hash is stable across runs (important: experiments must be
// reproducible).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the splitmix64 finalizer. FNV-1a alone does not diffuse entropy
// into the high bits well enough for binary search over the full 64-bit
// space (ring placement was observed to skew >95% of keys onto one member
// without it), so every hash used for placement is finalized through it.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashKey hashes a lookup key to a well-mixed 64-bit value.
func hashKey(s string) uint64 { return mix64(fnv64a(s)) }

// hashPair hashes a member name and a virtual-node index together.
func hashPair(a string, n int) uint64 {
	return mix64(fnv64a(a) ^ (uint64(n)+1)*0x9e3779b97f4a7c15)
}

// Ring is a classic consistent-hash ring with virtual nodes.
type Ring struct {
	replicas int
	keys     []uint64          // sorted virtual node hashes
	owner    map[uint64]string // virtual node hash -> member
	members  []string          // sorted
}

// NewRing builds a ring with the given number of virtual nodes per member.
// replicas <= 0 defaults to 100.
func NewRing(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = 100
	}
	r := &Ring{replicas: replicas, owner: make(map[uint64]string)}
	for _, m := range members {
		r.add(m)
	}
	sort.Slice(r.keys, func(i, j int) bool { return r.keys[i] < r.keys[j] })
	sort.Strings(r.members)
	return r
}

func (r *Ring) add(member string) {
	for i := 0; i < r.replicas; i++ {
		h := hashPair(member, i)
		if _, dup := r.owner[h]; dup {
			continue // vanishingly rare; the vnode is simply shared
		}
		r.owner[h] = member
		r.keys = append(r.keys, h)
	}
	r.members = append(r.members, member)
}

// Pick returns the member for key, or "" if there are no members.
func (r *Ring) Pick(key string) string {
	if len(r.keys) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= h })
	if i == len(r.keys) {
		i = 0
	}
	return r.owner[r.keys[i]]
}

// Maglev is a Maglev-style consistent-hash lookup table (the scheme Katran
// uses). The table size M should be a prime noticeably larger than the
// number of members; lookups are a single modulo + array index.
type Maglev struct {
	m       int
	table   []int32 // index into members
	members []string
}

// defaultMaglevSize is a prime comfortably larger than any member set used
// in the experiments.
const defaultMaglevSize = 2039

// NewMaglev builds a lookup table of size m (0 means defaultMaglevSize)
// over the given members. m must be prime for good permutation coverage;
// this is not enforced, but non-prime sizes degrade balance.
func NewMaglev(m int, members ...string) *Maglev {
	if m <= 0 {
		m = defaultMaglevSize
	}
	g := &Maglev{m: m}
	g.rebuild(members)
	return g
}

// rebuild recomputes the lookup table for a new member set. Members are
// sorted first so the table is a pure function of the set.
func (g *Maglev) rebuild(members []string) {
	g.members = append([]string(nil), members...)
	sort.Strings(g.members)
	n := len(g.members)
	g.table = make([]int32, g.m)
	for i := range g.table {
		g.table[i] = -1
	}
	if n == 0 {
		return
	}
	// Per-member permutation parameters, as in the Maglev paper.
	offsets := make([]uint64, n)
	skips := make([]uint64, n)
	next := make([]uint64, n)
	for i, name := range g.members {
		offsets[i] = hashKey(name) % uint64(g.m)
		skips[i] = hashKey(name+"#skip")%uint64(g.m-1) + 1
	}
	filled := 0
	for filled < g.m {
		for i := 0; i < n && filled < g.m; i++ {
			// Walk member i's permutation to its next empty slot.
			for {
				c := (offsets[i] + next[i]*skips[i]) % uint64(g.m)
				next[i]++
				if g.table[c] < 0 {
					g.table[c] = int32(i)
					filled++
					break
				}
			}
		}
	}
}

// Pick returns the member for key, or "" if there are no members.
func (g *Maglev) Pick(key string) string {
	if len(g.members) == 0 {
		return ""
	}
	return g.members[g.table[hashKey(key)%uint64(g.m)]]
}

// PickUint is Pick for callers that already have a numeric flow hash.
func (g *Maglev) PickUint(h uint64) string {
	if len(g.members) == 0 {
		return ""
	}
	return g.members[g.table[h%uint64(g.m)]]
}

// Members returns the current member set in sorted order.
func (g *Maglev) Members() []string {
	out := make([]string, len(g.members))
	copy(out, g.members)
	return out
}
