package consistent

import (
	"fmt"
	"sort"
)

// Declarations only this package's tests call: no non-test code uses them.

// Add inserts a member into the ring.
func (r *Ring) Add(member string) {
	for _, m := range r.members {
		if m == member {
			return
		}
	}
	r.add(member)
	sort.Slice(r.keys, func(i, j int) bool { return r.keys[i] < r.keys[j] })
	sort.Strings(r.members)
}

// Remove deletes a member and all its virtual nodes.
func (r *Ring) Remove(member string) {
	idx := -1
	for i, m := range r.members {
		if m == member {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	r.members = append(r.members[:idx], r.members[idx+1:]...)
	kept := r.keys[:0]
	for _, k := range r.keys {
		if r.owner[k] == member {
			delete(r.owner, k)
		} else {
			kept = append(kept, k)
		}
	}
	r.keys = kept
}

// Disruption reports, for the key space sampled with n keys, the fraction
// of keys that map differently between two pickers. It quantifies the
// "minimal disruption" property the paper depends on for connection
// stickiness across membership changes.
func Disruption(a, b picker, n int) float64 {
	if n <= 0 {
		n = 10_000
	}
	moved := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("flow-%d", i)
		if a.Pick(k) != b.Pick(k) {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// LoadSpread reports min/max share of n sampled keys across members for a
// picker, as fractions of a perfectly even share (1.0 = perfectly even).
func LoadSpread(p picker, n int) (minShare, maxShare float64) {
	members := p.Members()
	if len(members) == 0 || n <= 0 {
		return 0, 0
	}
	counts := make(map[string]int, len(members))
	for i := 0; i < n; i++ {
		counts[p.Pick(fmt.Sprintf("flow-%d", i))]++
	}
	even := float64(n) / float64(len(members))
	minShare, maxShare = 1e18, 0
	for _, m := range members {
		share := float64(counts[m]) / even
		if share < minShare {
			minShare = share
		}
		if share > maxShare {
			maxShare = share
		}
	}
	return minShare, maxShare
}

// picker maps a key to one of a set of member names.
type picker interface {
	// Pick returns the member for key, or "" if there are no members.
	Pick(key string) string
	// Members returns the current member set in sorted order.
	Members() []string
}

// Members returns the current member set in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}
