package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// errFenced reports a conflict-fence refusal: another rollout already
// holds one of the VIP groups this rollout needs. Draining two Origins
// that share a VIP simultaneously would leave the VIP's downstream-
// connection-reuse pool with no stable side, so overlapping rollouts are
// refused outright rather than interleaved. Test with errors.Is via
// fmt.Errorf wrapping.
type errFenced struct {
	vip    string // the contended VIP group
	holder string // the rollout holding it
}

func (e *errFenced) Error() string {
	return fmt.Sprintf("fleet: vip %q fenced by rollout %q", e.vip, e.holder)
}

// fence serialises rollouts over VIP groups. A rollout acquires every
// VIP its nodes serve before touching any node — all or nothing, so two
// rollouts with overlapping VIP sets cannot both proceed (and cannot
// deadlock: failed acquisition releases everything).
type fence struct {
	mu     sync.Mutex
	holder map[string]string // vip → rollout name
}

// NewFence returns an empty fence.
func NewFence() *fence {
	return &fence{holder: map[string]string{}}
}

// acquire claims every vip for rollout. On conflict nothing is claimed
// and the error identifies the contended VIP and its holder. Empty vips
// ("" = unfenced node) are ignored. Re-acquiring a VIP already held by
// the same rollout is a no-op (resume after crash).
func (f *fence) acquire(rollout string, vips []string) error {
	if f == nil {
		return nil
	}
	uniq := map[string]bool{}
	for _, v := range vips {
		if v != "" {
			uniq[v] = true
		}
	}
	ordered := make([]string, 0, len(uniq))
	for v := range uniq {
		ordered = append(ordered, v)
	}
	sort.Strings(ordered)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range ordered {
		if h, held := f.holder[v]; held && h != rollout {
			return &errFenced{vip: v, holder: h}
		}
	}
	for _, v := range ordered {
		f.holder[v] = rollout
	}
	return nil
}

// release drops every VIP held by rollout.
func (f *fence) release(rollout string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for v, h := range f.holder {
		if h == rollout {
			delete(f.holder, v)
		}
	}
}

// Holder reports which rollout holds vip ("" = unheld).
func (f *fence) Holder(vip string) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.holder[vip]
}
