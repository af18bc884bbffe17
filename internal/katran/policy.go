package katran

import (
	"zdr/internal/consistent"
	"zdr/internal/metrics"
)

// View is one immutable routing snapshot: the Maglev table over the
// healthy backends, the backend records for result lookup, and — when the
// LB pins flows — the flow table's generation window and slot → Backend
// view, so a steer that loaded one View resolves pins and picks against
// the same backend set. Once published it is never mutated — rebuilds
// allocate a fresh one (consistent.Maglev.Rebuild mutates in place, so a
// Maglev is shared only between snapshots that never rebuild it).
// Policies receive the current View on every Pick and may read it freely
// without synchronization.
type View struct {
	maglev  *consistent.Maglev
	healthy map[string]Backend
	pins    *flowTableView // nil when the LB has no flow table
}

// Healthy returns the names of the healthy backends, sorted.
func (v *View) Healthy() []string { return v.maglev.Members() }

// NumHealthy returns the healthy-backend count.
func (v *View) NumHealthy() int { return len(v.healthy) }

// Backend resolves a healthy backend by name.
func (v *View) Backend(name string) (Backend, bool) {
	b, ok := v.healthy[name]
	return b, ok
}

// PickMaglev resolves flow against the Maglev table — the placement-only
// pick every policy can fall back to.
func (v *View) PickMaglev(flow uint64) (Backend, bool) {
	name := v.maglev.PickUint(flow)
	if name == "" {
		return Backend{}, false
	}
	b, ok := v.healthy[name]
	return b, ok
}

// Policy is katran's pluggable steering surface: given a flow hash and
// the current immutable routing View, pick the backend a FRESH flow
// should land on. The LB's flow table (§5.1's connection table) sits in
// front of every policy and keeps established flows where they are, so
// Pick decides only where NEW flows (and flows whose pin went stale) go.
// That precedence is the ZDR contract: a drain-aware policy bleeds new
// flows off a draining generation while the flow table still pins
// established ones.
//
// Lifecycle hooks observe the LB's control plane. They are invoked with
// the LB's control-plane lock held and must not call back into the LB.
type Policy interface {
	// Name identifies the policy in metrics and configuration.
	Name() string
	// Pick selects a backend for a fresh flow against view. It must
	// return a backend whenever view has healthy backends — a policy
	// may deprioritize draining or probe-dead candidates but must never
	// fail a live request while any healthy backend exists.
	Pick(flow uint64, view *View) (Backend, error)
	// BackendUp fires when a backend is admitted to the routing ring
	// (added healthy, or probed back to health).
	BackendUp(b Backend)
	// BackendDown fires when a backend leaves the routing ring (probed
	// unhealthy, or removed).
	BackendDown(name string)
	// AdvanceGeneration observes a release-generation bump on the LB's
	// flow table.
	AdvanceGeneration(epoch uint32, drainOld bool)
	// Close releases policy resources (probe pools, goroutines).
	Close()
}

// PolicyMaglev is the default steering policy: the flow-table→Maglev
// pipeline's terminal pick. Fresh flows place by consistent hash,
// established flows stay pinned by the LB's flow table.
type PolicyMaglev struct{}

// NewPolicyMaglev returns the default placement-only policy.
func NewPolicyMaglev() *PolicyMaglev { return &PolicyMaglev{} }

// Name implements Policy.
func (*PolicyMaglev) Name() string { return "maglev" }

// Pick implements Policy: the Maglev consistent-hash pick.
func (*PolicyMaglev) Pick(flow uint64, view *View) (Backend, error) {
	b, ok := view.PickMaglev(flow)
	if !ok {
		return Backend{}, ErrNoBackends
	}
	return b, nil
}

// BackendUp implements Policy (no per-backend state).
func (*PolicyMaglev) BackendUp(Backend) {}

// BackendDown implements Policy (no per-backend state).
func (*PolicyMaglev) BackendDown(string) {}

// AdvanceGeneration implements Policy (placement ignores generations).
func (*PolicyMaglev) AdvanceGeneration(uint32, bool) {}

// Close implements Policy.
func (*PolicyMaglev) Close() {}

// NewPolicy constructs a policy by name: "" or "maglev" selects
// PolicyMaglev, "prequal" selects a PolicyPrequal with cfg. reg may be
// nil. Unknown names fall back to PolicyMaglev so a typoed flag
// degrades to placement-only steering instead of a dead data plane.
func NewPolicy(name string, cfg PrequalConfig, reg *metrics.Registry) Policy {
	if name == "prequal" {
		return NewPolicyPrequal(cfg, reg)
	}
	return NewPolicyMaglev()
}
