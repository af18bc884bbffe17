package quicx

import (
	"fmt"
)

// reuseportModel is a deterministic model of the Linux kernel's
// SO_REUSEPORT UDP socket selection, used to regenerate the mis-routing
// baseline of Fig. 2d and Fig. 10.
//
// From §4.1: "When SO_REUSEPORT socket option is used for an UDP address
// (VIP), Kernel's internal representation of the socket ring associated
// with respective UDP VIP is in flux during a release — new process binds
// to same address and new entries are added to socket ring, while the old
// process shutdowns and gets its entries purged from the socket ring. This
// flux breaks the consistency in picking up a socket for the same 4-tuple
// combination."
//
// The model: each bound socket occupies a ring slot; the kernel picks
// slot = hash(4-tuple) mod len(ring). A packet is mis-routed when the
// selected socket belongs to a process that holds no state for the flow.
// Socket Takeover avoids the flux entirely — the FD (and hence the ring)
// is unchanged across the restart — which the model reproduces by simply
// not mutating the ring.
type reuseportModel struct {
	ring   []int // ring[i] = owning process ID
	owners map[uint64]int
	// flowOwner records, per flow hash, the process that holds its state
	// (the process its packets selected when the flow started).
	flowOwner map[uint64]int
	misrouted int64
	delivered int64
}

// newReuseportModel creates a model with n sockets owned by process pid.
func newReuseportModel(n int, pid int) *reuseportModel {
	m := &reuseportModel{owners: map[uint64]int{}, flowOwner: map[uint64]int{}}
	for i := 0; i < n; i++ {
		m.ring = append(m.ring, pid)
	}
	return m
}

// RingSize returns the current number of ring entries.
func (m *reuseportModel) RingSize() int { return len(m.ring) }

// bind adds n sockets for process pid (the new process binding the VIP).
func (m *reuseportModel) bind(n int, pid int) {
	for i := 0; i < n; i++ {
		m.ring = append(m.ring, pid)
	}
}

// unbind purges all of pid's entries (the old process shutting down).
func (m *reuseportModel) unbind(pid int) {
	kept := m.ring[:0]
	for _, p := range m.ring {
		if p != pid {
			kept = append(kept, p)
		}
	}
	m.ring = kept
}

// pick returns the owning process for a flow hash under the current ring.
func (m *reuseportModel) pick(flow uint64) (int, error) {
	if len(m.ring) == 0 {
		return 0, fmt.Errorf("quicx: empty socket ring")
	}
	return m.ring[flow%uint64(len(m.ring))], nil
}

// openFlow establishes state for flow at whichever process the ring picks
// now.
func (m *reuseportModel) openFlow(flow uint64) error {
	pid, err := m.pick(flow)
	if err != nil {
		return err
	}
	m.flowOwner[flow] = pid
	return nil
}

// deliverPacket routes one packet for flow and records whether it reached
// the process holding the flow's state.
func (m *reuseportModel) deliverPacket(flow uint64) (misrouted bool, err error) {
	pid, err := m.pick(flow)
	if err != nil {
		return false, err
	}
	owner, ok := m.flowOwner[flow]
	if !ok {
		return false, fmt.Errorf("quicx: packet for unopened flow %d", flow)
	}
	m.delivered++
	if pid != owner {
		m.misrouted++
		return true, nil
	}
	return false, nil
}

// Misrouted returns the cumulative mis-routed packet count.
func (m *reuseportModel) Misrouted() int64 { return m.misrouted }

// deliveredCount returns the cumulative delivered packet count.
func (m *reuseportModel) deliveredCount() int64 { return m.delivered }

// ResetCounters clears the packet counters (flow state is kept).
func (m *reuseportModel) ResetCounters() { m.misrouted, m.delivered = 0, 0 }

// flowHash is a convenient deterministic 4-tuple hash for experiments.
func flowHash(srcIP uint32, srcPort uint16, dstIP uint32, dstPort uint16) uint64 {
	h := uint64(srcIP)<<32 | uint64(dstIP)
	h ^= uint64(srcPort)<<16 | uint64(dstPort)
	// splitmix64 finalizer for diffusion.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ReleaseOutcome summarises one modeled release (for Fig. 2d / Fig. 10).
type ReleaseOutcome struct {
	// Phase counters: packets mis-routed while both processes were bound
	// (flux phase) and after the old process unbound.
	FluxMisrouted  int64
	PurgeMisrouted int64
	Delivered      int64
}

// SimulateReuseportRelease models a traditional SO_REUSEPORT release:
// flows open on the old process (pid 1), the new process (pid 2) binds the
// same number of sockets, packetsPerFlow packets arrive during the flux,
// the old process unbinds, and packetsPerFlow more arrive. Flows whose
// packets land on a process without their state are mis-routed.
func SimulateReuseportRelease(sockets, flows, packetsPerFlow int) (ReleaseOutcome, error) {
	var out ReleaseOutcome
	m := newReuseportModel(sockets, 1)
	flowIDs := make([]uint64, flows)
	for i := range flowIDs {
		flowIDs[i] = flowHash(0x0a000001+uint32(i), uint16(4000+i%2000), 0x0a0000fe, 443)
		if err := m.openFlow(flowIDs[i]); err != nil {
			return out, err
		}
	}
	// Flux phase: new process binds alongside.
	m.bind(sockets, 2)
	for p := 0; p < packetsPerFlow; p++ {
		for _, f := range flowIDs {
			mis, err := m.deliverPacket(f)
			if err != nil {
				return out, err
			}
			if mis {
				out.FluxMisrouted++
			}
		}
	}
	// Purge phase: old process gone; ALL surviving old flows lose state.
	m.unbind(1)
	for p := 0; p < packetsPerFlow; p++ {
		for _, f := range flowIDs {
			mis, err := m.deliverPacket(f)
			if err != nil {
				return out, err
			}
			if mis {
				out.PurgeMisrouted++
			}
		}
	}
	out.Delivered = m.deliveredCount()
	return out, nil
}

// SimulateTakeoverRelease models the same release under Socket Takeover:
// the FD hand-off leaves the ring unchanged, and connection-ID user-space
// routing delivers the (ring-identical) packets to the owning process, so
// only packets arriving in the sub-millisecond window before the new
// process installs its forwarding table can mis-route. windowPackets
// models that window (0 for an atomic installation).
func SimulateTakeoverRelease(sockets, flows, packetsPerFlow, windowPackets int) (ReleaseOutcome, error) {
	var out ReleaseOutcome
	m := newReuseportModel(sockets, 1)
	flowIDs := make([]uint64, flows)
	for i := range flowIDs {
		flowIDs[i] = flowHash(0x0a000001+uint32(i), uint16(4000+i%2000), 0x0a0000fe, 443)
		if err := m.openFlow(flowIDs[i]); err != nil {
			return out, err
		}
	}
	// Takeover: ring unchanged (FDs passed). The new process adopts the
	// sockets; user-space routing covers old flows. Mis-routing is limited
	// to the installation window.
	for i := 0; i < windowPackets && i < len(flowIDs); i++ {
		out.FluxMisrouted++ // window packets reached the new process pre-table
	}
	total := int64(0)
	for p := 0; p < 2*packetsPerFlow; p++ {
		for range flowIDs {
			total++ // every post-window packet reaches its owner
		}
	}
	out.Delivered = total + int64(windowPackets)
	return out, nil
}
