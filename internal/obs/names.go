package obs

// Canonical span names for the release path. Every span recorded by
// internal/takeover, internal/core, and internal/proxy uses one of these
// constants, so the taxonomy asserted by chaos trace audits and release
// reports has a single authoritative list.
//
// Fig. 5 hand-off steps (receiver-rooted trace, sender spans stitched in
// via the ack frame's trace context; step D is takeover.prepare and
// takeover.commit below):
//
//	takeover.step.A   dial the old instance's takeover socket
//	takeover.step.B   manifest + FD frames read
//	takeover.step.C   listeners reconstructed from the FDs
//	takeover.step.E   sender's drain-start confirmation awaited
//	takeover.step.F   health-check responsibility assumed
//
// Protocol spans, the first three recorded on BOTH sides with a "side"
// attribute:
//
//	takeover.prepare  arm + PREPARE-ACK (receiver) / manifest→commit (sender)
//	takeover.commit   commit delivery and drain cut-over
//	takeover.ready    the post-commit lease window: receiver runs its
//	                  readiness gate and sends READY; sender awaits it
//	takeover.undo     lease broke before READY — the sender re-arms its
//	                  listeners from the retained dups and resumes
//	                  serving (attrs: retained_fds, cause)
const (
	SpanTakeoverServe   = "takeover.serve"
	SpanTakeoverHandoff = "takeover.handoff"
	SpanTakeoverStepA   = "takeover.step.A"
	SpanTakeoverStepB   = "takeover.step.B"
	SpanTakeoverStepC   = "takeover.step.C"
	SpanTakeoverStepE   = "takeover.step.E"
	SpanTakeoverStepF   = "takeover.step.F"
	SpanTakeoverPrepare = "takeover.prepare"
	SpanTakeoverCommit  = "takeover.commit"
	SpanTakeoverReady   = "takeover.ready"
	SpanTakeoverUndo    = "takeover.undo"
	SpanProxyDrain      = "proxy.drain"
	SpanSlotRestart     = "slot.restart"
	SpanSlotDrain       = "slot.drain"
)

// Fleet rollout spans, recorded by the internal/fleet orchestrator:
//
//	rollout           one staged fleet release end to end
//	rollout.batch     one canary/expansion batch (attrs: batch, nodes)
//	rollout.gate      the health-gate observation window + decision
//	rollout.rollback  a failed batch unwinding via drain-undo
const (
	SpanRollout         = "rollout"
	SpanRolloutBatch    = "rollout.batch"
	SpanRolloutGate     = "rollout.gate"
	SpanRolloutRollback = "rollout.rollback"
)
