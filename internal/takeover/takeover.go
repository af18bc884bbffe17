// Package takeover implements Socket Takeover (§4.1): zero-downtime restart
// of an L7 proxy by passing every listening-socket file descriptor from the
// running (old) instance to a freshly spun (new) instance over a UNIX
// domain socket, using sendmsg(2) with SCM_RIGHTS ancillary data.
//
// The workflow follows Fig. 5 of the paper:
//
//	(A) The old instance, already bound and accepting on all VIP sockets,
//	    spawns a takeover server bound to a pre-specified path; the new
//	    instance starts and connects to it.
//	(B) The takeover server sends the list of FDs it has bound — TCP
//	    listeners and UDP packet sockets, one entry per VIP — with
//	    sendmsg() and SCM_RIGHTS.
//	(C) The new instance listens on the VIPs corresponding to the FDs
//	    (reconstructing net.Listener/net.UDPConn values from them) and
//	    arms them: accept loops running, health checks green.
//	(D) The new instance confirms to the old server so it can start
//	    draining existing connections. The confirmation is split in two:
//	    the receiver sends PREPARE-ACK once it is armed, and the sender
//	    answers with COMMIT — only then does draining begin. Any failure
//	    before the COMMIT is delivered (arm error, receiver crash,
//	    timeout) aborts the hand-off: the sender keeps serving, the
//	    receiver disarms, and no client ever sees a reset.
//	(E) On commit, the old instance stops handling new connections and
//	    drains.
//	(F) The new instance takes over health-check responsibility.
//
// ProtoDrainUndo extends the commit with a post-commit recovery window:
// the sender retains dup'd FDs for every handed-off listener past COMMIT
// and keeps the UNIX-socket session open as a liveness lease. The receiver
// sends a READY frame once its proxy is confirmed serving; the sender
// answers with the drain-started confirmation, which releases the lease
// (retained dups closed, drain proceeds). If the lease breaks before READY
// — receiver crash, kill -9, armed-then-wedged — the sender un-drains:
// it re-arms its listeners from the retained dups and resumes accepting.
// No reset, no rebind. The retained dups keep the kernel sockets alive
// throughout the window, so SYNs queue in the backlog instead of failing.
//
// Because the FDs are shared file-table entries, the listening sockets are
// never closed during the restart: TCP SYNs continue to be queued and UDP
// packets continue to be delivered, no matter which instant the restart is
// observed at. The kernel socket ring for SO_REUSEPORT VIPs is unchanged
// (no entries added or purged), which is what eliminates the mis-routing
// flux of Fig. 2d.
//
// Compatibility rule — N and N−1: a build speaks ProtoDrainUndo (v3) and
// protoTwoPhase (v2), because a rolling upgrade only ever meets its
// predecessor. The sender offers a revision in the manifest's proto field
// and the receiver answers min(offer, v3) in its PREPARE-ACK; a v2
// receiver answers without the field, which a v3 sender reads as
// "two-phase, no lease". A peer of the original one-shot protocol — no
// proto field in its manifest, a single ACK as its commit point — is
// refused before anything is armed or drained: the receiver nacks such a
// manifest, the sender answers such an ACK with ABORT, and either way the
// old instance keeps serving.
//
// §5.1 pitfalls are handled explicitly:
//
//   - Orphaned FDs: the receiving side must act on every FD it was sent —
//     either adopt it or close it. Entries the receiver does not recognise
//     are closed and counted in Result.OrphanedFDs rather than silently
//     leaked (a leak leaves a live socket whose accept queue nobody drains,
//     which manifests as user-facing timeouts).
//   - A magic protocol header and version byte guard against a
//     mis-deployed peer speaking something else on the socket.
package takeover

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"zdr/internal/faults"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// Network names for VIP entries.
const (
	NetworkTCP = "tcp"
	NetworkUDP = "udp"
)

// protocol constants.
const (
	magic = 0x5a44 // "ZD"
	// version is the wire epoch byte. It stays 1: receivers hard-reject
	// any other value with no retry, so protocol revisions are negotiated
	// in-band via the manifest's proto field instead (see protoTwoPhase).
	version     = 1
	maxManifest = 1 << 20

	msgManifest     = 1
	msgAck          = 2 // receiver → sender: refusal before arming (an OK one, the one-shot commit, is refused)
	msgFDChunk      = 3
	msgDrainStarted = 4 // sender → receiver: accepting stopped, drain begun (step E)
	msgPrepareAck   = 5 // receiver → sender: armed and serving, awaiting commit
	msgCommit       = 6 // sender → receiver: hand-off committed, drain begins now
	msgAbort        = 7 // sender → receiver: hand-off abandoned before commit
	msgReady        = 8 // receiver → sender: confirmed serving, release the lease (v3)

	// fdsPerFrame bounds descriptors per sendmsg; Linux caps SCM_RIGHTS
	// at 253 per message, and netx enforces its own lower bound. Larger
	// VIP sets are split across continuation frames.
	fdsPerFrame = 64
)

// Protocol revisions, negotiated via the manifest's proto field (sender's
// offer) and the prepare-ack's proto field (receiver's answer); the
// package doc states which revisions a build speaks.
const (
	// protoTwoPhase is step (D) of the package doc: PREPARE-ACK (receiver
	// armed), then COMMIT (sender stops accepting).
	protoTwoPhase = 2
	// ProtoDrainUndo adds the post-commit lease and un-drain of the
	// package doc on top of protoTwoPhase, instead of falling through to
	// RestartFresh. Offering it promises exactly that undo behaviour, so
	// only lease-driving senders (Server with OnUndo, or an explicit
	// HandoffOptions.proto) advertise it.
	ProtoDrainUndo = 3

	// maxProto is the newest revision this build understands; the oldest
	// is protoTwoPhase.
	maxProto = ProtoDrainUndo
)

// defaultHandshakeTimeout bounds each protocol step.
const defaultHandshakeTimeout = 5 * time.Second

// defaultReadyTimeout bounds the sender's post-commit wait for the
// receiver's READY frame (the drain-undo lease). A receiver that has not
// confirmed serving within this window is presumed dead and the hand-off
// is undone.
const defaultReadyTimeout = 5 * time.Second

// Manifest metadata keys used by the protocol itself (everything else in
// Meta passes through opaquely).
const (
	// traceMetaKey carries the sender's span context in the manifest
	// metadata, so the receiver's spans can join the sender's trace.
	traceMetaKey = obs.TraceHeader
	// metaDrainNotify announces that the sender will send a
	// msgDrainStarted frame once it has stopped accepting (step E). The
	// receiver only waits for the confirmation when the key is present,
	// which keeps bare Handoff/Receive pairs compatible. On ProtoDrainUndo
	// the confirmation doubles as the lease release and is mandatory
	// regardless of this key.
	metaDrainNotify = "zdr-drain-notify"
)

// VIP describes one service address (Virtual IP) the proxy serves.
type VIP struct {
	// Name identifies the VIP (e.g. "https", "quic"). Names must be
	// unique within a ListenerSet.
	Name string `json:"name"`
	// Network is NetworkTCP or NetworkUDP.
	Network string `json:"network"`
	// Addr is the bind address, e.g. "127.0.0.1:8443".
	Addr string `json:"addr"`
}

type entry struct {
	vip VIP
	ln  *net.TCPListener
	pc  *net.UDPConn
}

// ListenerSet is an ordered collection of bound VIP sockets. It is the unit
// Socket Takeover transfers.
type ListenerSet struct {
	mu      sync.Mutex
	entries []entry
}

// newListenerSet returns an empty set.
func newListenerSet() *ListenerSet { return &ListenerSet{} }

// Listen binds all the given VIPs (with SO_REUSEPORT) and returns the set.
// On error, any sockets bound so far are closed.
func Listen(vips ...VIP) (*ListenerSet, error) {
	s := newListenerSet()
	for _, v := range vips {
		var err error
		switch v.Network {
		case NetworkTCP:
			var ln *net.TCPListener
			ln, err = netx.ListenTCPReusePort(v.Addr)
			if err == nil {
				err = s.AddTCP(v.Name, ln)
			}
		case NetworkUDP:
			var pc *net.UDPConn
			pc, err = netx.ListenUDPReusePort(v.Addr)
			if err == nil {
				err = s.addUDP(v.Name, pc)
			}
		default:
			err = fmt.Errorf("takeover: unknown network %q", v.Network)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// AddTCP registers an already-bound TCP listener under name.
func (s *ListenerSet) AddTCP(name string, ln *net.TCPListener) error {
	return s.add(entry{vip: VIP{Name: name, Network: NetworkTCP, Addr: ln.Addr().String()}, ln: ln})
}

// addUDP registers an already-bound UDP socket under name.
func (s *ListenerSet) addUDP(name string, pc *net.UDPConn) error {
	return s.add(entry{vip: VIP{Name: name, Network: NetworkUDP, Addr: pc.LocalAddr().String()}, pc: pc})
}

func (s *ListenerSet) add(e entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, have := range s.entries {
		if have.vip.Name == e.vip.Name {
			return fmt.Errorf("takeover: duplicate VIP name %q", e.vip.Name)
		}
	}
	s.entries = append(s.entries, e)
	return nil
}

// find returns the entry registered under name (names are unique), or the
// zero entry.
func (s *ListenerSet) find(name string) entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.vip.Name == name {
			return e
		}
	}
	return entry{}
}

// TCP returns the listener registered under name, or nil.
func (s *ListenerSet) TCP(name string) *net.TCPListener { return s.find(name).ln }

// UDP returns the packet socket registered under name, or nil.
func (s *ListenerSet) UDP(name string) *net.UDPConn { return s.find(name).pc }

// VIPs returns the VIP descriptors in registration order.
func (s *ListenerSet) VIPs() []VIP {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VIP, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.vip
	}
	return out
}

// Len returns the number of registered VIP sockets.
func (s *ListenerSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// CloseTCP closes only the TCP listener handles, leaving UDP sockets
// open. A draining instance uses this: closing its TCP handles stops its
// accept loops (the shared sockets stay alive in the new instance), while
// its UDP handles must stay open so user-space-routed replies to draining
// flows can still be written through the shared socket (§4.1).
func (s *ListenerSet) CloseTCP() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.ln != nil {
			if err := e.ln.Close(); err != nil && first == nil {
				first = err
			}
			continue
		}
		kept = append(kept, e)
	}
	s.entries = kept
	return first
}

// Close closes every socket in the set, returning the first error.
func (s *ListenerSet) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, e := range s.entries {
		var err error
		if e.ln != nil {
			err = e.ln.Close()
		}
		if e.pc != nil {
			err = e.pc.Close()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	s.entries = nil
	return first
}

// fds extracts duplicated FDs for every entry, in order. Caller owns them.
func (s *ListenerSet) fds() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fds := make([]int, 0, len(s.entries))
	for _, e := range s.entries {
		var fd int
		var err error
		if e.ln != nil {
			fd, err = netx.ListenerFD(e.ln)
		} else {
			fd, err = netx.PacketConnFD(e.pc)
		}
		if err != nil {
			closeFDs(fds)
			return nil, err
		}
		fds = append(fds, fd)
	}
	return fds, nil
}

// adoptFDs reconstructs listeners/packet sockets from fds according to
// vips, consuming every descriptor (adopted into the set or closed —
// §5.1 orphan prevention). It returns the set, the number of descriptors
// it had to close, and the first adoption error; a VIP left without a
// descriptor is one.
func adoptFDs(vips []VIP, fds []int) (*ListenerSet, int, error) {
	set := newListenerSet()
	orphans := 0
	var firstErr error
	if len(fds) < len(vips) {
		firstErr = fmt.Errorf("takeover: %d vips listed but only %d fds arrived", len(vips), len(fds))
	}
	for i, fd := range fds {
		if i >= len(vips) {
			// More FDs than manifest entries: close the strays rather
			// than leak live sockets (§5.1).
			syscall.Close(fd)
			orphans++
			continue
		}
		v := vips[i]
		var err error
		switch v.Network {
		case NetworkTCP:
			var ln *net.TCPListener
			ln, err = netx.ListenerFromFD(fd, v.Name)
			if err == nil {
				err = set.AddTCP(v.Name, ln)
				if err != nil {
					ln.Close()
				}
			}
		case NetworkUDP:
			var pc *net.UDPConn
			pc, err = netx.PacketConnFromFD(fd, v.Name)
			if err == nil {
				err = set.addUDP(v.Name, pc)
				if err != nil {
					pc.Close()
				}
			}
		default:
			syscall.Close(fd)
			err = fmt.Errorf("takeover: vip %q has unknown network %q", v.Name, v.Network)
		}
		if err != nil {
			orphans++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return set, orphans, firstErr
}

// retainedSet holds the sender's dup'd listener FDs through the
// ProtoDrainUndo post-commit window. The dups keep the kernel sockets
// alive (and their accept backlogs queuing) no matter what happens to the
// receiver. Exactly one of two things must happen to a retainedSet:
//
//   - Close — the receiver confirmed serving (READY received, lease
//     released): drop the dups, the drain proceeds.
//   - Rearm — the lease broke: rebuild a live ListenerSet from the dups
//     so the sender can resume accepting on the very same kernel sockets.
//
// Server.ListenAndServe drives this lifecycle itself; only bare
// Handoff callers that force ProtoDrainUndo need to manage it.
type retainedSet struct {
	mu   sync.Mutex
	vips []VIP
	fds  []int
}

func newRetainedSet(vips []VIP, fds []int) *retainedSet {
	return &retainedSet{
		vips: append([]VIP(nil), vips...),
		fds:  append([]int(nil), fds...),
	}
}

// Len returns the number of descriptors still retained.
func (r *retainedSet) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fds)
}

// VIPs returns the VIP descriptors the retained FDs correspond to.
func (r *retainedSet) VIPs() []VIP {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]VIP(nil), r.vips...)
}

// Close releases every retained descriptor. Idempotent and nil-safe.
func (r *retainedSet) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	closeFDs(r.fds)
	r.fds, r.vips = nil, nil
	return nil
}

// rearm consumes the retained descriptors and rebuilds a live ListenerSet
// from them — the un-drain: because the dups share the original file-table
// entries, the re-armed listeners are the same kernel sockets the clients
// have been connecting to all along, and every SYN queued during the
// recovery window is accepted, not reset. After Rearm (success or failure)
// the set is empty; on failure everything it could not adopt is closed.
func (r *retainedSet) rearm() (*ListenerSet, error) {
	if r == nil {
		return nil, errors.New("takeover: no retained descriptors")
	}
	r.mu.Lock()
	vips, fds := r.vips, r.fds
	r.vips, r.fds = nil, nil
	r.mu.Unlock()
	if len(fds) == 0 {
		return nil, errors.New("takeover: no retained descriptors")
	}
	set, _, err := adoptFDs(vips, fds)
	if err != nil {
		set.Close()
		return nil, fmt.Errorf("takeover: re-arming retained listeners: %w", err)
	}
	return set, nil
}

// manifest is the wire payload accompanying the FDs.
type manifest struct {
	Magic   uint16 `json:"magic"`
	Version uint8  `json:"version"`
	// Proto is the protocol revision the sender offers (protoTwoPhase or
	// ProtoDrainUndo). Absent/zero means a one-shot sender, which the
	// receiver refuses (see the package doc's compatibility rule).
	Proto uint8 `json:"proto,omitempty"`
	VIPs  []VIP `json:"vips"`
	// Meta carries side-band hand-off data the new instance needs before
	// serving — e.g. the old instance's pre-configured host-local UDP
	// forwarding address for user-space routing of draining flows (§4.1).
	Meta map[string]string `json:"meta,omitempty"`
}

// ack is the confirmation from the new instance (step D): a PREPARE-ACK,
// or a refusal.
type ack struct {
	OK      bool   `json:"ok"`
	Adopted int    `json:"adopted"`
	Err     string `json:"err,omitempty"`
	// Trace is the receiver's span context, so the sender's drain joins
	// the receiver-rooted hand-off trace.
	Trace string `json:"trace,omitempty"`
	// Proto is the protocol revision the receiver accepted. Pre-v3
	// receivers never set it, so a zero on a PREPARE-ACK downgrades a
	// ProtoDrainUndo offer to plain two-phase: the sender must not hold
	// a lease a v2 receiver will never release.
	Proto int `json:"proto,omitempty"`
}

// Result summarises a completed hand-off, from the sender's perspective
// (Handoff) or receiver's (Receive).
type Result struct {
	// VIPs transferred, in order.
	VIPs []VIP
	// Meta is the sender's side-band hand-off data (receiver side).
	Meta map[string]string
	// OrphanedFDs counts descriptors the receiver closed because it did
	// not adopt them (receiver side only).
	OrphanedFDs int
	// Duration is the wall time of the protocol exchange.
	Duration time.Duration
	// PeerTrace is the peer's span context in wire form, or "" if the
	// peer was untraced: on the sender side, the receiver's hand-off span
	// (from the ack); on the receiver side, whatever the sender put under
	// traceMetaKey in the manifest metadata.
	PeerTrace string
	// drainConfirmed reports that the sender confirmed it stopped
	// accepting and began draining (receiver side). On v2 it requires a
	// sender that announces metaDrainNotify (i.e. Server.ListenAndServe)
	// and is best-effort; on ProtoDrainUndo the confirmation is the lease
	// release and mandatory — without it the sender undid the hand-off,
	// so Receive disarms and returns ErrUndone — hence always true on
	// success.
	drainConfirmed bool
	// Proto is the negotiated protocol revision (protoTwoPhase or
	// ProtoDrainUndo).
	Proto int
	// committed reports the hand-off passed its commit point: the sender
	// has stopped accepting and is draining. Always true on a successful
	// hand-off; it exists so failure paths can be classified (see
	// ErrAborted and ErrUndone).
	committed bool
	// ready reports that this receiver delivered its READY frame
	// (ProtoDrainUndo, receiver side).
	ready bool
	// retained holds the sender's dup'd FDs through the post-commit
	// window (sender side, ProtoDrainUndo only; nil otherwise). The
	// caller owns it: see retainedSet.
	retained *retainedSet
}

var (
	// errRejected is returned by Handoff when the new instance refused
	// the socket set.
	errRejected = errors.New("takeover: peer rejected hand-off")
	// errBadMagic indicates the peer is not speaking the takeover
	// protocol (§5.1: guard against a mis-deployed binary).
	errBadMagic = errors.New("takeover: bad protocol magic")
	// ErrAborted marks a receiver-side hand-off failure that happened
	// before the commit point: the sender never began draining (or rolled
	// back to serving), no client saw a reset, and the caller may safely
	// retry with a freshly built receiver. Failures NOT wrapped in
	// ErrAborted or ErrUndone (e.g. post-commit promotion errors on
	// pre-v3 protocols) fall through to the RestartFresh remediation
	// instead.
	ErrAborted = errors.New("takeover: hand-off aborted before commit")
	// ErrUndone marks a hand-off that passed its commit point and was
	// then rolled back through the drain-undo lease (ProtoDrainUndo): the
	// receiver could not confirm serving — crash, wedge, failed readiness
	// gate, lost READY — so the sender re-armed its retained listener
	// dups and resumed serving. Like ErrAborted, no client saw a reset
	// and the caller may retry with a fresh receiver; unlike ErrAborted,
	// the failure happened after COMMIT.
	ErrUndone = errors.New("takeover: hand-off undone after commit")
)

// outsideRule is how every refusal of a one-shot peer names the
// compatibility rule.
const outsideRule = "this build speaks protocol v3 and v2 only (N and N-1)"

// abortErr classifies err as a pre-commit abort.
func abortErr(err error) error {
	if err == nil || errors.Is(err, ErrAborted) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrAborted, err)
}

// undoneErr classifies err as a post-commit undo.
func undoneErr(err error) error {
	if err == nil || errors.Is(err, ErrUndone) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrUndone, err)
}

func writeFrame(conn *net.UnixConn, kind byte, payload []byte, fds []int) error {
	hdr := make([]byte, 5+len(payload))
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	copy(hdr[5:], payload)
	return netx.WriteFDs(conn, hdr, fds)
}

func readFrame(conn *net.UnixConn) (kind byte, payload []byte, fds []int, err error) {
	// SOCK_STREAM has no message boundaries: consecutive frames (e.g. the
	// two-phase COMMIT immediately followed by the drain-started
	// confirmation) coalesce into one socket read, and a large payload
	// splits across many. Read exactly the 5-byte header, then exactly
	// the declared payload length, never consuming bytes of the next
	// frame. SCM_RIGHTS ancillary data rides the first byte of its
	// sendmsg's segment, so collecting FDs from every recvmsg along the
	// way picks them up regardless of how the stream fragments.
	fail := func(err error) (byte, []byte, []int, error) {
		closeFDs(fds)
		return 0, nil, nil, err
	}
	readExact := func(buf []byte) error {
		for off := 0; off < len(buf); {
			data, more, err := netx.ReadFDs(conn, buf[off:])
			fds = append(fds, more...)
			if err != nil {
				return err
			}
			if len(data) == 0 {
				return fmt.Errorf("takeover: empty read mid-frame")
			}
			off += len(data)
		}
		return nil
	}
	hdr := make([]byte, 5)
	if err := readExact(hdr); err != nil {
		return fail(err)
	}
	kind = hdr[0]
	want := int(binary.BigEndian.Uint32(hdr[1:5]))
	if want > maxManifest {
		return fail(fmt.Errorf("takeover: oversized frame (%d bytes)", want))
	}
	payload = make([]byte, want)
	if err := readExact(payload); err != nil {
		return fail(err)
	}
	return kind, payload, fds, nil
}

// expectFrame reads one frame that must be of kind want; what names it in
// the error. Descriptors that rode in with it are closed (only the
// manifest and its continuations carry any), and a sender's ABORT in its
// place is reported with the reason the sender gave.
func expectFrame(conn *net.UnixConn, want byte, what string) error {
	kind, payload, stray, err := readFrame(conn)
	closeFDs(stray)
	switch {
	case err != nil:
		return fmt.Errorf("takeover: waiting for %s: %w", what, err)
	case kind == msgAbort:
		return fmt.Errorf("takeover: peer aborted before %s: %s", what, payload)
	case kind != want:
		return fmt.Errorf("takeover: expected %s, got frame kind %d", what, kind)
	}
	return nil
}

func closeFDs(fds []int) {
	for _, fd := range fds {
		syscall.Close(fd)
	}
}

// HandoffOptions configures the sender side of a hand-off.
type HandoffOptions struct {
	// meta is side-band hand-off data delivered to the receiver's
	// Result.Meta.
	meta map[string]string
	// timeout bounds the exchange; zero means defaultHandshakeTimeout.
	timeout time.Duration
	// trace, when non-nil, gets a "takeover.prepare" child span covering
	// the manifest+FD transfer through commit delivery. An aborted
	// hand-off fails that span and records no "takeover.commit" span.
	trace *obs.Span
	// proto is the protocol revision to offer; zero means protoTwoPhase
	// (wire-identical to an N−1 sender). ProtoDrainUndo promises the
	// caller will drive the post-commit lease itself: close or re-arm
	// Result.retained (Server does this automatically and is the normal
	// way to offer v3).
	proto int
}

// Handoff runs the sender side (old instance) of the takeover protocol on
// an established UNIX socket connection: it sends the manifest and FDs for
// every socket in set, then waits for the new instance's confirmation and
// delivers the COMMIT.
//
// On success the old instance should stop accepting new connections and
// begin draining (step E); its copies of the listening sockets remain open
// until it exits, which is harmless because both instances share the file
// table entries. On an error the hand-off aborted before this instance
// stopped accepting: it is still fully in charge and must keep serving.
// When ProtoDrainUndo is negotiated the caller owns the post-commit lease
// (see Result.retained).
func Handoff(conn *net.UnixConn, set *ListenerSet, opts HandoffOptions) (*Result, error) {
	timeout := opts.timeout
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	proto := opts.proto
	if proto == 0 {
		proto = protoTwoPhase
	}
	if proto < protoTwoPhase || proto > maxProto {
		return nil, fmt.Errorf("takeover: unknown protocol revision %d", proto)
	}
	start := time.Now()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, err
	}
	defer conn.SetDeadline(time.Time{})

	sp := opts.trace.StartChild(obs.SpanTakeoverPrepare)
	sp.SetAttr("side", "sender")
	fail := func(err error) (*Result, error) {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	// abort additionally tells a still-live receiver to disarm right away
	// instead of waiting out its commit deadline. Best-effort: if the
	// connection is dead the receiver's read fails just as promptly.
	abort := func(err error) (*Result, error) {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		writeFrame(conn, msgAbort, []byte(err.Error()), nil)
		return fail(err)
	}

	m := manifest{Magic: magic, Version: version, Proto: uint8(proto), VIPs: set.VIPs(), Meta: opts.meta}
	payload, err := json.Marshal(m)
	if err != nil {
		return fail(err)
	}
	fds, err := set.fds()
	if err != nil {
		return fail(err)
	}
	// Our dups; the receiver has its own after sendmsg. On a negotiated
	// ProtoDrainUndo hand-off they instead survive as Result.retained —
	// the post-commit recovery window — and fds is emptied.
	defer func() { closeFDs(fds) }()
	if err := writeFrame(conn, msgManifest, payload, fds[:min(len(fds), fdsPerFrame)]); err != nil {
		return fail(err)
	}
	// Continuation frames for large VIP sets.
	for off := fdsPerFrame; off < len(fds); off += fdsPerFrame {
		if err := writeFrame(conn, msgFDChunk, nil, fds[off:min(off+fdsPerFrame, len(fds))]); err != nil {
			return fail(err)
		}
	}

	kind, ackPayload, stray, err := readFrame(conn)
	if err != nil {
		return abort(fmt.Errorf("takeover: waiting for confirmation: %w", err))
	}
	closeFDs(stray)
	if kind != msgAck && kind != msgPrepareAck {
		return abort(fmt.Errorf("takeover: expected ack, got frame kind %d", kind))
	}
	var a ack
	if err := json.Unmarshal(ackPayload, &a); err != nil {
		return abort(fmt.Errorf("takeover: bad ack: %w", err))
	}
	if !a.OK {
		// The receiver already rolled itself back; no abort frame needed.
		return fail(fmt.Errorf("%w: %s", errRejected, a.Err))
	}
	if kind == msgAck {
		// A one-shot receiver took its single ACK for the commit point.
		// This instance never stopped accepting and does not start now.
		return abort(fmt.Errorf("takeover: peer confirmed with a one-shot ack; %s", outsideRule))
	}
	// The receiver's answer caps the revision: a pre-v3 receiver omits
	// the proto field (zero), and the sender must not hold a lease such a
	// peer will never release.
	res := &Result{VIPs: m.VIPs, PeerTrace: a.Trace, Proto: max(protoTwoPhase, min(proto, a.Proto))}
	// This write is the commit point: if COMMIT cannot be delivered the
	// receiver disarms and this instance keeps serving — nobody drains,
	// nobody resets.
	if err := writeFrame(conn, msgCommit, nil, nil); err != nil {
		return fail(fmt.Errorf("takeover: delivering commit: %w", err))
	}
	if res.Proto >= ProtoDrainUndo {
		res.retained = newRetainedSet(m.VIPs, fds)
		sp.SetAttr("retained_fds", strconv.Itoa(len(fds)))
		fds = nil
	}
	res.committed = true
	res.Duration = time.Since(start)
	sp.SetAttr("proto", strconv.Itoa(res.Proto))
	sp.End()
	return res, nil
}

// ReceiveOptions configures the receiver side of a hand-off.
type ReceiveOptions struct {
	// timeout bounds the exchange; zero means defaultHandshakeTimeout.
	timeout time.Duration
	// Trace, when non-nil, gets the receiver's Fig. 5 step spans as
	// children, in order: step B, step C, prepare, commit, ready
	// (ProtoDrainUndo only) and step E (obs/names.go says what each
	// covers). A step E that fails on v2 (see Result.drainConfirmed) is
	// recorded on its span without failing the hand-off.
	Trace *obs.Span
	// Arm, when non-nil, runs after the listener set is reconstructed and
	// must leave this instance fully serving (accept loops running,
	// health checks green) before returning nil: its success is exactly
	// what the PREPARE-ACK attests to. An error rolls the hand-off back:
	// the sender is nacked and keeps serving, the set is closed, and the
	// error is wrapped in ErrAborted.
	Arm func(set *ListenerSet, res *Result) error
	// Disarm, when non-nil, unwinds a successful Arm after a pre-commit
	// abort (commit timeout, peer abort or crash) or a post-commit undo
	// (failed Ready gate, broken lease). When nil the listener set is
	// merely closed.
	Disarm func(set *ListenerSet)
	// Ready, when non-nil, is the ProtoDrainUndo readiness gate: it runs
	// after COMMIT arrives and must confirm this instance is genuinely
	// serving (e.g. /healthz green) before the READY frame goes out. An
	// error steps this instance down — Disarm runs, the sender's lease
	// breaks, the sender un-drains, and the error is wrapped in
	// ErrUndone. Never invoked on a protoTwoPhase negotiation.
	Ready func(set *ListenerSet, res *Result) error
}

// readManifest reads the manifest frame and the FD continuation frames
// behind it (step B). On every failure it closes each descriptor that
// arrived and, once a manifest has parsed, nacks the sender with the
// reason — the sender keeps serving.
func readManifest(conn *net.UnixConn) (manifest, []int, error) {
	kind, payload, fds, err := readFrame(conn)
	if err != nil {
		return manifest{}, nil, err
	}
	refuse := func(nack string, err error) (manifest, []int, error) {
		closeFDs(fds)
		if nack != "" {
			sendAck(conn, msgAck, ack{OK: false, Err: nack})
		}
		return manifest{}, nil, err
	}
	if kind != msgManifest {
		return refuse("", fmt.Errorf("takeover: expected manifest, got frame kind %d", kind))
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return refuse("", fmt.Errorf("takeover: bad manifest: %w", err))
	}
	if m.Magic != magic {
		return refuse("bad magic", errBadMagic)
	}
	if m.Version != version {
		return refuse(fmt.Sprintf("unsupported version %d", m.Version),
			fmt.Errorf("takeover: unsupported protocol version %d", m.Version))
	}
	if int(m.Proto) < protoTwoPhase {
		// A one-shot sender would take the single ACK it expects for the
		// commit point; refuse it before anything is adopted.
		err := fmt.Errorf("takeover: peer offers protocol revision %d (one-shot); %s", m.Proto, outsideRule)
		return refuse(err.Error(), err)
	}
	// Collect continuation frames until every declared VIP has its FD. A
	// sender that declared more VIPs than it attached FDs for never sends
	// a continuation; bound the wait so the mismatch surfaces as the
	// missing-FDs error in step C rather than a hang.
	for len(fds) < len(m.VIPs) && len(fds) >= fdsPerFrame && len(fds)%fdsPerFrame == 0 {
		kind, _, more, err := readFrame(conn)
		if err != nil {
			return refuse("fd continuation: "+err.Error(), fmt.Errorf("takeover: reading fd continuation: %w", err))
		}
		fds = append(fds, more...)
		if kind != msgFDChunk {
			return refuse("unexpected frame during fd transfer", fmt.Errorf("takeover: expected fd chunk, got frame kind %d", kind))
		}
		if len(more) == 0 {
			break
		}
	}
	return m, fds, nil
}

// awaitDrainStart reads the sender's drain-start confirmation (step E)
// under its own span. What a failure means is the caller's to say: on
// ProtoDrainUndo the lease was not released, on protoTwoPhase nothing.
func awaitDrainStart(conn *net.UnixConn, parent *obs.Span) error {
	spE := parent.StartChild(obs.SpanTakeoverStepE)
	defer spE.End()
	err := expectFrame(conn, msgDrainStarted, "drain-start confirmation")
	spE.Fail(err)
	return err
}

// Receive runs the receiver side (new instance): it reads the manifest and
// FDs, reconstructs a ListenerSet, closes any FD it cannot adopt (orphan
// prevention, §5.1), arms, and confirms to the old instance.
//
// An error wrapped in ErrAborted means the hand-off died before its commit
// point; one wrapped in ErrUndone means it was rolled back through the
// post-commit lease. In both cases the sender keeps (or resumes) serving
// undisturbed and the caller may retry with a fresh receiver.
func Receive(conn *net.UnixConn, opts ReceiveOptions) (*ListenerSet, *Result, error) {
	timeout := opts.timeout
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	parent := opts.Trace
	start := time.Now()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, nil, err
	}
	defer conn.SetDeadline(time.Time{})

	spB := parent.StartChild(obs.SpanTakeoverStepB)
	m, fds, err := readManifest(conn)
	if err != nil {
		spB.Fail(err)
		spB.End()
		return nil, nil, err
	}
	spB.SetAttr("vips", fmt.Sprintf("%d", len(m.VIPs)))
	spB.SetAttr("fds", fmt.Sprintf("%d", len(fds)))
	spB.End()

	spC := parent.StartChild(obs.SpanTakeoverStepC)
	set, orphans, firstErr := adoptFDs(m.VIPs, fds)
	if firstErr != nil {
		set.Close()
		sendAck(conn, msgAck, ack{OK: false, Err: firstErr.Error()})
		spC.Fail(firstErr)
		spC.End()
		return nil, nil, firstErr
	}
	spC.SetAttr("adopted", fmt.Sprintf("%d", set.Len()))
	spC.End()

	// The accepted revision is min(offer, newest): a sender from a later
	// build is met at this build's newest.
	res := &Result{VIPs: m.VIPs, Meta: m.Meta, OrphanedFDs: orphans, PeerTrace: m.Meta[traceMetaKey], Proto: min(int(m.Proto), maxProto)}

	// Arm before confirming: the PREPARE-ACK attests that this instance
	// is already serving every VIP.
	spP := parent.StartChild(obs.SpanTakeoverPrepare)
	spP.SetAttr("side", "receiver")
	armed := false
	disarm := func() {
		if armed && opts.Disarm != nil {
			opts.Disarm(set)
		} else {
			set.Close() // never armed, or nothing but the set to unwind
		}
	}
	abort := func(sp *obs.Span, err error) (*ListenerSet, *Result, error) {
		disarm()
		sp.Fail(err)
		sp.End()
		return nil, nil, abortErr(err)
	}
	if opts.Arm != nil {
		if err := opts.Arm(set, res); err != nil {
			err = fmt.Errorf("takeover: arming receiver: %w", err)
			sendAck(conn, msgPrepareAck, ack{OK: false, Err: err.Error()})
			return abort(spP, err)
		}
		armed = true
	}
	// Answer with the accepted revision so a v3 sender knows whether this
	// side will run the READY/lease epilogue.
	a := ack{OK: true, Adopted: set.Len(), Trace: parent.Context().String(), Proto: res.Proto}
	if err := sendAck(conn, msgPrepareAck, a); err != nil {
		return abort(spP, err)
	}
	spP.End()

	// Await COMMIT. Until it arrives the sender may abort — with an
	// explicit msgAbort, by crashing (read error/EOF), or by simply never
	// answering (deadline) — and in every one of those cases this
	// instance disarms: from the clients' point of view the hand-off
	// never happened, and the sender keeps serving.
	spCommit := parent.StartChild(obs.SpanTakeoverCommit)
	spCommit.SetAttr("side", "receiver")
	if err := expectFrame(conn, msgCommit, "commit"); err != nil {
		return abort(spCommit, err)
	}
	spCommit.End()
	res.committed = true

	if res.Proto >= ProtoDrainUndo {
		// READY/lease epilogue: prove this instance is genuinely serving,
		// deliver READY, and wait for the drain-start confirmation that
		// releases the sender's lease. Unlike the v2 best-effort step E,
		// every failure here means the sender will (or already did)
		// un-drain from its retained dups — so this side must step down:
		// a half of the lease handshake that cannot complete belongs to
		// the generation that yields.
		spReady := parent.StartChild(obs.SpanTakeoverReady)
		spReady.SetAttr("side", "receiver")
		var rerr error
		if opts.Ready != nil {
			if err := opts.Ready(set, res); err != nil {
				rerr = fmt.Errorf("takeover: readiness gate: %w", err)
			}
		}
		if rerr == nil {
			if err := writeFrame(conn, msgReady, nil, nil); err != nil {
				rerr = fmt.Errorf("takeover: delivering ready: %w", err)
			} else {
				res.ready = true
			}
		}
		spReady.Fail(rerr)
		spReady.End()
		if rerr == nil {
			rerr = awaitDrainStart(conn, parent)
		}
		if rerr != nil {
			disarm()
			return nil, nil, undoneErr(rerr)
		}
		res.drainConfirmed = true
	} else if m.Meta[metaDrainNotify] == "1" {
		// Step E: the old instance stops accepting and begins draining; it
		// confirms with a msgDrainStarted frame. Best-effort — the sockets
		// are already ours, so a timeout here degrades to an errored span
		// and drainConfirmed=false, not a failed hand-off.
		res.drainConfirmed = awaitDrainStart(conn, parent) == nil
	}
	res.Duration = time.Since(start)
	return set, res, nil
}

func sendAck(conn *net.UnixConn, kind byte, a ack) error {
	payload, err := json.Marshal(a)
	if err != nil {
		return err
	}
	return writeFrame(conn, kind, payload, nil)
}

// Server is the takeover server the old instance spawns (step A). It
// listens on a filesystem path and performs one hand-off per accepted
// connection.
type Server struct {
	// Set is the listener set to transfer.
	Set *ListenerSet
	// Meta is side-band hand-off data sent with the manifest (e.g. the
	// UDP user-space-routing forward address).
	Meta map[string]string
	// OnDrainStart, if non-nil, is invoked after a committed hand-off —
	// the point at which the old instance must stop accepting and start
	// draining (step E). On a ProtoDrainUndo hand-off the drain may still
	// be rolled back by OnUndo if the receiver never confirms serving.
	OnDrainStart func(Result)
	// OnReady, if non-nil, is invoked when the receiver's READY frame
	// releases the drain-undo lease: the hand-off is final, the retained
	// dups are closed, and the drain proceeds to completion.
	OnReady func(Result)
	// OnUndo, if non-nil, is invoked when the drain-undo lease breaks
	// before READY (receiver crash, wedge, failed readiness gate): the
	// listeners have been re-armed from the retained dups and the
	// callback must resume accepting on them — reversing whatever
	// OnDrainStart did. cause is the lease failure. The server offers
	// ProtoDrainUndo exactly when this callback is set, and
	// protoTwoPhase otherwise.
	OnUndo func(rearmed *ListenerSet, cause error)
	// OnHandoffError, if non-nil, is invoked after a failed hand-off
	// attempt (receiver died mid-handshake, arm failure nack, prepare-ack
	// or commit-delivery timeout, protocol error, post-commit undo). The
	// server has already rolled back: its dup'd FDs are closed or
	// re-armed, the instance is serving, and it keeps accepting further
	// hand-off attempts. The callback is the abort's observability hook
	// (§5.1 — aborted releases must be visible, not silent).
	OnHandoffError func(error)
	// handshakeTimeout bounds each hand-off; zero means the default.
	handshakeTimeout time.Duration
	// ReadyTimeout bounds the post-commit wait for the receiver's READY
	// frame; zero means defaultReadyTimeout. On expiry the hand-off is
	// undone exactly as if the receiver had crashed.
	ReadyTimeout time.Duration
	// Tracer, if non-nil, records the sender-side view of every hand-off
	// attempt: a "takeover.serve" root span with a "takeover.prepare"
	// child (through commit delivery) and — only on committed hand-offs —
	// a "takeover.commit" child covering the drain cut-over. A
	// ProtoDrainUndo hand-off adds a "takeover.ready" child for the lease
	// window and, if the lease breaks, a "takeover.undo" child carrying
	// the retained-FD count. An aborted attempt therefore shows a failed
	// takeover.prepare and no takeover.commit.
	Tracer *obs.Tracer

	mu sync.Mutex
	ul *net.UnixListener
}

// awaitReady blocks until the receiver's READY frame arrives or the lease
// breaks (read error, EOF, timeout, unexpected frame). A zero timeout
// means defaultReadyTimeout.
func awaitReady(conn *net.UnixConn, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultReadyTimeout
	}
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	return expectFrame(conn, msgReady, "ready")
}

// Listen binds the pre-specified UNIX path, removing a stale socket file
// first. When it returns nil a next generation can connect: the hand-off
// waits in the listen backlog until Serve accepts it.
func (s *Server) Listen(path string) error {
	if err := removeStaleSocket(path); err != nil {
		return err
	}
	ul, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		return fmt.Errorf("takeover: listen %s: %w", path, err)
	}
	s.mu.Lock()
	s.ul = ul
	s.mu.Unlock()
	return nil
}

// Serve serves hand-offs on the path Listen bound until Close.
func (s *Server) Serve() error {
	s.mu.Lock()
	ul := s.ul
	s.mu.Unlock()
	if ul == nil {
		return errors.New("takeover: Serve without Listen")
	}
	path := ul.Addr().String()
	defer s.Close() // release the path so the next generation can bind it
	proto := protoTwoPhase
	if s.OnUndo != nil {
		proto = ProtoDrainUndo // a promise to drive the lease: see OnUndo
	}
	for {
		conn, err := ul.AcceptUnix()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		meta := make(map[string]string, len(s.Meta)+1)
		for k, v := range s.Meta {
			meta[k] = v
		}
		meta[metaDrainNotify] = "1"
		sp := s.Tracer.StartSpan(obs.SpanTakeoverServe, obs.SpanContext{})
		sp.SetAttr("path", path)
		res, err := Handoff(conn, s.Set, HandoffOptions{
			meta:    meta,
			timeout: s.handshakeTimeout,
			trace:   sp,
			proto:   proto,
		})
		if err != nil {
			conn.Close()
			sp.Fail(err)
			sp.End()
			// An aborted hand-off leaves this instance fully in charge;
			// keep serving so a retried deploy can connect again.
			if s.OnHandoffError != nil {
				s.OnHandoffError(err)
			}
			continue
		}
		// Committed: this instance stops accepting and drains.
		spCommit := sp.StartChild(obs.SpanTakeoverCommit)
		spCommit.SetAttr("side", "sender")
		spCommit.SetAttr("proto", strconv.Itoa(res.Proto))
		if s.OnDrainStart != nil {
			s.OnDrainStart(*res)
		}
		spCommit.End()

		// ProtoDrainUndo (something retained): the commit is fenced by a
		// liveness lease. Hold the session open until the receiver's READY
		// frame proves it is serving, then release the lease by delivering
		// the drain-start confirmation. Either half failing rolls the
		// hand-off back: the receiver steps down (it treats a missing
		// confirmation as undo) and this instance re-arms from the
		// retained dups. With a v2 peer the commit is final — a failure
		// past this point is the caller's RestartFresh territory, never a
		// silent retry — and the confirmation is best-effort: a receiver
		// that doesn't wait (bare Receive) has already hung up.
		var cause error
		if res.retained != nil {
			spReady := sp.StartChild(obs.SpanTakeoverReady)
			spReady.SetAttr("side", "sender")
			cause = awaitReady(conn, s.ReadyTimeout)
			if cause == nil && s.OnReady != nil {
				s.OnReady(*res)
			}
			spReady.Fail(cause)
			spReady.End()
		}
		if cause == nil {
			// End the spans before the drain-started confirmation goes
			// out: the frame releases the receiver, and a release report
			// assembled right after must not catch this trace still in
			// flight.
			sp.End()
			sp = nil
			conn.SetDeadline(time.Now().Add(time.Second))
			if werr := writeFrame(conn, msgDrainStarted, nil, nil); werr != nil && res.retained != nil {
				cause = fmt.Errorf("takeover: delivering drain-start: %w", werr)
			}
		}
		conn.Close()
		if cause == nil {
			res.retained.Close()
			return nil
		}

		// Undo: re-arm from the retained dups and resume serving. The
		// kernel sockets were alive (and queuing SYNs) the whole time.
		spUndo := sp.StartChild(obs.SpanTakeoverUndo)
		if sp == nil {
			// The hand-off's trace is closed; the undo is its own root.
			spUndo = s.Tracer.StartSpan(obs.SpanTakeoverUndo, obs.SpanContext{})
		}
		spUndo.SetAttr("retained_fds", strconv.Itoa(res.retained.Len()))
		spUndo.SetAttr("cause", cause.Error())
		rearmed, rerr := res.retained.rearm()
		err = undoneErr(cause)
		if rerr != nil {
			// No way back: this instance is draining and its listeners
			// cannot be restored — the one edge left for RestartFresh.
			err = fmt.Errorf("takeover: drain-undo failed, RestartFresh required: %w (lease: %v)", rerr, cause)
			spUndo.Fail(err)
		} else {
			s.OnUndo(rearmed, cause) // set: the lease is only offered with it
		}
		spUndo.End()
		sp.Fail(err)
		sp.End()
		if s.OnHandoffError != nil {
			s.OnHandoffError(err)
		}
		if rerr != nil {
			return err
		}
		// Un-drained: this instance is fully in charge again; keep
		// serving hand-offs so a redeploy can retry.
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ul != nil {
		err := s.ul.Close()
		s.ul = nil
		return err
	}
	return nil
}

// defaultConnectBackoff paces Connect's dial retries: the old instance's
// takeover socket may not exist yet (deploy ordering) or may be briefly
// busy with another hand-off attempt.
var defaultConnectBackoff = faults.Backoff{
	Base:     20 * time.Millisecond,
	Max:      250 * time.Millisecond,
	Factor:   2,
	Attempts: 8,
}

// ConnectOptions configures Connect: the embedded receive options
// (Timeout bounds both the overall dial budget and each protocol
// exchange).
type ConnectOptions struct {
	ReceiveOptions
}

// Connect dials the old instance's takeover server at path and receives
// the socket set (steps A–F, receiver side).
//
// Dial failures are retried per defaultConnectBackoff until opts.Timeout; protocol
// failures behind a successful dial are not retried (the sender rolled
// back — a blind retry would race its abort handling) and are returned
// with their ErrAborted/ErrUndone classification intact so the
// orchestrator can decide between retrying with a fresh receiver and
// giving up.
func Connect(path string, opts ConnectOptions) (*ListenerSet, *Result, error) {
	if opts.timeout <= 0 {
		opts.timeout = defaultHandshakeTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.timeout)
	defer cancel()
	var (
		set *ListenerSet
		res *Result
	)
	err := defaultConnectBackoff.Retry(ctx, func() error {
		spA := opts.Trace.StartChild(obs.SpanTakeoverStepA)
		spA.SetAttr("path", path)
		d := net.Dialer{Timeout: opts.timeout}
		c, err := d.DialContext(ctx, "unix", path)
		if err != nil {
			err = fmt.Errorf("takeover: connect %s: %w", path, err)
			spA.Fail(err)
			spA.End()
			return err
		}
		spA.End()
		conn := c.(*net.UnixConn)
		defer conn.Close()
		if set, res, err = Receive(conn, opts.ReceiveOptions); err != nil {
			return faults.Permanent(err)
		}
		return nil
	})
	return set, res, err // both nil unless the hand-off completed
}

func removeStaleSocket(path string) error {
	if _, err := os.Stat(path); err == nil {
		// Only remove if nothing is listening (stale from a crash).
		if c, err := net.DialTimeout("unix", path, 100*time.Millisecond); err == nil {
			c.Close()
			return fmt.Errorf("takeover: %s already has a live server", path)
		}
		return os.Remove(path)
	}
	return nil
}
