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
// The commit is fenced by a post-commit recovery window (drain-undo):
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
// Compatibility rule — one revision: a build speaks protoDrainUndo (v3)
// and nothing else, and says so in the manifest's proto field and in the
// PREPARE-ACK's. A release only ever meets the build before it, or the
// one after it when it rolls back, and N−1 is the nearest parent build:
// internal/e2e builds it and releases to and from it. A peer of any other
// revision — the one-shot protocol (no proto field, a single ACK as its
// commit point) or two-phase v2 (no lease) — is refused before anything
// is armed or drained: the receiver nacks its manifest, the sender
// answers its ack with ABORT, and either way the old instance keeps
// serving.
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
	"cmp"
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
	// any other value with no retry, so the protocol revision rides the
	// manifest's proto field instead (see protoDrainUndo).
	version     = 1
	maxManifest = 1 << 20

	msgManifest     = 1
	msgAck          = 2 // receiver → sender: refusal before arming (an OK one, the one-shot commit, is refused)
	msgFDChunk      = 3
	msgDrainStarted = 4 // sender → receiver: accepting stopped, drain begun (step E)
	msgPrepareAck   = 5 // receiver → sender: armed and serving, awaiting commit
	msgCommit       = 6 // sender → receiver: hand-off committed, drain begins now
	msgAbort        = 7 // sender → receiver: hand-off abandoned before commit
	msgReady        = 8 // receiver → sender: confirmed serving, release the lease

	// fdsPerFrame bounds descriptors per sendmsg; Linux caps SCM_RIGHTS
	// at 253 per message, and netx enforces its own lower bound. Larger
	// VIP sets are split across continuation frames.
	fdsPerFrame = 64
)

// protoDrainUndo is the one protocol revision this build speaks: step (D)
// of the package doc split into PREPARE-ACK and COMMIT, fenced by the
// post-commit lease.
const protoDrainUndo = 3

// defaultHandshakeTimeout bounds each protocol step.
const defaultHandshakeTimeout = 5 * time.Second

// defaultReadyTimeout bounds the sender's post-commit wait for the
// receiver's READY frame (the drain-undo lease). A receiver that has not
// confirmed serving within this window is presumed dead and the hand-off
// is undone.
const defaultReadyTimeout = 5 * time.Second

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
// post-commit window. The dups keep the kernel sockets
// alive (and their accept backlogs queuing) no matter what happens to the
// receiver. Exactly one of two things must happen to a retainedSet:
//
//   - Close — the receiver confirmed serving (READY received, lease
//     released): drop the dups, the drain proceeds.
//   - Rearm — the lease broke: rebuild a live ListenerSet from the dups
//     so the sender can resume accepting on the very same kernel sockets.
//
// handoff drives this lifecycle.
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
	// Proto is the sender's protocol revision, protoDrainUndo. Any other
	// value — absent/zero is a one-shot sender — is refused (see the
	// package doc's compatibility rule).
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
	// Proto is the receiver's protocol revision, protoDrainUndo. A v2
	// receiver never sets it and would never release the lease, so a
	// PREPARE-ACK without it is answered with ABORT.
	Proto int `json:"proto,omitempty"`
}

// Result summarises a completed hand-off, from the sender's perspective
// (handoff) or receiver's (receive).
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
	// PeerTrace is the receiver's hand-off span context in wire form,
	// from its ack (sender side), or "" if the receiver was untraced.
	PeerTrace string
}

var (
	// errRejected is returned by handoff when the new instance refused
	// the socket set.
	errRejected = errors.New("takeover: peer rejected hand-off")
	// errBadMagic indicates the peer is not speaking the takeover
	// protocol (§5.1: guard against a mis-deployed binary).
	errBadMagic = errors.New("takeover: bad protocol magic")
	// ErrAborted marks a receiver-side hand-off failure that happened
	// before the commit point: the sender never began draining (or rolled
	// back to serving), no client saw a reset, and the caller may safely
	// retry with a freshly built receiver.
	ErrAborted = errors.New("takeover: hand-off aborted before commit")
	// ErrUndone marks a hand-off that passed its commit point and was
	// then rolled back through the drain-undo lease: the
	// receiver could not confirm serving — crash, wedge, failed readiness
	// gate, lost READY — so the sender re-armed its retained listener
	// dups and resumed serving. Like ErrAborted, no client saw a reset
	// and the caller may retry with a fresh receiver; unlike ErrAborted,
	// the failure happened after COMMIT.
	ErrUndone = errors.New("takeover: hand-off undone after commit")
)

// outsideRule is how every refusal of a peer of another revision names
// the compatibility rule.
const outsideRule = "this build speaks takeover protocol v3 only"

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
	// SOCK_STREAM has no message boundaries: consecutive frames (e.g. a
	// manifest and its FD continuation frames) coalesce into one socket
	// read, and a large payload splits across many. Read exactly the
	// 5-byte header, then exactly the declared payload length, never
	// consuming bytes of the next frame. SCM_RIGHTS ancillary data rides the first byte of its
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

// errNoWayBack marks a broken lease whose retained dups could not be
// re-armed: the sender is draining with no listeners to return to.
var errNoWayBack = errors.New("takeover: drain-undo failed, RestartFresh required")

// handoff runs the sender side (old instance) of the takeover protocol on
// an established UNIX socket connection: it sends the manifest and FDs for
// every socket in s.Set, waits for the new instance's PREPARE-ACK,
// delivers the COMMIT, and holds the post-commit lease until READY. root,
// when non-nil, is the hand-off's root span: handoff records its prepare,
// commit, ready and undo children and ends it.
//
// An error before the COMMIT means the hand-off aborted before this
// instance stopped accepting: it is still fully in charge and must keep
// serving. After the COMMIT, s.OnDrainStart stops accepting and drains; a
// lease that then breaks closes conn, re-arms the retained dups, hands
// them to s.OnUndo, and returns an error wrapped in ErrUndone
// (errNoWayBack when re-arming failed). On success the lease was released: the retained dups
// are closed and the drain proceeds.
func (s *Server) handoff(conn *net.UnixConn, root *obs.Span) (*Result, error) {
	timeout := s.handshakeTimeout
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	start := time.Now()
	defer conn.SetDeadline(time.Time{})
	sp := root.StartChild(obs.SpanTakeoverPrepare)
	sp.SetAttr("side", "sender")
	fail := func(err error) (*Result, error) {
		sp.Fail(err)
		sp.End()
		root.Fail(err)
		root.End()
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
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return fail(err)
	}
	if uid, err := peerUID(conn); err != nil || uid != os.Getuid() {
		return abort(errors.Join(fmt.Errorf("takeover: refused a peer of uid %d, not this process's %d", uid, os.Getuid()), err))
	}

	m := manifest{Magic: magic, Version: version, Proto: protoDrainUndo, VIPs: s.Set.VIPs(), Meta: s.Meta}
	payload, err := json.Marshal(m)
	if err != nil {
		return fail(err)
	}
	fds, err := s.Set.fds()
	if err != nil {
		return fail(err)
	}
	// Our dups; the receiver has its own after sendmsg. Past COMMIT they
	// are retained instead — the post-commit recovery window — and fds is
	// emptied.
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
	if a.Proto != protoDrainUndo {
		// A v2 receiver would never release the lease.
		return abort(fmt.Errorf("takeover: peer answers protocol revision %d; %s", a.Proto, outsideRule))
	}
	res := &Result{VIPs: m.VIPs, PeerTrace: a.Trace}
	// This write is the commit point: if COMMIT cannot be delivered the
	// receiver disarms and this instance keeps serving — nobody drains,
	// nobody resets.
	if err := writeFrame(conn, msgCommit, nil, nil); err != nil {
		return fail(fmt.Errorf("takeover: delivering commit: %w", err))
	}
	retained := newRetainedSet(m.VIPs, fds)
	sp.SetAttr("retained_fds", strconv.Itoa(len(fds)))
	fds = nil
	res.Duration = time.Since(start)
	sp.End()

	// Committed: this instance stops accepting and drains.
	spCommit := root.StartChild(obs.SpanTakeoverCommit)
	spCommit.SetAttr("side", "sender")
	if s.OnDrainStart != nil {
		s.OnDrainStart(*res)
	}
	spCommit.End()

	// The commit is fenced by a liveness lease. Hold the session open
	// until the receiver's READY frame proves it is serving, then release
	// the lease by delivering the drain-start confirmation. Either half
	// failing rolls the hand-off back: the receiver steps down (it treats
	// a missing confirmation as undo) and this instance re-arms from the
	// retained dups.
	spReady := root.StartChild(obs.SpanTakeoverReady)
	spReady.SetAttr("side", "sender")
	cause := awaitReady(conn, s.ReadyTimeout)
	if cause == nil && s.OnReady != nil {
		s.OnReady(*res)
	}
	spReady.Fail(cause)
	spReady.End()
	if cause == nil {
		// End the trace before the drain-started confirmation goes out:
		// the frame releases the receiver, and a release report assembled
		// right after must not catch this trace still in flight.
		root.End()
		conn.SetDeadline(time.Now().Add(time.Second))
		werr := writeFrame(conn, msgDrainStarted, nil, nil)
		if werr == nil {
			retained.Close()
			return res, nil
		}
		// The undo below joins the trace after its root has ended.
		cause = fmt.Errorf("takeover: delivering drain-start: %w", werr)
	}

	// Undo: re-arm from the retained dups and resume serving. The kernel
	// sockets were alive (and queuing SYNs) the whole time. The session
	// closes first, so the receiver steps down before this instance
	// resumes.
	conn.Close()
	spUndo := root.StartChild(obs.SpanTakeoverUndo)
	spUndo.SetAttr("retained_fds", strconv.Itoa(retained.Len()))
	spUndo.SetAttr("cause", cause.Error())
	rearmed, rerr := retained.rearm()
	err = undoneErr(cause)
	switch {
	case rerr != nil:
		err = fmt.Errorf("%w: %w (lease: %v)", errNoWayBack, rerr, cause)
		spUndo.Fail(err)
	case s.OnUndo != nil:
		s.OnUndo(rearmed, cause)
	default:
		rearmed.Close()
	}
	spUndo.End()
	root.Fail(err)
	root.End()
	return nil, err
}

// ReceiveOptions configures the receiver side of a hand-off.
type ReceiveOptions struct {
	// timeout bounds the exchange; zero means defaultHandshakeTimeout.
	timeout time.Duration
	// Trace, when non-nil, gets the receiver's Fig. 5 step spans as
	// children, in order: step A (Connect only), step B, step C,
	// prepare, commit, ready and step E (obs/names.go says what each
	// covers).
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
	// Ready, when non-nil, is the readiness gate behind READY: it runs
	// after COMMIT arrives and must confirm this instance is genuinely
	// serving (e.g. /healthz green) before the READY frame goes out. An
	// error steps this instance down — Disarm runs, the sender's lease
	// breaks, the sender un-drains, and the error is wrapped in
	// ErrUndone.
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
	if m.Proto != protoDrainUndo {
		// A one-shot sender would take the single ACK it expects for the
		// commit point, and a v2 sender would never hold the lease: refuse
		// either before anything is adopted.
		err := fmt.Errorf("takeover: peer offers protocol revision %d; %s", m.Proto, outsideRule)
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

// receive runs the receiver side (new instance): it reads the manifest and
// FDs, reconstructs a ListenerSet, closes any FD it cannot adopt (orphan
// prevention, §5.1), arms, confirms to the old instance, and — past the
// COMMIT — proves it serves with READY and waits for the drain-start
// confirmation that releases the sender's lease.
//
// An error wrapped in ErrAborted means the hand-off died before its commit
// point; one wrapped in ErrUndone means it was rolled back through the
// post-commit lease. In both cases the sender keeps (or resumes) serving
// undisturbed and the caller may retry with a fresh receiver.
func receive(conn *net.UnixConn, opts ReceiveOptions) (*ListenerSet, *Result, error) {
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

	res := &Result{VIPs: m.VIPs, Meta: m.Meta, OrphanedFDs: orphans}

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
	a := ack{OK: true, Adopted: set.Len(), Trace: parent.Context().String(), Proto: protoDrainUndo}
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

	// READY/lease epilogue: prove this instance is genuinely serving,
	// deliver READY, and wait for the drain-start confirmation (step E)
	// that releases the sender's lease. Every failure here means the
	// sender will (or already did) un-drain from its retained dups — so
	// this side must step down: a half of the lease handshake that cannot
	// complete belongs to the generation that yields.
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
		}
	}
	spReady.Fail(rerr)
	spReady.End()
	if rerr == nil {
		spE := parent.StartChild(obs.SpanTakeoverStepE)
		rerr = expectFrame(conn, msgDrainStarted, "drain-start confirmation")
		spE.Fail(rerr)
		spE.End()
	}
	if rerr != nil {
		disarm()
		return nil, nil, undoneErr(rerr)
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
	// draining (step E). The drain may still be rolled back by OnUndo if
	// the receiver never confirms serving.
	OnDrainStart func(Result)
	// OnReady, if non-nil, is invoked when the receiver's READY frame
	// releases the drain-undo lease: the hand-off is final, the retained
	// dups are closed, and the drain proceeds to completion.
	OnReady func(Result)
	// OnUndo, if non-nil, is invoked when the drain-undo lease breaks
	// before READY (receiver crash, wedge, failed readiness gate): the
	// listeners have been re-armed from the retained dups and the
	// callback must resume accepting on them — reversing whatever
	// OnDrainStart did. cause is the lease failure. When nil, the
	// re-armed listeners are closed.
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
	// a "takeover.commit" child covering the drain cut-over, a
	// "takeover.ready" child for the lease window and, if the lease
	// breaks, a "takeover.undo" child carrying the retained-FD count. An
	// aborted attempt therefore shows a failed takeover.prepare and no
	// takeover.commit.
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

// peerUID returns the uid of the process at conn's other end, from its
// SO_PEERCRED. A variable so that a test can present another uid.
var peerUID = func(conn *net.UnixConn) (int, error) {
	var cred *syscall.Ucred
	raw, err := conn.SyscallConn()
	if err == nil {
		cerr := raw.Control(func(fd uintptr) {
			cred, err = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
		})
		err = cmp.Or(cerr, err)
	}
	if err != nil {
		return -1, err
	}
	return int(cred.Uid), nil
}

// Listen binds the pre-specified UNIX path, removing a stale socket file
// first, and leaves it at mode 0600. When it returns nil a next
// generation can connect: the hand-off waits in the listen backlog until
// Serve accepts it.
func (s *Server) Listen(path string) error {
	if err := removeStaleSocket(path); err != nil {
		return err
	}
	// Whoever connects gets every VIP's socket, so only this uid may. A
	// bind gives the file the socket's mode less the umask: fchmod first.
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) (err error) {
		cerr := c.Control(func(fd uintptr) { err = syscall.Fchmod(int(fd), 0o600) })
		return cmp.Or(cerr, err)
	}}
	ln, err := lc.Listen(context.Background(), "unix", path)
	if err != nil {
		return fmt.Errorf("takeover: listen %s: %w", path, err)
	}
	s.mu.Lock()
	s.ul = ln.(*net.UnixListener)
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
	for {
		conn, err := ul.AcceptUnix()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sp := s.Tracer.StartSpan(obs.SpanTakeoverServe, obs.SpanContext{})
		sp.SetAttr("path", path)
		_, err = s.handoff(conn, sp)
		conn.Close()
		if err == nil {
			return nil
		}
		// An aborted or undone hand-off leaves this instance fully in
		// charge; keep serving so a retried deploy can connect again.
		if s.OnHandoffError != nil {
			s.OnHandoffError(err)
		}
		if errors.Is(err, errNoWayBack) {
			return err
		}
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

// Connect dials the old instance's takeover server at path and receives
// the socket set (steps A–F, receiver side).
//
// Dial failures are retried per defaultConnectBackoff until the timeout; protocol
// failures behind a successful dial are not retried (the sender rolled
// back — a blind retry would race its abort handling) and are returned
// with their ErrAborted/ErrUndone classification intact so the
// orchestrator can decide between retrying with a fresh receiver and
// giving up.
func Connect(path string, opts ReceiveOptions) (*ListenerSet, *Result, error) {
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
		if set, res, err = receive(conn, opts); err != nil {
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
