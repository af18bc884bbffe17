// Package quicx implements the QUIC-style UDP substrate of §4.1: a
// datagram protocol in which every packet carries a connection ID, a
// per-flow stateful server, and the user-space routing that lets a
// restarting proxy keep serving its UDP flows.
//
// The paper's problem statement: UDP has no kernel separation between
// listening and accepted sockets, so after Socket Takeover hands the VIP
// socket(s) to the new process, *all* packets — including those belonging
// to flows whose state lives in the old, draining process — arrive at the
// new process. "The new process employs user-space routing and forwards
// packets to the old process through a pre-configured host local
// addresses. Decisions ... are made based on information present in each
// UDP packet, such as connection ID." This package implements exactly
// that: a Server with a flow table keyed by connection ID, and a
// Forwarder that tunnels unknown-flow packets (with the original source
// address prepended) to the draining instance's local socket.
//
// The package also contains ReuseportModel (reuseportmodel.go), the
// deterministic model of the kernel's SO_REUSEPORT socket-ring flux used
// to regenerate the mis-routing baseline of Fig. 2d and Fig. 10.
package quicx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/metrics"
	"zdr/internal/netx"
)

// PacketType is the first byte of every datagram.
type PacketType uint8

// Packet types.
const (
	// PktInitial opens a flow: the server creates state for the conn ID.
	PktInitial PacketType = 1
	// PktData is a payload packet on an existing flow.
	PktData PacketType = 2
	// PktClose tears a flow down.
	PktClose PacketType = 3
	// pktForwarded wraps another packet with its original source address
	// (used on the drain-forwarding path, never on the wire to clients).
	pktForwarded PacketType = 9
)

// ConnID identifies a flow, present in every packet header (§4.1: "such as
// connection ID that is present in each QUIC packet header").
type ConnID uint64

// headerLen is type(1) + connID(8).
const headerLen = 9

// maxDatagram bounds handled packets.
const maxDatagram = 64 << 10

// Packet is a parsed datagram.
type Packet struct {
	Type    PacketType
	Conn    ConnID
	Payload []byte
}

// Marshal serializes p into a fresh buffer.
func Marshal(p Packet) []byte {
	return AppendPacket(make([]byte, 0, headerLen+len(p.Payload)), p)
}

// AppendPacket serializes p onto dst and returns the extended slice. With
// a dst of sufficient capacity (headerLen + len(p.Payload)) it does not
// allocate — the server's reply path appends into a pooled buffer.
func AppendPacket(dst []byte, p Packet) []byte {
	dst = append(dst, byte(p.Type))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Conn))
	return append(dst, p.Payload...)
}

// Unmarshal parses a datagram.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < headerLen {
		return Packet{}, errors.New("quicx: short packet")
	}
	return Packet{
		Type:    PacketType(b[0]),
		Conn:    ConnID(binary.BigEndian.Uint64(b[1:9])),
		Payload: b[headerLen:],
	}, nil
}

// forwardedHdr is type(1) + the address text's length(2).
const forwardedHdr = 3

// maxAddrText bounds the address text of a forwarded packet: the longest
// "[ipv6%zone]:port" AppendTo writes for an interface-name zone.
const maxAddrText = 80

// appendForwarded encapsulates raw with the original client address onto
// dst: type, the address text's length, the text ("ip:port", IPv6 in
// brackets with its zone), then raw. It allocates nothing given capacity
// forwardedHdr + maxAddrText + len(raw).
func appendForwarded(dst, raw []byte, from netip.AddrPort) []byte {
	hdr := len(dst)
	dst = append(dst, byte(pktForwarded), 0, 0)
	dst = from.AppendTo(dst)
	binary.BigEndian.PutUint16(dst[hdr+1:], uint16(len(dst)-hdr-forwardedHdr))
	return append(dst, raw...)
}

// addrPortOf is a's address for the forwarded encapsulation, in IPv4 form
// when it has one. ok is false for an address that is not UDP's.
func addrPortOf(a net.Addr) (ap netip.AddrPort, ok bool) {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return ap, false
	}
	ap = ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), ap.IsValid()
}

// forwardedPeers decodes the client address of forwarded packets, keeping
// one *net.UDPAddr per distinct address text so a flow's packets arrive
// with the same pointer every time (nothing allocated per packet, and the
// migration check's pointer-equal fast path holds on the drain side too).
// Bounded like netx's sockaddr cache: beyond the limit it starts over.
type forwardedPeers map[string]*net.UDPAddr

const forwardedPeersLimit = 1024

// unwrap reverses appendForwarded. The address must be a literal IP and
// port — netip.ParseAddrPort's grammar — so bytes off the wire can never
// cause a name lookup.
func (c forwardedPeers) unwrap(b []byte) (raw []byte, from *net.UDPAddr, err error) {
	if len(b) < forwardedHdr || PacketType(b[0]) != pktForwarded {
		return nil, nil, errors.New("quicx: not a forwarded packet")
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < forwardedHdr+n {
		return nil, nil, errors.New("quicx: truncated forwarded packet")
	}
	text, raw := b[forwardedHdr:forwardedHdr+n], b[forwardedHdr+n:]
	if from, ok := c[string(text)]; ok {
		return raw, from, nil
	}
	ap, err := netip.ParseAddrPort(string(text))
	if err != nil {
		return nil, nil, fmt.Errorf("quicx: forwarded packet's address: %w", err)
	}
	from = net.UDPAddrFromAddrPort(ap)
	if len(c) >= forwardedPeersLimit {
		clear(c)
	}
	c[string(text)] = from
	return raw, from, nil
}

// sameAddr reports whether a and b name one UDP endpoint, by value: the
// receive ring hands out one *net.UDPAddr per peer, so the pointers are
// equal except after its cache started over. IPv4 and IPv4-mapped IPv6
// forms of an address are the same endpoint.
func sameAddr(a, b net.Addr) bool {
	ua, aok := a.(*net.UDPAddr)
	ub, bok := b.(*net.UDPAddr)
	if !aok || !bok {
		return a.String() == b.String()
	}
	return ua == ub || (ua.Port == ub.Port && ua.Zone == ub.Zone && ua.IP.Equal(ub.IP))
}

// Handler processes a flow packet and returns an optional reply payload.
// The payload slice aliases the server's receive buffer and is valid only
// for the duration of the call: a handler that retains bytes past its
// return must copy them. (Returning payload, or a slice of it, as the
// reply is fine — the reply is marshalled before the buffer is reused.)
// The server only reads the reply and is done with it when the call that
// returned it has been answered, so a handler may hand the same slice to
// every caller.
type Handler func(conn ConnID, payload []byte) (reply []byte)

// Server is a connection-ID-routed UDP server. One Server represents one
// proxy instance's UDP stack; during a restart two Servers (old draining,
// new active) cooperate via forwarding.
type Server struct {
	name string
	reg  *metrics.Registry
	// The per-datagram and per-flow counters, resolved once: during a
	// release every datagram the new generation reads counts on
	// cForwarded, and Registry.Counter is a mutex and a map lookup.
	cRx, cTx, cOpened, cClosed         *metrics.Counter
	cForwarded, cMisrouted, cMalformed *metrics.Counter
	cForwardBad, cInitialWhileDraining *metrics.Counter

	handler Handler

	mu    sync.Mutex
	flows map[ConnID]net.Addr // flow state: conn -> last client addr
	// forwardTo, when set, is where packets for unknown flows are
	// tunneled (the draining instance's local address). Nil means no
	// forwarding: unknown-flow data packets count as misrouted.
	forwardTo *net.UDPAddr
	// acceptNew is false while draining: PktInitial is NOT handled
	// (the new instance owns new flows).
	acceptNew bool
	// drainMain tells the VIP read loop to exit: after takeover the new
	// instance reads the shared socket; this instance only writes replies
	// through its still-open handle.
	drainMain bool
	closed    bool
	// mainLoops counts live VIP read loops (0 or 1). UndoDrain and the
	// loop's own exit decision share the mutex, so an undo never leaves
	// the socket with zero readers or spawns a second one. mainExit is
	// signalled when it drops: StartDraining waits on it.
	mainLoops int
	mainExit  sync.Cond // L is &mu
	// fwdLoop records that the forward read loop has been spawned; it
	// runs until Close, so a drain → undo → drain cycle must not spawn
	// another.
	fwdLoop bool

	// sockets
	main net.PacketConn // the VIP socket (shared across takeover)
	fwd  *net.UDPConn   // host-local forward receive socket (drain side)

	// out is the batched sender over the shared VIP socket: replies and
	// forwards from both read loops coalesce through it, one sendmmsg
	// per drained burst instead of one WriteTo per packet. Created
	// lazily so DisableBatch can run between NewServer and Start.
	out *netx.SendRing
	// noBatch forces one-syscall-per-packet I/O in both directions —
	// the before/after lever for throughput benchmarks.
	noBatch bool

	wg sync.WaitGroup
}

// NewServer creates a server for the given VIP socket. Accepting the
// net.PacketConn interface (rather than *net.UDPConn) lets callers
// interpose fault-injection or instrumentation wrappers on the server-
// side UDP path; the shared VIP *net.UDPConn handle used for the FD
// hand-off stays with the caller. reg may be nil.
func NewServer(name string, vip net.PacketConn, handler Handler, reg *metrics.Registry) *Server {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		name:                  name,
		reg:                   reg,
		cRx:                   reg.Counter("quicx.rx"),
		cTx:                   reg.Counter("quicx.tx"),
		cOpened:               reg.Counter("quicx.flows.opened"),
		cClosed:               reg.Counter("quicx.flows.closed"),
		cForwarded:            reg.Counter("quicx.forwarded"),
		cMisrouted:            reg.Counter("quicx.misrouted"),
		cMalformed:            reg.Counter("quicx.malformed"),
		cForwardBad:           reg.Counter("quicx.forward.bad"),
		cInitialWhileDraining: reg.Counter("quicx.initial.while.draining"),
		handler:               handler,
		flows:                 make(map[ConnID]net.Addr),
		acceptNew:             true,
		main:                  vip,
	}
	s.mainExit.L = &s.mu
	return s
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// DisableBatch forces one-syscall-per-packet socket I/O (the pre-batching
// data plane) so benchmarks can measure the recvmmsg/sendmmsg win. Must
// be called before Start.
func (s *Server) DisableBatch() {
	s.mu.Lock()
	s.noBatch = true
	s.mu.Unlock()
}

// sender returns the batched VIP writer, creating it on first use. Both
// read loops share it: the VIP socket outlives any one loop generation,
// so the send ring follows the socket, not the loop.
func (s *Server) sender() *netx.SendRing {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out == nil {
		s.out = netx.NewSendRing(s.main, netx.BatchConfig{
			Registry:           s.reg,
			Prefix:             "quicx.batch",
			DisableKernelBatch: s.noBatch,
		})
	}
	return s.out
}

// Start begins reading the VIP socket.
func (s *Server) Start() {
	s.mu.Lock()
	s.mainLoops++
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.readLoop(s.main, false)
	}()
}

// FlowCount returns the number of live flows.
func (s *Server) FlowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}

// SetForward directs unknown-flow packets to addr (the draining
// instance's forward socket). Passing nil disables forwarding.
func (s *Server) SetForward(addr *net.UDPAddr) {
	s.mu.Lock()
	s.forwardTo = addr
	s.mu.Unlock()
}

// PrepareDrain binds the host-local forward socket ahead of time and
// returns its address — the paper's "pre-configured host local address"
// that the new instance is told about during the hand-off (it rides in
// the takeover manifest metadata). Idempotent.
func (s *Server) PrepareDrain() (*net.UDPAddr, error) {
	s.mu.Lock()
	if s.fwd != nil {
		addr := s.fwd.LocalAddr().(*net.UDPAddr)
		s.mu.Unlock()
		return addr, nil
	}
	s.mu.Unlock()
	fwd, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("quicx: bind forward socket: %w", err)
	}
	s.mu.Lock()
	if s.fwd != nil { // raced; keep the first
		addr := s.fwd.LocalAddr().(*net.UDPAddr)
		s.mu.Unlock()
		fwd.Close()
		return addr, nil
	}
	s.fwd = fwd
	s.mu.Unlock()
	return fwd.LocalAddr().(*net.UDPAddr), nil
}

// StartDraining puts the server in drain mode: it stops reading the VIP
// socket (the caller hands the socket to the new instance; this server
// keeps serving existing flows via its forward socket and writes replies
// through its still-shared copy of the VIP socket). It returns the local
// forward address the new instance should tunnel to.
//
// It is a fence: when it returns, the VIP read loop has exited — having
// handled the datagrams it had already pulled — and this server takes no
// further datagram from the VIP, so the instant of return is the instant
// the VIP's read side has one owner again (§4.1: a datagram the old
// generation wins after the hand-off is one the new generation never gets
// to route). Only UndoDrain, which gives the read side back, or Close
// ends the wait early.
func (s *Server) StartDraining() (*net.UDPAddr, error) {
	fwdAddr, err := s.PrepareDrain()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	fwd := s.fwd
	alreadyDraining := s.drainMain
	s.mu.Unlock()
	if alreadyDraining {
		return fwdAddr, nil
	}
	s.mu.Lock()
	s.acceptNew = false
	s.drainMain = true
	startFwd := !s.fwdLoop
	s.fwdLoop = true
	s.mu.Unlock()
	// Kick the blocked VIP read so the loop observes drainMain. Reads stop;
	// writes through the shared socket are unaffected.
	s.main.SetReadDeadline(time.Now())
	if startFwd {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.readLoop(fwd, true)
		}()
	}
	s.mu.Lock()
	for s.mainLoops > 0 && s.drainMain && !s.closed {
		s.mainExit.Wait()
	}
	s.mu.Unlock()
	return fwdAddr, nil
}

// UndoDrain reverses StartDraining (the takeover's drain-undo path): the
// server resumes reading the VIP socket and accepting new flows. The
// forward socket and its read loop are left running — re-arming them is
// idempotent via StartDraining's fwdLoop guard, and a subsequent retried
// hand-off reuses them. The main-loop handover is race-free: the old read
// loop's exit decision and this spawn share the mutex, so the socket ends
// up with exactly one reader whether or not the old loop had already
// observed the drain flag.
func (s *Server) UndoDrain() {
	s.mu.Lock()
	if s.closed || !s.drainMain {
		s.mu.Unlock()
		return
	}
	s.drainMain = false
	s.acceptNew = true
	spawn := s.mainLoops == 0
	if spawn {
		s.mainLoops++
	}
	s.mainExit.Broadcast() // a StartDraining still waiting has been overtaken
	s.mu.Unlock()
	// Clear the poison deadline StartDraining used to kick the loop.
	s.main.SetReadDeadline(time.Time{})
	if spawn {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.readLoop(s.main, false)
		}()
	}
}

// Close stops the server. The VIP socket is closed too (harmless post-
// takeover: the FD is shared, and net.UDPConn.Close only drops this
// handle's reference).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	fwd := s.fwd
	s.mainExit.Broadcast()
	s.mu.Unlock()
	s.main.Close()
	if fwd != nil {
		fwd.Close()
	}
	s.wg.Wait()
	// Loops are gone; release the shared sender's rings (a late sender()
	// call from a loop could have created it after the flag flipped, so
	// re-read under the lock).
	s.mu.Lock()
	out := s.out
	s.out = nil
	s.mu.Unlock()
	if out != nil {
		out.Release()
	}
}

func (s *Server) readLoop(conn net.PacketConn, forwarded bool) {
	s.mu.Lock()
	noBatch := s.noBatch
	s.mu.Unlock()
	// The receive ring belongs to this loop and is released when it
	// exits — the loop-per-generation ownership rule: after a drain →
	// undo cycle the replacement reader builds its own ring, just as a
	// succeeding process builds its own. On a fault-wrapped conn the
	// ring degrades to one ReadFrom per packet, keeping every datagram
	// visible to the wrapper.
	bc := netx.NewRecvRing(conn, netx.BatchConfig{
		Registry:           s.reg,
		Prefix:             "quicx.batch",
		DisableKernelBatch: noBatch,
	})
	defer bc.Release()
	out := s.sender()
	peers := forwardedPeers{} // used by the forward loop only
	for {
		msgs, err := bc.ReadBatch()
		if err != nil {
			if !forwarded {
				var ne net.Error
				timeout := errors.As(err, &ne) && ne.Timeout()
				// The exit decision and the mainLoops decrement are one
				// critical section: UndoDrain's decision to spawn a
				// replacement reader keys off mainLoops under the same
				// lock, so the two can never double-spawn or strand the
				// socket readerless.
				s.mu.Lock()
				if timeout && !s.drainMain && !s.closed {
					s.mu.Unlock()
					continue // spurious deadline; keep serving
				}
				// Draining hands the VIP socket's read side to the new
				// instance; anything else that ends the loop is final.
				s.mainLoops--
				s.mainExit.Broadcast()
				s.mu.Unlock()
			}
			return
		}
		// handlePacket is synchronous and everything downstream (handler,
		// reply marshal, forward encapsulation) finishes with the bytes
		// before it returns, so each datagram is processed in place — no
		// per-packet copy; Messages alias the ring until the next
		// ReadBatch. Replies and forwards queue on the batched sender
		// and go out as one sendmmsg when the burst is drained.
		for _, m := range msgs {
			if m.Addr == nil {
				s.cMalformed.Inc()
				continue
			}
			if forwarded {
				inner, origFrom, err := peers.unwrap(m.Buf)
				if err != nil {
					s.cForwardBad.Inc()
					continue
				}
				s.handlePacket(out, inner, origFrom)
				continue
			}
			s.handlePacket(out, m.Buf, m.Addr)
		}
		out.Flush()
	}
}

// handlePacket processes one datagram from the client at from; replies and
// forwards queue on out, the read loop's handle on the shared VIP sender.
func (s *Server) handlePacket(out *netx.SendRing, raw []byte, from net.Addr) {
	p, err := Unmarshal(raw)
	if err != nil {
		s.cMalformed.Inc()
		return
	}
	s.cRx.Inc()
	switch p.Type {
	case PktInitial:
		s.mu.Lock()
		accept := s.acceptNew
		if accept {
			s.flows[p.Conn] = from
		}
		s.mu.Unlock()
		if !accept {
			// Draining instance: new flows belong to the new instance.
			// With user-space routing this shouldn't happen (the new
			// instance reads the VIP), but a forwarding loop guard
			// matters: count and drop.
			s.cInitialWhileDraining.Inc()
			return
		}
		s.cOpened.Inc()
		s.reply(out, p.Conn, from, s.handler(p.Conn, p.Payload))
	case PktData:
		s.mu.Lock()
		addr, known := s.flows[p.Conn]
		fwdTo := s.forwardTo
		s.mu.Unlock()
		if !known {
			if ap, ok := addrPortOf(from); ok && fwdTo != nil {
				// User-space routing (§4.1): tunnel to the draining
				// instance, preserving the client address.
				bp := bufpool.Get(forwardedHdr + maxAddrText + len(raw))
				fw := appendForwarded((*bp)[:0], raw, ap)
				err := out.QueueTo(fw, fwdTo)
				bufpool.Put(bp)
				if err == nil {
					s.cForwarded.Inc()
					return
				}
			}
			// No state and nowhere to forward: this is a mis-routed
			// packet — the client's flow state is gone.
			s.cMisrouted.Inc()
			return
		}
		if !sameAddr(addr, from) {
			// Client migrated (NAT rebind); update like QUIC does.
			s.mu.Lock()
			s.flows[p.Conn] = from
			s.mu.Unlock()
		}
		s.reply(out, p.Conn, from, s.handler(p.Conn, p.Payload))
	case PktClose:
		s.mu.Lock()
		_, known := s.flows[p.Conn]
		delete(s.flows, p.Conn)
		s.mu.Unlock()
		if known {
			s.cClosed.Inc()
		}
	default:
		s.cMalformed.Inc()
	}
}

func (s *Server) reply(out *netx.SendRing, conn ConnID, to net.Addr, payload []byte) {
	if payload == nil {
		return
	}
	bp := bufpool.Get(headerLen + len(payload))
	pkt := AppendPacket((*bp)[:0], Packet{Type: PktData, Conn: conn, Payload: payload})
	// QueueTo copies pkt into its send ring (or writes through
	// immediately on the fallback path), so the scratch can be returned
	// right away; the read loop flushes the ring after each burst.
	err := out.QueueTo(pkt, to)
	bufpool.Put(bp)
	if err == nil {
		s.cTx.Inc()
	}
}

// Client is a minimal flow client for tests and experiments.
type Client struct {
	conn net.Conn
	id   ConnID
}

// Dial opens a UDP "connection" to addr with the given conn ID.
func Dial(addr string, id ConnID) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, id: id}, nil
}

// ID returns the client's connection ID.
func (c *Client) ID() ConnID { return c.id }

// Open sends PktInitial and waits for the handshake reply.
func (c *Client) Open(payload []byte, timeout time.Duration) ([]byte, error) {
	return c.roundTrip(PktInitial, payload, timeout)
}

// Send sends PktData and waits for the reply.
func (c *Client) Send(payload []byte, timeout time.Duration) ([]byte, error) {
	return c.roundTrip(PktData, payload, timeout)
}

// SendNoReply fires a data packet without waiting.
func (c *Client) SendNoReply(payload []byte) error {
	_, err := c.conn.Write(Marshal(Packet{Type: PktData, Conn: c.id, Payload: payload}))
	return err
}

// Close sends PktClose and releases the socket.
func (c *Client) Close() error {
	c.conn.Write(Marshal(Packet{Type: PktClose, Conn: c.id}))
	return c.conn.Close()
}

func (c *Client) roundTrip(t PacketType, payload []byte, timeout time.Duration) ([]byte, error) {
	if _, err := c.conn.Write(Marshal(Packet{Type: t, Conn: c.id, Payload: payload})); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(timeout))
	bp := bufpool.Get(maxDatagram)
	defer bufpool.Put(bp)
	n, err := c.conn.Read(*bp)
	if err != nil {
		return nil, err
	}
	p, err := Unmarshal((*bp)[:n])
	if err != nil {
		return nil, err
	}
	if p.Conn != c.id {
		return nil, fmt.Errorf("quicx: reply for conn %d, want %d", p.Conn, c.id)
	}
	// The payload aliases the pooled buffer: copy before returning it.
	out := make([]byte, len(p.Payload))
	copy(out, p.Payload)
	return out, nil
}
