package mqtt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/faults"
	"zdr/internal/metrics"
	"zdr/internal/netx"
)

// Broker is an MQTT pub/sub back-end (§2.1 "special-purpose servers, e.g.
// Publish/Subscribe brokers"). Sessions are keyed by the client identifier,
// which in the paper's architecture is the globally unique user-id used to
// route re_connect attempts (§4.2).
//
// Connection-context semantics implement the DCR server side:
//
//   - CONNECT with CleanSession=true creates (or replaces) a session: the
//     normal path for a user's first connection.
//   - CONNECT with CleanSession=false is a resume — the wire form of
//     re_connect. If the broker holds connection context for the
//     client ID it accepts (CONNACK SessionPresent=true, the paper's
//     connect_ack) and atomically splices delivery onto the new transport;
//     otherwise it refuses (CONNACK return code ≠ 0, the paper's
//     connect_refuse) and the edge falls back to a normal client
//     re-connect.
type Broker struct {
	name string
	reg  *metrics.Registry
	// The per-publish counters, resolved once.
	cReceived, cDelivered *metrics.Counter

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	faults atomic.Pointer[faults.Injector]
	// tuning, when set, is applied to every accepted transport before
	// any fault wrapper hides the descriptor. Advisory; see netx.TuneConn.
	tuning atomic.Pointer[netx.ConnTuning]

	// parked tracks event-loop watches for idle connections served by
	// ServeLoop, so Close can retire them (closing a parked conn drops
	// its kernel-side epoll interest silently; the watch bookkeeping must
	// be cancelled explicitly).
	parkedMu sync.Mutex
	parked   map[*netx.Watch]struct{}

	wg sync.WaitGroup
}

// SetFaults installs a fault injector on the accept path: every
// connection accepted by Serve is wrapped with an injected fault
// schedule (chaos testing). Pass nil to remove it. Safe to call
// concurrently with Serve.
func (b *Broker) SetFaults(in *faults.Injector) {
	b.faults.Store(in)
}

// SetTuning installs socket options (netx.ConnTuning) applied to every
// transport the broker accepts. Pass nil to stop tuning. Safe to call
// concurrently with Serve.
func (b *Broker) SetTuning(t *netx.ConnTuning) {
	b.tuning.Store(t)
}

// tune applies the installed tuning to a freshly accepted conn;
// failures are counted, never fatal.
func (b *Broker) tune(conn net.Conn) {
	if err := netx.TuneConn(conn, b.tuning.Load()); err != nil {
		b.reg.Counter("mqtt.tune.errors").Inc()
	}
}

// session is per-user connection context.
type session struct {
	id string

	mu   sync.Mutex
	conn net.Conn // nil while detached
	subs []string
	gen  uint64 // bumped on each transport splice
}

// NewBroker creates a broker. reg may be nil.
func NewBroker(name string, reg *metrics.Registry) *Broker {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Broker{
		name:       name,
		reg:        reg,
		cReceived:  reg.Counter("mqtt.publish.received"),
		cDelivered: reg.Counter("mqtt.publish.delivered"),
		sessions:   make(map[string]*session),
		parked:     make(map[*netx.Watch]struct{}),
	}
}

// Metrics returns the broker's registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// ErrBrokerClosed is returned by Serve after Close.
var ErrBrokerClosed = errors.New("mqtt: broker closed")

// Serve accepts connections from ln until it is closed.
func (b *Broker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		b.tune(conn)
		conn = b.faults.Load().Conn(conn)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.ServeConn(conn)
		}()
	}
}

// ServeConn handles one transport connection: a direct client or a relay
// carrying one tunneled user. It returns when the transport dies; session
// context is retained for a future resume.
func (b *Broker) ServeConn(conn net.Conn) error {
	defer conn.Close()
	br := bufpool.GetReader(conn)
	defer bufpool.PutReader(br)
	sess, gen, keepAlive, err := b.handshake(conn, br)
	if err != nil || sess == nil {
		return err
	}
	dec := decoder{r: br}
	for {
		if keepAlive > 0 {
			conn.SetReadDeadline(time.Now().Add(keepAlive + keepAlive/2))
		}
		pkt, err := dec.next()
		if err != nil {
			b.detach(sess, conn, gen)
			return err
		}
		keep, err := b.handlePacket(sess, conn, gen, pkt)
		if err != nil || !keep {
			b.detach(sess, conn, gen)
			return err
		}
	}
}

// handshake runs the CONNECT/CONNACK exchange and splices the transport
// into its session. A nil session with nil error means the connection was
// answered and is done (a refused resume). Shared by the goroutine-per-
// conn path (ServeConn) and the event-loop path (ServeLoop). br is conn's
// reader; it may hold packets that arrived behind the CONNECT.
func (b *Broker) handshake(conn net.Conn, br *bufio.Reader) (sess *session, gen uint64, keepAlive time.Duration, err error) {
	p, err := Decode(br)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("mqtt: reading CONNECT: %w", err)
	}
	if p.Type != CONNECT {
		return nil, 0, 0, fmt.Errorf("mqtt: first packet was %v, want CONNECT", p.Type)
	}
	if p.ClientID == "" {
		Encode(conn, &Packet{Type: CONNACK, ReturnCode: ConnRefusedIDRejected})
		return nil, 0, 0, errors.New("mqtt: empty client id")
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, 0, 0, ErrBrokerClosed
	}
	sess, exists := b.sessions[p.ClientID]
	if p.CleanSession {
		// Fresh context (replaces any stale one).
		sess = &session{id: p.ClientID}
		b.sessions[p.ClientID] = sess
		exists = false
	} else if !exists {
		// Resume with no context: refuse (DCR connect_refuse).
		b.mu.Unlock()
		b.reg.Counter("mqtt.connect.refused").Inc()
		return nil, 0, 0, Encode(conn, &Packet{Type: CONNACK, ReturnCode: ConnRefusedIDRejected})
	}
	b.mu.Unlock()

	// Splice the transport into the session.
	sess.mu.Lock()
	if old := sess.conn; old != nil && old != conn {
		old.Close()
	}
	sess.conn = conn
	sess.gen++
	gen = sess.gen
	sess.mu.Unlock()

	b.reg.Counter("mqtt.connack.sent").Inc()
	if exists {
		b.reg.Counter("mqtt.connect.resumed").Inc()
	} else {
		b.reg.Counter("mqtt.connect.new").Inc()
	}
	if err := Encode(conn, &Packet{Type: CONNACK, SessionPresent: exists, ReturnCode: ConnAccepted}); err != nil {
		b.detach(sess, conn, gen)
		return nil, 0, 0, err
	}
	return sess, gen, time.Duration(p.KeepAlive) * time.Second, nil
}

// handlePacket processes one post-handshake packet. keep=false means the
// transport is done (graceful DISCONNECT); the caller detaches. pkt is the
// connection decoder's and is reused for the next packet: nothing here
// keeps it or its Payload (Publish has encoded the payload for every
// subscriber when it returns).
func (b *Broker) handlePacket(sess *session, conn net.Conn, gen uint64, pkt *Packet) (keep bool, err error) {
	switch pkt.Type {
	case PUBLISH:
		b.cReceived.Inc()
		b.Publish(pkt.Topic, pkt.Payload)
		if pkt.QoS == 1 {
			if err := b.send(sess, &Packet{Type: PUBACK, PacketID: pkt.PacketID}); err != nil {
				return false, err
			}
		}
		return true, nil
	case SUBSCRIBE:
		sess.mu.Lock()
		for _, f := range pkt.TopicFilters {
			if !contains(sess.subs, f) {
				sess.subs = append(sess.subs, f)
			}
		}
		sess.mu.Unlock()
		granted := make([]uint8, len(pkt.TopicFilters))
		if err := b.send(sess, &Packet{Type: SUBACK, PacketID: pkt.PacketID, GrantedQoS: granted}); err != nil {
			return false, err
		}
		return true, nil
	case PINGREQ:
		if err := b.send(sess, &Packet{Type: PINGRESP}); err != nil {
			return false, err
		}
		return true, nil
	case DISCONNECT:
		// Graceful disconnect retains context (the transport may be a
		// relay that is being restarted; the user is still out there).
		return false, nil
	default:
		return false, fmt.Errorf("mqtt: unexpected packet %v", pkt.Type)
	}
}

// ServeLoop is Serve for idle-heavy fleets: connections are parked in an
// epoll EventLoop between packets instead of holding a goroutine each, so
// a million mostly-idle MQTT sessions cost watch records, not stacks
// (DESIGN.md §11). The handshake still runs on a short-lived goroutine
// (CONNECT may arrive fragmented); after CONNACK the transport is parked
// and only borrows a loop worker while a packet is actually readable.
// Peer hang-ups are reaped via EPOLLRDHUP.
//
// Loop-mode limitations, by design: keep-alive expiry is not enforced
// while parked (a dead peer is reaped by RDHUP, not by deadline), and
// fault-wrapped connections (SetFaults) fall back to goroutine-per-conn
// since the wrapper hides the raw socket.
//
// Accepting stays a blocking goroutine: one goroutine per *listener* is
// the cheap part (and closing a listener drops its epoll registration
// silently, which would leave a loop-driven accept unable to observe the
// shutdown) — the per-*connection* goroutines are what the loop
// eliminates. ServeLoop returns when ln is closed.
func (b *Broker) ServeLoop(ln net.Listener, loop *netx.EventLoop) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		b.tune(conn)
		conn = b.faults.Load().Conn(conn)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serveLoopConn(loop, conn)
		}()
	}
}

// serveLoopConn runs the handshake, then parks the connection in loop.
func (b *Broker) serveLoopConn(loop *netx.EventLoop, conn net.Conn) {
	rawConn, ok := conn.(syscall.Conn)
	if !ok {
		// Fault-wrapped (or otherwise opaque) transport: serve it the
		// classic way.
		b.ServeConn(conn)
		return
	}
	br := bufpool.GetReader(conn)
	sess, gen, _, err := b.handshake(conn, br)
	if err != nil || sess == nil {
		bufpool.PutReader(br)
		conn.Close()
		return
	}
	// Packets sent behind the CONNECT are already in the reader.
	ok = br.Buffered() == 0 || b.serveBuffered(sess, conn, gen, br)
	bufpool.PutReader(br)
	if !ok {
		b.detach(sess, conn, gen)
		conn.Close()
		return
	}
	gParked := b.reg.Gauge("mqtt.loop.parked")
	reap := func(w *netx.Watch) {
		b.detach(sess, conn, gen)
		conn.Close()
		if b.unpark(w) {
			gParked.Dec()
		}
		w.Cancel()
	}
	w, err := loop.Watch(rawConn, func(w *netx.Watch, r netx.Readiness) {
		if r.HangUp {
			reap(w)
			return
		}
		br := bufpool.GetReader(conn)
		ok := b.serveBuffered(sess, conn, gen, br)
		bufpool.PutReader(br)
		if !ok || w.Rearm() != nil {
			reap(w)
		}
	})
	if err != nil {
		b.detach(sess, conn, gen)
		conn.Close()
		return
	}
	b.parkedMu.Lock()
	b.parked[w] = struct{}{}
	b.parkedMu.Unlock()
	gParked.Inc()
	// The handler may have reaped before the stash above; settle the
	// bookkeeping it could not see.
	if w.Stopped() && b.unpark(w) {
		gParked.Dec()
	}
}

// serveBuffered handles the packet that made conn readable and every
// packet that arrived with it: epoll stays silent about bytes that have
// left the kernel, so nothing may be left in the reader when the
// connection parks. A deadline bounds a peer that stalls mid-packet so a
// loop worker is never held hostage. False means the transport is done.
func (b *Broker) serveBuffered(sess *session, conn net.Conn, gen uint64, br *bufio.Reader) bool {
	dec := decoder{r: br}
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		pkt, err := dec.next()
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			return false
		}
		if keep, err := b.handlePacket(sess, conn, gen, pkt); err != nil || !keep {
			return false
		}
		if br.Buffered() == 0 {
			return true
		}
	}
}

func (b *Broker) unpark(w *netx.Watch) bool {
	b.parkedMu.Lock()
	_, ok := b.parked[w]
	delete(b.parked, w)
	b.parkedMu.Unlock()
	return ok
}

// detach clears the session transport if it is still the one this handler
// owns (a resume may already have replaced it).
func (b *Broker) detach(sess *session, conn net.Conn, gen uint64) {
	sess.mu.Lock()
	if sess.gen == gen && sess.conn == conn {
		sess.conn = nil
	}
	sess.mu.Unlock()
}

// send writes a packet to the session's current transport.
func (b *Broker) send(sess *session, p *Packet) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.conn == nil {
		return fmt.Errorf("mqtt: session %s detached", sess.id)
	}
	return Encode(sess.conn, p)
}

// Publish delivers payload on topic to every attached session with a
// matching subscription, returning the delivery count. It is both the
// client-publish fan-out and the API for server-initiated notifications
// (the "live notifications" workload of §4.2).
func (b *Broker) Publish(topic string, payload []byte) int {
	// A stack array for the common fan-out; append spills a larger one.
	var room [16]*session
	targets := room[:0]
	b.mu.Lock()
	for _, s := range b.sessions {
		targets = append(targets, s)
	}
	b.mu.Unlock()

	delivered := 0
	for _, s := range targets {
		s.mu.Lock()
		match := false
		for _, f := range s.subs {
			if TopicMatches(f, topic) {
				match = true
				break
			}
		}
		if match && s.conn != nil {
			if err := Encode(s.conn, &Packet{Type: PUBLISH, Topic: topic, Payload: payload}); err == nil {
				delivered++
			}
		}
		s.mu.Unlock()
	}
	b.cDelivered.Add(int64(delivered))
	return delivered
}

// HasSession reports whether connection context exists for clientID.
func (b *Broker) HasSession(clientID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.sessions[clientID]
	return ok
}

// SessionAttached reports whether clientID currently has a live transport.
func (b *Broker) SessionAttached(clientID string) bool {
	b.mu.Lock()
	s, ok := b.sessions[clientID]
	b.mu.Unlock()
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// SessionCount returns the number of sessions with context.
func (b *Broker) SessionCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// DropSession discards connection context (used by failure-injection
// tests to force the connect_refuse path).
func (b *Broker) DropSession(clientID string) {
	b.mu.Lock()
	s, ok := b.sessions[clientID]
	delete(b.sessions, clientID)
	b.mu.Unlock()
	if ok {
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
			s.conn = nil
		}
		s.mu.Unlock()
	}
}

// Close drops all sessions and waits for handlers to finish. Listeners
// passed to Serve must be closed by the caller.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	sessions := b.sessions
	b.sessions = map[string]*session{}
	b.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
			s.conn = nil
		}
		s.mu.Unlock()
	}
	// Closing a parked conn silently drops its kernel-side epoll interest;
	// retire the watch bookkeeping too.
	b.parkedMu.Lock()
	parked := b.parked
	b.parked = make(map[*netx.Watch]struct{})
	b.parkedMu.Unlock()
	for w := range parked {
		w.Cancel()
	}
	b.wg.Wait()
}

func contains(ss []string, s string) bool {
	for _, have := range ss {
		if have == s {
			return true
		}
	}
	return false
}
