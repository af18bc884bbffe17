package mqtt

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	cReceived, cDelivered, cFlushErrors *metrics.Counter

	mu       sync.RWMutex
	sessions map[string]*session
	// subs indexes the sessions' subscriptions, filter to subscribers, and
	// wild lists those with a wildcard; a publish reads them (publish).
	subs   map[string][]*session
	wild   []string
	closed bool
	// transports is every connection being served, attached or not: Close
	// closes them all.
	transports map[*transport]struct{}

	faults atomic.Pointer[faults.Injector]

	wg sync.WaitGroup
}

// SetFaults installs a fault injector on the accept path: every
// connection accepted by Serve is wrapped with an injected fault
// schedule (chaos testing). Pass nil to remove it. Safe to call
// concurrently with Serve.
func (b *Broker) SetFaults(in *faults.Injector) {
	b.faults.Store(in)
}

// session is per-user connection context.
type session struct {
	id string
	// tr is the transport attached, nil while detached: stored under mu,
	// loaded without it by who must close the transport to get mu
	// (lockClosed).
	tr atomic.Pointer[transport]

	subs []string // guarded by Broker.mu
	mu   sync.Mutex
	// out is the packets queued for tr and not written yet (queue).
	out []byte
	// wake is the transport whose reader queued here last and owes the
	// flush; another's only makes a second, empty flush.
	wake *transport
}

// lockClosed locks s.mu with the session's transport closed. A writer
// parked on a subscriber that does not read holds mu, and the close is
// what frees it: taking mu first would wait for the subscriber.
func (s *session) lockClosed() {
	for {
		tr := s.tr.Load()
		if tr != nil {
			tr.wr.Close()
		}
		s.mu.Lock()
		if s.tr.Load() == tr {
			return
		}
		s.mu.Unlock()
	}
}

func (s *session) detached() error { return fmt.Errorf("mqtt: session %s detached", s.id) }

// NewBroker creates a broker. reg may be nil.
func NewBroker(name string, reg *metrics.Registry) *Broker {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Broker{
		name:         name,
		reg:          reg,
		cReceived:    reg.Counter("mqtt.publish.received"),
		cDelivered:   reg.Counter("mqtt.publish.delivered"),
		cFlushErrors: reg.Counter("mqtt.flush.errors"),
		sessions:     make(map[string]*session),
		subs:         make(map[string][]*session),
		transports:   make(map[*transport]struct{}),
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
	t := b.newTransport(conn)
	err := t.wr.Run()
	t.end()
	if err == nil && t.err != errDone {
		err = t.err
	}
	return err
}

// transport is one connection as the broker reads it: a netx.WakeHandler
// that takes what a read brought in behind what the last one left
// unparsed, serves every whole packet of it, and then writes what serving
// them queued, once per session (flush).
type transport struct {
	b    *Broker
	conn net.Conn
	wr   netx.WakeReader

	sess      *session // nil until the CONNECT
	keepAlive time.Duration

	// buf[r:w] is read and not parsed; buf is *pooled unless a packet
	// longer than that is arriving, and nil while no part of one is.
	pooled *[]byte
	buf    []byte
	r, w   int
	dec    decoder

	flushes []*session // with packets queued by this wake
	err     error      // what ended the transport; errDone when nothing failed
}

// errDone ends a transport that was answered and is done with: a graceful
// DISCONNECT, a refused resume.
var errDone = errors.New("mqtt: transport done")

func (b *Broker) newTransport(conn net.Conn) *transport {
	t := &transport{b: b, conn: conn}
	t.wr.Init(conn, t)
	// A QoS 0 publisher is owed no write: a reset behind its last packet
	// may have nothing to fail.
	t.wr.ConfirmWaits()
	b.mu.Lock()
	if b.closed {
		t.wr.Close()
	} else {
		b.transports[t] = struct{}{}
	}
	b.mu.Unlock()
	return t
}

// end closes the transport and detaches it from its session if it is
// still the one attached (a resume may have replaced it). The close comes
// first: a flush parked on this connection holds the session's lock.
func (t *transport) end() {
	t.wr.Close()
	t.b.mu.Lock()
	delete(t.b.transports, t)
	t.b.mu.Unlock()
	if s := t.sess; s != nil {
		s.mu.Lock()
		s.tr.CompareAndSwap(t, nil)
		s.mu.Unlock()
	}
	t.release()
}

func (t *transport) release() {
	bufpool.Put(t.pooled)
	t.pooled, t.buf, t.r, t.w = nil, nil, 0, 0
}

func (t *transport) ReadBuf() []byte {
	if t.buf == nil {
		t.pooled = bufpool.Get(bufpool.TierSmall)
		t.buf = *t.pooled
	}
	if t.r > 0 {
		t.w = copy(t.buf, t.buf[t.r:t.w])
		t.r = 0
	}
	if t.w == len(t.buf) {
		// The packet in front is longer than the room: it gets its own.
		hdr, n, _ := fixedHeader(t.buf)
		whole := make([]byte, hdr+n)
		copy(whole, t.buf)
		bufpool.Put(t.pooled)
		t.pooled, t.buf = nil, whole
	}
	return t.buf[t.w:]
}

// ServeWake serves what a read brought: every whole packet, in order, and
// then one write to every session they queued packets for. A packet that
// is not all there stays in front of the next read.
func (t *transport) ServeWake(n int) (done bool) {
	t.w += n
	served := false
	for t.err == nil && t.r < t.w {
		pkt, used, err := t.dec.take(t.buf[t.r:t.w])
		if used == 0 {
			t.err = err
			break
		}
		t.r += used
		if t.err = err; err == nil {
			t.err = t.serve(pkt)
		}
		served = true
	}
	t.b.flush(t)
	if t.err == nil && t.sess != nil && t.sess.tr.Load() != t {
		t.err = t.sess.detached() // by a failed flush, or for a resume's transport
	}
	if t.r == t.w {
		t.release()
	}
	if served && t.keepAlive > 0 {
		t.conn.SetReadDeadline(time.Now().Add(t.keepAlive + t.keepAlive/2))
	}
	return t.err != nil
}

// connect serves the first packet, which must be a CONNECT: the
// CONNECT/CONNACK exchange, and the splice of the transport into its
// session.
func (t *transport) connect(p *Packet) error {
	b := t.b
	if p.Type != CONNECT {
		return fmt.Errorf("mqtt: first packet was %v, want CONNECT", p.Type)
	}
	if p.ClientID == "" {
		Encode(t.conn, &Packet{Type: CONNACK, ReturnCode: ConnRefusedIDRejected})
		return errors.New("mqtt: empty client id")
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBrokerClosed
	}
	sess, exists := b.sessions[p.ClientID]
	if p.CleanSession {
		// Fresh context (replaces any stale one).
		b.forget(p.ClientID)
		sess = &session{id: p.ClientID}
		b.sessions[p.ClientID] = sess
		exists = false
	} else if !exists {
		// Resume with no context: refuse (DCR connect_refuse).
		b.mu.Unlock()
		b.reg.Counter("mqtt.connect.refused").Inc()
		if err := Encode(t.conn, &Packet{Type: CONNACK, ReturnCode: ConnRefusedIDRejected}); err != nil {
			return err
		}
		return errDone
	}
	b.mu.Unlock()

	// Splice the transport into the session. What was queued for the old
	// one and not written is the user's all the same: it follows the
	// CONNACK, which is the new one's first packet.
	sess.lockClosed()
	sess.tr.Store(t)
	pending := append([]byte(nil), sess.out...)
	sess.out, sess.wake = sess.out[:0], nil
	err := b.queue(t, sess, &Packet{Type: CONNACK, SessionPresent: exists, ReturnCode: ConnAccepted})
	sess.out = append(sess.out, pending...)
	sess.mu.Unlock()
	t.sess = sess
	t.keepAlive = time.Duration(p.KeepAlive) * time.Second

	b.reg.Counter("mqtt.connack.sent").Inc()
	if exists {
		b.reg.Counter("mqtt.connect.resumed").Inc()
	} else {
		b.reg.Counter("mqtt.connect.new").Inc()
	}
	return err
}

// serve processes one packet. pkt is the transport decoder's and aliases
// its read buffer: nothing here keeps it or its Payload (publish has
// queued the payload for every subscriber when it returns).
func (t *transport) serve(pkt *Packet) error {
	b, sess := t.b, t.sess
	if sess == nil {
		return t.connect(pkt)
	}
	switch pkt.Type {
	case PUBLISH:
		b.cReceived.Inc()
		b.publish(t, pkt.Topic, pkt.Payload)
		if pkt.QoS == 1 {
			return b.reply(t, &Packet{Type: PUBACK, PacketID: pkt.PacketID})
		}
		return nil
	case SUBSCRIBE:
		b.subscribe(sess, pkt.TopicFilters)
		granted := make([]uint8, len(pkt.TopicFilters))
		return b.reply(t, &Packet{Type: SUBACK, PacketID: pkt.PacketID, GrantedQoS: granted})
	case PINGREQ:
		return b.reply(t, &Packet{Type: PINGRESP})
	case DISCONNECT:
		// Graceful disconnect retains context (the transport may be a
		// relay that is being restarted; the user is still out there).
		return errDone
	default:
		return fmt.Errorf("mqtt: unexpected packet %v", pkt.Type)
	}
}

// outCap is how much a session's queue holds before it is written through:
// one frame of the tunnel that carries it on.
const outCap = 64 << 10

// queue puts p on its way to s's transport, with s.mu held, by the flush
// rule (DESIGN.md §15): it is appended to what already waits, and the lot
// is written here and now unless it is t's wake that produced it — then
// when what that wake's read brought is spent (flush), one write for
// everything the read caused. t is nil for a publish no reader made.
func (b *Broker) queue(t *transport, s *session, p *Packet) error {
	if s.tr.Load() == nil {
		return s.detached()
	}
	out, err := appendPacket(s.out, p)
	if err != nil {
		return err
	}
	s.out = out
	if t == nil || len(out) > outCap {
		return b.writeOut(s)
	}
	if s.wake != t {
		s.wake = t
		t.flushes = append(t.flushes, s)
	}
	return nil
}

// writeOut writes what is queued for s's transport, with s.mu held, in
// one Write. A transport that fails it is detached: its own reader will
// find out and end, and until then no publish need try it again.
func (b *Broker) writeOut(s *session) error {
	tr, out := s.tr.Load(), s.out
	if s.out = out[:0]; cap(out) > 2*outCap {
		s.out = nil
	}
	if tr == nil || len(out) == 0 {
		return nil
	}
	_, err := tr.conn.Write(out)
	if err != nil {
		s.tr.Store(nil)
		b.cFlushErrors.Inc()
	}
	return err
}

// flush ends t's wake: every session it queued packets for gets them, and
// whatever others queued there meanwhile, in one write.
func (b *Broker) flush(t *transport) {
	for i, s := range t.flushes {
		s.mu.Lock()
		if s.wake == t {
			s.wake = nil
		}
		b.writeOut(s)
		s.mu.Unlock()
		t.flushes[i] = nil
	}
	t.flushes = t.flushes[:0]
}

// reply queues a packet for t's own session.
func (b *Broker) reply(t *transport, p *Packet) error {
	t.sess.mu.Lock()
	defer t.sess.mu.Unlock()
	return b.queue(t, t.sess, p)
}

// Publish delivers payload on topic to every attached session with a
// matching subscription, returning how many it was queued for. It is both
// the client-publish fan-out and the API for server-initiated
// notifications (the "live notifications" workload of §4.2).
func (b *Broker) Publish(topic string, payload []byte) int {
	return b.publish(nil, topic, payload)
}

// publish is Publish from t's wake; t is nil outside any. It locks only
// the sessions it is for: a subscriber that stops reading stalls only those.
func (b *Broker) publish(t *transport, topic string, payload []byte) int {
	// A stack array for the common fan-out; append spills a larger one.
	var room [16]*session
	b.mu.RLock()
	targets := append(room[:0], b.subs[topic]...)
	for _, f := range b.wild {
		if TopicMatches(f, topic) {
			for _, s := range b.subs[f] {
				if !slices.Contains(targets, s) {
					targets = append(targets, s)
				}
			}
		}
	}
	b.mu.RUnlock()

	delivered := 0
	pkt := Packet{Type: PUBLISH, Topic: topic, Payload: payload}
	for _, s := range targets {
		s.mu.Lock()
		if b.queue(t, s, &pkt) == nil {
			delivered++
		}
		s.mu.Unlock()
	}
	b.cDelivered.Add(int64(delivered))
	return delivered
}

// subscribe adds filters to s's subscriptions, unless s has been replaced
// or dropped meanwhile.
func (b *Broker) subscribe(s *session, filters []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range filters {
		if b.sessions[s.id] != s || contains(s.subs, f) {
			continue
		}
		s.subs = append(s.subs, f)
		if len(b.subs[f]) == 0 && strings.ContainsAny(f, "+#") {
			b.wild = append(b.wild, f)
		}
		b.subs[f] = append(b.subs[f], s)
	}
}

// forget takes clientID's session, if there is one, out of sessions and
// the index, and returns it. mu is held.
func (b *Broker) forget(clientID string) *session {
	s := b.sessions[clientID]
	if s == nil {
		return nil
	}
	delete(b.sessions, clientID)
	for _, f := range s.subs {
		if subs := slices.DeleteFunc(b.subs[f], func(x *session) bool { return x == s }); len(subs) > 0 {
			b.subs[f] = subs
			continue
		}
		delete(b.subs, f)
		b.wild = slices.DeleteFunc(b.wild, func(w string) bool { return w == f })
	}
	return s
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
	return s.tr.Load() != nil
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
	s := b.forget(clientID)
	b.mu.Unlock()
	if s != nil {
		s.lockClosed()
		s.tr.Store(nil)
		s.mu.Unlock()
	}
}

// Close drops all sessions, closes every connection being served — one
// that has not sent its CONNECT included — and waits for handlers to
// finish. Listeners passed to Serve must be closed by the caller.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	b.sessions = map[string]*session{}
	b.subs, b.wild = map[string][]*session{}, nil
	transports := b.transports
	b.transports = nil
	b.mu.Unlock()
	for t := range transports {
		t.wr.Close()
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
