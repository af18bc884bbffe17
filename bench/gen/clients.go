package gen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"time"

	"zdr/bench/rig"
	"zdr/internal/quicx"
)

// OpTimeout bounds every operation; one that takes longer is a failed
// operation of class timeout.
const OpTimeout = 2 * time.Second

// Class says how an operation ended.
type Class int

// Failure classes, printed beside the failed share.
const (
	OK Class = iota
	Reset
	Timeout
	Refused
	Wrong
	numClasses
)

var classNames = [numClasses]string{"ok", "reset", "timeout", "refused", "wrong"}

func (c Class) String() string { return classNames[c] }

// errWrong marks a reply that arrived but did not verify.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// classify maps an operation's error to its failure class.
func classify(err error) Class {
	var ne net.Error
	switch {
	case err == nil:
		return OK
	case errors.Is(err, errWrong):
		return Wrong
	case errors.Is(err, syscall.ECONNREFUSED):
		return Refused
	case errors.As(err, &ne) && ne.Timeout():
		return Timeout
	default:
		return Reset
	}
}

// worker is one load-generating client. It owns at most one connection
// and is driven by a single goroutine.
type worker interface {
	// do performs operation k and verifies the reply, returning the
	// verified payload bytes moved in both directions. trace, when not
	// empty, is the wire form of the span the operation runs under.
	do(k int, trace string) (payload int, err error)
	// close releases the connection.
	close()
}

// steer asks the generator-side katran for the edge a new flow goes to.
func steer(t *rig.Targets, flow uint64) (*rig.Edge, error) {
	b, err := t.LB.Steer(flow)
	if err != nil {
		return nil, err
	}
	e := t.EdgeByName(b.Name)
	if e == nil {
		return nil, fmt.Errorf("steered to unknown backend %q", b.Name)
	}
	return e, nil
}

// pinnedFlow draws flow ids from rnd until one steers to the wanted
// edge. The persistent-connection workloads use it so that their two
// connections land on different edges under every seed and every seed
// measures the same topology.
func pinnedFlow(t *rig.Targets, rnd *rand.Rand, want string) (uint64, error) {
	for i := 0; i < 1000; i++ {
		flow := rnd.Uint64()
		e, err := steer(t, flow)
		if err != nil {
			return 0, err
		}
		if e.Name == want {
			return flow, nil
		}
	}
	return 0, fmt.Errorf("no flow id steers to %s", want)
}

// httpWorker sends one kind of HTTP/1.1 request over a connection it
// re-steers and re-dials when perConn requests have gone over it (0:
// keep-alive for the whole run). It speaks the wire format with its own
// few lines of code, not the program's http1 package, so that a change
// to the program never changes what the generator costs.
type httpWorker struct {
	t       *rig.Targets
	rnd     *rand.Rand
	pin     string // edge the persistent connection must land on ("" = wherever it steers)
	perConn int
	postLen int // 0: GET /dyn/<dyn>
	dyn     int

	conn net.Conn
	br   *bufio.Reader
	used int
	head []byte
	body []byte // reply body scratch
}

func newHTTPWorker(t *rig.Targets, rnd *rand.Rand, pin string, perConn, dyn, postLen int) *httpWorker {
	return &httpWorker{t: t, rnd: rnd, pin: pin, perConn: perConn, dyn: dyn, postLen: postLen,
		body: make([]byte, 0, postLen+rig.DynMax)}
}

func (w *httpWorker) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

func (w *httpWorker) dial() error {
	var flow uint64
	var err error
	if w.pin != "" {
		flow, err = pinnedFlow(w.t, w.rnd, w.pin)
	} else {
		flow = w.rnd.Uint64()
	}
	if err != nil {
		return err
	}
	e, err := steer(w.t, flow)
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", e.Web, OpTimeout)
	if err != nil {
		return err
	}
	w.conn, w.used = conn, 0
	if w.br == nil {
		w.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		w.br.Reset(conn)
	}
	return nil
}

func (w *httpWorker) do(k int, trace string) (int, error) {
	if w.conn != nil && w.perConn > 0 && w.used == w.perConn {
		w.close()
	}
	if w.conn == nil {
		if err := w.dial(); err != nil {
			return 0, err
		}
	}
	n, err := w.exchange(k, trace)
	if err != nil {
		w.close() // the connection's state is unknown: start afresh
	}
	return n, err
}

func (w *httpWorker) exchange(k int, trace string) (int, error) {
	w.used++
	w.conn.SetDeadline(time.Now().Add(OpTimeout))
	h := w.head[:0]
	var sent, want []byte
	if w.postLen > 0 {
		sent = w.t.Content.PostBody(k)[:w.postLen]
		want = sent
		h = append(h, "POST /echo HTTP/1.1\r\nHost: bench\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(sent)), 10)
		h = append(h, "\r\n"...)
	} else {
		want = w.t.Content.Dyn[:w.dyn]
		h = append(h, "GET /dyn/"...)
		h = strconv.AppendInt(h, int64(w.dyn), 10)
		h = append(h, " HTTP/1.1\r\nHost: bench\r\n"...)
	}
	if trace != "" {
		h = append(h, "X-Zdr-Trace: "...)
		h = append(h, trace...)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	w.head = h
	if sent == nil {
		if _, err := w.conn.Write(h); err != nil {
			return 0, err
		}
	} else {
		bufs := net.Buffers{h, sent}
		if _, err := bufs.WriteTo(w.conn); err != nil {
			return 0, err
		}
	}
	status, got, err := w.readResponse()
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, wrongf("status %d", status)
	}
	if !bytes.Equal(got, want) {
		return 0, wrongf("body of %d bytes differs from the %d expected", len(got), len(want))
	}
	return len(sent) + len(got), nil
}

// line reads one CRLF-terminated line without its terminator. The
// returned bytes are valid until the next read.
func (w *httpWorker) line() ([]byte, error) {
	l, err := w.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, wrongf("header line too long")
		}
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// hasPrefixFold reports whether b starts with the lower-case prefix p,
// ignoring ASCII case.
func hasPrefixFold(b []byte, p string) bool {
	return len(b) >= len(p) && bytes.EqualFold(b[:len(p)], []byte(p))
}

// readResponse parses one response with a Content-Length or chunked
// body into the worker's scratch buffer.
func (w *httpWorker) readResponse() (status int, body []byte, err error) {
	l, err := w.line()
	if err != nil {
		return 0, nil, err
	}
	if len(l) < 12 || !bytes.HasPrefix(l, []byte("HTTP/1.")) {
		return 0, nil, wrongf("status line %q", l)
	}
	if status, err = strconv.Atoi(string(l[9:12])); err != nil {
		return 0, nil, wrongf("status line %q", l)
	}
	length, chunked := -1, false
	for {
		if l, err = w.line(); err != nil {
			return 0, nil, err
		}
		if len(l) == 0 {
			break
		}
		switch {
		case hasPrefixFold(l, "content-length:"):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(l[15:]))); err != nil || length < 0 {
				return 0, nil, wrongf("header %q", l)
			}
		case hasPrefixFold(l, "transfer-encoding:"):
			chunked = bytes.EqualFold(bytes.TrimSpace(l[18:]), []byte("chunked"))
		}
	}
	body = w.body[:0]
	grow := func(n int) ([]byte, error) {
		if len(body)+n > cap(body) {
			return nil, wrongf("body longer than %d bytes", cap(body))
		}
		part := body[len(body) : len(body)+n]
		body = body[:len(body)+n]
		_, err := io.ReadFull(w.br, part)
		return part, err
	}
	if !chunked {
		if length > 0 {
			if _, err = grow(length); err != nil {
				return 0, nil, err
			}
		}
		return status, body, nil
	}
	for {
		if l, err = w.line(); err != nil {
			return 0, nil, err
		}
		size, perr := strconv.ParseUint(string(l), 16, 31)
		if perr != nil {
			return 0, nil, wrongf("chunk size %q", l)
		}
		if size == 0 {
			break
		}
		if _, err = grow(int(size)); err != nil {
			return 0, nil, err
		}
		if l, err = w.line(); err != nil || len(l) != 0 {
			return 0, nil, wrongf("chunk not followed by CRLF")
		}
	}
	for { // trailer section, normally just the closing empty line
		if l, err = w.line(); err != nil {
			return 0, nil, err
		}
		if len(l) == 0 {
			return status, body, nil
		}
	}
}

// mqttWorker holds one MQTT 3.1.1 connection through an edge's MQTT
// VIP, subscribed to its own topic, and publishes QoS 1 messages to it:
// an operation is complete when both the PUBACK and the delivery of the
// same message have come back. The payload starts with a sequence
// number; anything but exactly the next expected message is a wrong
// answer.
type mqttWorker struct {
	t     *rig.Targets
	rnd   *rand.Rand
	pin   string
	id    string
	topic string
	// addr, when set, is dialled directly (the broker itself), and no
	// steering happens.
	addr string

	conn net.Conn
	br   *bufio.Reader
	pub  []byte // PUBLISH template
	pid  uint16
	pidAt,
	seqAt int
	want []byte // expected delivery payload
	buf  []byte
}

// MQTTPayload is the publish payload size.
const MQTTPayload = 128

func newMQTTWorker(t *rig.Targets, rnd *rand.Rand, pin, addr, id string) *mqttWorker {
	w := &mqttWorker{t: t, rnd: rnd, pin: pin, addr: addr, id: id, topic: "bench/" + id,
		want: make([]byte, MQTTPayload), buf: make([]byte, 0, 512)}
	rnd.Read(w.want)
	// PUBLISH, QoS 1: fixed header, topic, packet id, payload.
	remaining := 2 + len(w.topic) + 2 + MQTTPayload
	p := []byte{3<<4 | 1<<1}
	p = appendVarint(p, remaining)
	p = binary.BigEndian.AppendUint16(p, uint16(len(w.topic)))
	p = append(p, w.topic...)
	w.pidAt = len(p)
	p = append(p, 0, 0)
	w.seqAt = len(p)
	w.pub = append(p, w.want...)
	return w
}

func appendVarint(b []byte, n int) []byte {
	for {
		d := byte(n % 128)
		n /= 128
		if n > 0 {
			d |= 0x80
		}
		b = append(b, d)
		if n == 0 {
			return b
		}
	}
}

func (w *mqttWorker) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// packet reads one control packet into the worker's buffer.
func (w *mqttWorker) packet() (first byte, body []byte, err error) {
	if first, err = w.br.ReadByte(); err != nil {
		return 0, nil, err
	}
	n, shift := 0, 0
	for {
		d, err := w.br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		n |= int(d&0x7f) << shift
		if d&0x80 == 0 {
			break
		}
		if shift += 7; shift > 21 {
			return 0, nil, wrongf("remaining length too long")
		}
	}
	if n > cap(w.buf) {
		return 0, nil, wrongf("packet of %d bytes", n)
	}
	body = w.buf[:n]
	_, err = io.ReadFull(w.br, body)
	return first, body, err
}

func (w *mqttWorker) connect() error {
	addr := w.addr
	if addr == "" {
		flow, err := pinnedFlow(w.t, w.rnd, w.pin)
		if err != nil {
			return err
		}
		e, err := steer(w.t, flow)
		if err != nil {
			return err
		}
		addr = e.MQTT
	}
	conn, err := net.DialTimeout("tcp", addr, OpTimeout)
	if err != nil {
		return err
	}
	w.conn = conn
	w.br = bufio.NewReaderSize(conn, 4<<10)
	conn.SetDeadline(time.Now().Add(OpTimeout))
	// CONNECT (clean session), then SUBSCRIBE to the worker's own topic.
	c := []byte{1 << 4}
	c = appendVarint(c, 10+2+len(w.id))
	c = append(c, 0, 4, 'M', 'Q', 'T', 'T', 4, 0x02, 0, 0)
	c = binary.BigEndian.AppendUint16(c, uint16(len(w.id)))
	c = append(c, w.id...)
	if _, err := conn.Write(c); err != nil {
		return err
	}
	first, body, err := w.packet()
	if err != nil {
		return err
	}
	if first>>4 != 2 || len(body) != 2 || body[1] != 0 {
		return wrongf("CONNACK %x %x", first, body)
	}
	s := []byte{8<<4 | 2}
	s = appendVarint(s, 2+2+len(w.topic)+1)
	s = append(s, 0, 1)
	s = binary.BigEndian.AppendUint16(s, uint16(len(w.topic)))
	s = append(s, w.topic...)
	s = append(s, 0)
	if _, err := conn.Write(s); err != nil {
		return err
	}
	if first, body, err = w.packet(); err != nil {
		return err
	}
	if first>>4 != 9 || len(body) < 2 || binary.BigEndian.Uint16(body) != 1 {
		return wrongf("SUBACK %x %x", first, body)
	}
	return nil
}

func (w *mqttWorker) do(k int, _ string) (int, error) {
	if w.conn == nil {
		if err := w.connect(); err != nil {
			w.close()
			return 0, err
		}
	}
	err := w.exchange(uint64(k))
	if err != nil {
		// A late delivery would be taken for a duplicate by the next
		// operation: drop the session with the connection.
		w.close()
		return 0, err
	}
	return 2 * MQTTPayload, nil
}

func (w *mqttWorker) exchange(seq uint64) error {
	w.conn.SetDeadline(time.Now().Add(OpTimeout))
	if w.pid++; w.pid == 0 {
		w.pid = 1
	}
	binary.BigEndian.PutUint16(w.pub[w.pidAt:], w.pid)
	binary.BigEndian.PutUint64(w.pub[w.seqAt:], seq)
	binary.BigEndian.PutUint64(w.want, seq)
	if _, err := w.conn.Write(w.pub); err != nil {
		return err
	}
	acked, delivered := false, false
	for !acked || !delivered {
		first, body, err := w.packet()
		if err != nil {
			return err
		}
		switch first >> 4 {
		case 4: // PUBACK
			if acked || len(body) != 2 || binary.BigEndian.Uint16(body) != w.pid {
				return wrongf("PUBACK %x for packet %d", body, w.pid)
			}
			acked = true
		case 3: // PUBLISH, QoS 0 from the broker
			if len(body) < 2 {
				return wrongf("short PUBLISH")
			}
			tl := int(binary.BigEndian.Uint16(body))
			if first&0x06 != 0 || len(body) < 2+tl || string(body[2:2+tl]) != w.topic {
				return wrongf("PUBLISH flags %x or topic", first)
			}
			if delivered || !bytes.Equal(body[2+tl:], w.want) {
				return wrongf("delivery is not message %d exactly once", seq)
			}
			delivered = true
		default:
			return wrongf("unexpected packet type %d", first>>4)
		}
	}
	return nil
}

// quicWorker exchanges datagrams with the edges' UDP VIPs from one
// unconnected socket. Every datagram is placed by the steering LB. The
// worker keeps a fixed number of resident flows, picks one uniformly per
// operation, and every retireEvery-th operation closes the oldest flow
// and opens a new one with an Initial packet in its place.
type quicWorker struct {
	t   *rig.Targets
	rnd *rand.Rand
	// direct, when set, receives every datagram, unsteered.
	direct *rig.Edge

	pc      *net.UDPConn
	flows   []uint64 // ring; oldest at head
	head    int
	out, in []byte
	replies map[string][][]byte // edge name -> expected reply per target
	addrs   map[string]netip.AddrPort
}

const retireEvery = 16

func newQUICWorker(t *rig.Targets, rnd *rand.Rand, resident int, direct *rig.Edge) (*quicWorker, error) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	w := &quicWorker{t: t, rnd: rnd, direct: direct, pc: pc,
		out: make([]byte, 0, 128), in: make([]byte, 2048),
		replies: map[string][][]byte{}, addrs: map[string]netip.AddrPort{}}
	for _, e := range t.Edges {
		ap := e.QUIC.AddrPort()
		w.addrs[e.Name] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		for i := 0; i < rig.QuicTargets; i++ {
			w.replies[e.Name] = append(w.replies[e.Name], t.Content.QuicReply(e.Name, i))
		}
	}
	for i := 0; i < resident; i++ {
		id := rnd.Uint64()
		if err := w.exchange(quicx.PktInitial, id); err != nil {
			pc.Close()
			return nil, fmt.Errorf("opening resident flow %d: %w", i, err)
		}
		w.flows = append(w.flows, id)
	}
	return w, nil
}

func (w *quicWorker) close() { w.pc.Close() }

// send places one datagram and writes it, returning the edge it went to.
func (w *quicWorker) send(typ quicx.PacketType, id uint64, payload []byte) (string, error) {
	e := w.direct
	if e == nil {
		var err error
		if e, err = steer(w.t, id); err != nil {
			return "", err
		}
	}
	w.out = quicx.AppendPacket(w.out[:0], quicx.Packet{Type: typ, Conn: quicx.ConnID(id), Payload: payload})
	_, err := w.pc.WriteToUDPAddrPort(w.out, w.addrs[e.Name])
	return e.Name, err
}

// exchange sends one request on flow id and verifies the reply.
func (w *quicWorker) exchange(typ quicx.PacketType, id uint64) error {
	target := w.rnd.Intn(rig.QuicTargets)
	edge, err := w.send(typ, id, w.t.Content.QuicKeys[target])
	if err != nil {
		return err
	}
	w.pc.SetReadDeadline(time.Now().Add(OpTimeout))
	n, _, err := w.pc.ReadFromUDPAddrPort(w.in)
	if err != nil {
		return err
	}
	p, err := quicx.Unmarshal(w.in[:n])
	if err != nil {
		return wrongf("%v", err)
	}
	if uint64(p.Conn) != id || p.Type != quicx.PktData {
		return wrongf("reply for flow %x type %d, sent flow %x", uint64(p.Conn), p.Type, id)
	}
	if !bytes.Equal(p.Payload, w.replies[edge][target]) {
		return wrongf("reply payload does not match target %d served by %s", target, edge)
	}
	return nil
}

func (w *quicWorker) do(k int, _ string) (int, error) {
	if k%retireEvery == retireEvery-1 {
		if _, err := w.send(quicx.PktClose, w.flows[w.head], nil); err != nil {
			return 0, err
		}
		id := w.rnd.Uint64()
		if err := w.exchange(quicx.PktInitial, id); err != nil {
			return 0, err
		}
		w.flows[w.head] = id
		w.head = (w.head + 1) % len(w.flows)
		return 2 * rig.QuicSize, nil
	}
	if err := w.exchange(quicx.PktData, w.flows[w.rnd.Intn(len(w.flows))]); err != nil {
		return 0, err
	}
	return 2 * rig.QuicSize, nil
}
