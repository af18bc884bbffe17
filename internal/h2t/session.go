package h2t

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zdr/internal/metrics"
	"zdr/internal/netx"
)

// Session errors.
var (
	// ErrGoAway is returned by OpenStream once either side has announced
	// GOAWAY: no new streams may start, existing streams drain.
	ErrGoAway = errors.New("h2t: session is draining (GOAWAY)")
	// errSessionClosed is returned once the session is dead.
	errSessionClosed = errors.New("h2t: session closed")
	// ErrStreamReset is delivered to readers of a stream the peer reset.
	ErrStreamReset = errors.New("h2t: stream reset by peer")
	// ErrStreamClosed is returned for writes on a finished stream.
	ErrStreamClosed = errors.New("h2t: stream closed")
	// errStreamLimit is returned by OpenStream when the peer's advertised
	// SETTINGS max-concurrent-streams would be exceeded.
	errStreamLimit = errors.New("h2t: peer stream limit reached")
)

// A SinkError is the end of a stream's sink that w made, not the stream.
type SinkError struct{ err error }

func (e *SinkError) Error() string { return "h2t: write to sink: " + e.err.Error() }
func (e *SinkError) Unwrap() error { return e.err }

// Control is a DCR control frame delivered on a stream.
type Control struct {
	Type    frameType
	Payload []byte
}

// Session multiplexes streams over a single reliable conn. One side is the
// client (initiates with odd stream IDs), the other the server (even IDs);
// both may open and accept streams.
type Session struct {
	conn     net.Conn
	isClient bool

	// Write side, guarded by wmu. Every frame leaves through putFrame and
	// flush: frame headers and small payloads are encoded back to back in
	// wbuf, a large payload is referenced from wvec between two runs of
	// wbuf, and flush hands the lot to the transport in one Write or
	// writev. Nothing stays in wbuf after the call that put it there
	// returns (DESIGN.md §15, "The flush rule").
	wmu   sync.Mutex
	wbuf  []byte
	wmark int         // start of the run of wbuf not yet referenced from wvec
	wvec  [][]byte    // the write being assembled, in wire order
	wbufs net.Buffers // wvec as WriteTo consumes it; a field so that it is not allocated per write
	werr  error       // sticky: a failed write may have torn a frame
	// announced is set once the first frame has been encoded: that frame
	// carries FlagWindow, this session's one announcement that it keeps
	// receive windows.
	announced bool

	// Credit owed to the peer: WINDOW_UPDATE frames that consumers' Reads
	// have queued and the next flush puts on the wire, with whatever write
	// is leaving or else alone (see sendCredit).
	cmu     sync.Mutex
	credits []credit

	// peerWindow is set by the peer's announcement. Toward a peer that
	// has made none — the previous release, during a rolling upgrade —
	// no window is enforced and no credit is sent: it would not replenish
	// the one and ignores the other.
	peerWindow atomic.Bool
	// legacy makes this session behave as that previous release does.
	legacy bool

	m        *Metrics
	resident atomic.Int64 // chunk memory its streams' receive buffers hold

	// Read side, owned by Serve, which wr drives one read per wake
	// (netx.WakeReader). Frames are parsed as their bytes arrive (nextBuf,
	// advance): rbuf[rr:rw] is read and not yet parsed, and once its header
	// is parsed a frame is cur, with left bytes of its payload to come.
	// Those go to curSt's receive buffer when cur is DATA (nil: to nowhere)
	// and to big when any other payload is larger than rbuf; direct is
	// where the read under way lands when not in rbuf. Response headers
	// parsed wait in held, and replies the reader owes — the write of one
	// may block, a wake must not — in owed, until what a wake brought is
	// spent. rerr is what the parser ended the session for.
	wr      netx.WakeReader
	rbuf    []byte
	rr, rw  int
	inFrame bool
	cur     tunnelFrame
	left    int
	curSt   *Stream
	big     []byte
	direct  []byte
	held    []heldHeaders
	owed    []tunnelFrame
	rerr    error
	policed bool // the peer is held to its windows (advance)

	mu         sync.Mutex
	streams    map[uint32]*Stream
	nextID     uint32
	goAwaySent bool
	goAwayRecv bool
	closed     bool
	closeErr   error
	// peerMaxStreams is the peer's advertised SETTINGS limit on streams
	// we may have open concurrently (0 = unlimited).
	peerMaxStreams uint32

	acceptCh chan *Stream
	goAwayCh chan struct{}
	done     chan struct{}

	pingMu   sync.Mutex
	pingSeq  uint64
	pingWait map[uint64]chan struct{}
}

// An Option customises a Session before it starts serving.
type option func(*sessionOptions)

type sessionOptions struct {
	wrap    func(net.Conn) net.Conn
	metrics *Metrics
	// legacy is a test hook: the session neither announces nor keeps
	// windows, as a peer built before they existed.
	legacy bool
}

// Metrics are the counters sessions report into. Whoever owns the
// registry resolves them once and shares them among its sessions, so no
// frame costs a lookup by name.
type Metrics struct {
	stalls   *metrics.Counter // h2t.window.stalls: a sender parked for credit
	updates  *metrics.Counter // h2t.window.updates_sent: WINDOW_UPDATE frames sent
	overruns *metrics.Counter // h2t.window.overruns: streams reset for DATA beyond their window
	direct   *metrics.Counter // h2t.sink.direct_bytes: sink bytes the session reader wrote as they came
	buffered *metrics.Counter // h2t.sink.buffered_bytes: sink bytes that went through the chunk queue
	resident *metrics.Gauge   // h2t.recv.resident_bytes: chunk memory held by receive buffers
}

// NewMetrics resolves the session counters in reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		stalls:   reg.Counter("h2t.window.stalls"),
		updates:  reg.Counter("h2t.window.updates_sent"),
		overruns: reg.Counter("h2t.window.overruns"),
		direct:   reg.Counter("h2t.sink.direct_bytes"),
		buffered: reg.Counter("h2t.sink.buffered_bytes"),
		resident: reg.Gauge("h2t.recv.resident_bytes"),
	}
}

// unobserved receives the counts of sessions started without WithMetrics.
var unobserved = NewMetrics(metrics.NewRegistry())

// WithMetrics makes the session report into m.
func WithMetrics(m *Metrics) option {
	return func(o *sessionOptions) { o.metrics = m }
}

// NewSession starts a session over conn, Serve on a goroutine of its own.
// Exactly one endpoint must pass isClient=true. The session owns conn.
func NewSession(conn net.Conn, isClient bool, opts ...option) *Session {
	s := newSession(conn, isClient, opts...)
	go s.Serve()
	return s
}

// NewServedSession is NewSession for a caller that runs Serve itself, on a
// goroutine it has anyway.
func NewServedSession(conn net.Conn, isClient bool, opts ...option) *Session {
	return newSession(conn, isClient, opts...)
}

// newSession is NewSession short of starting the read side.
func newSession(conn net.Conn, isClient bool, opts ...option) *Session {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.wrap != nil {
		if wrapped := o.wrap(conn); wrapped != nil {
			conn = wrapped
		}
	}
	if o.metrics == nil {
		o.metrics = unobserved
	}
	s := &Session{
		conn:     conn,
		rbuf:     make([]byte, readBufSize),
		isClient: isClient,
		legacy:   o.legacy,
		m:        o.metrics,
		// A legacy session has nothing to announce.
		announced: o.legacy,
		streams:   make(map[uint32]*Stream),
		acceptCh:  make(chan *Stream, 64),
		goAwayCh:  make(chan struct{}),
		done:      make(chan struct{}),
		pingWait:  make(map[uint64]chan struct{}),
	}
	if isClient {
		s.nextID = 1
	} else {
		s.nextID = 2
	}
	s.wr.Init(conn, (*sessionReader)(s))
	// A frame read owes the peer no write: a reset that came in behind one
	// may have nothing to fail.
	s.wr.ConfirmWaits()
	return s
}

// inlinePayload is the largest payload copied into wbuf behind its frame
// header. Anything larger goes to the transport from the caller's memory
// as its own element of the vectored write.
const inlinePayload = 4 << 10

// putHeader encodes the wire header of the next frame of the write being
// assembled. The first frame a session ever sends announces its receive
// windows: whatever that frame is, the peer has it before any DATA it
// could answer. wmu is held.
func (s *Session) putHeader(t frameType, flags uint8, id uint32, n int) {
	if !s.announced {
		s.announced = true
		flags |= FlagWindow
	}
	s.wbuf = appendFrameHeader(s.wbuf, t, flags, id, n)
}

// putFrame adds one frame to the write being assembled. wmu is held.
func (s *Session) putFrame(t frameType, flags uint8, id uint32, payload []byte) {
	s.putHeader(t, flags, id, len(payload))
	if len(payload) <= inlinePayload {
		s.wbuf = append(s.wbuf, payload...)
		return
	}
	// A run of wbuf already referenced stays valid if a later append moves
	// wbuf: the old array keeps its bytes.
	s.wvec = append(s.wvec, s.wbuf[s.wmark:], payload)
	s.wmark = len(s.wbuf)
}

// credit is a WINDOW_UPDATE waiting for a write to leave with.
type credit struct{ id, n uint32 }

// sendCredit acknowledges n consumed bytes of stream id to the peer. The
// frame is queued first and the write lock taken second, so a write that
// some sender is assembling meanwhile takes the frame along; if none
// does, the flush here is a write of its own. Either way the credit is on
// the wire when sendCredit returns — a lone upload whose receiver has
// nothing else to send must not wait for one. A failed flush has shut the
// session down, which is all there is to do about it.
func (s *Session) sendCredit(id uint32, n int) {
	s.cmu.Lock()
	s.credits = append(s.credits, credit{id, uint32(n)})
	s.cmu.Unlock()
	s.wmu.Lock()
	s.flush()
	s.wmu.Unlock()
}

// putCredits encodes the queued credits behind the frames assembled so
// far, straight into wbuf. wmu is held.
func (s *Session) putCredits() {
	s.cmu.Lock()
	for _, c := range s.credits {
		s.putHeader(frameWindowUpdate, 0, c.id, 4)
		s.wbuf = binary.BigEndian.AppendUint32(s.wbuf, c.n)
	}
	s.m.updates.Add(int64(len(s.credits)))
	s.credits = s.credits[:0]
	s.cmu.Unlock()
}

// flush puts everything assembled since the last flush, and the credits
// queued since, on the wire: one Write when it is all in wbuf, one writev
// otherwise (net.Buffers' fast path on TCP; sequential writes on other
// transports). wmu is held. A failure is final for the session: part of a
// frame may have gone out, so no frame may follow it.
func (s *Session) flush() error {
	if s.werr != nil {
		s.resetWrite()
		return s.werr
	}
	s.putCredits()
	if len(s.wbuf) == 0 {
		return nil // the credits this flush was for left with another write
	}
	var err error
	if len(s.wvec) == 0 {
		_, err = s.conn.Write(s.wbuf)
	} else {
		if s.wmark < len(s.wbuf) {
			s.wvec = append(s.wvec, s.wbuf[s.wmark:])
		}
		s.wbufs = s.wvec
		_, err = s.wbufs.WriteTo(s.conn)
	}
	s.resetWrite()
	if err != nil {
		s.werr = err
		s.shutdown(fmt.Errorf("h2t: write: %w", err))
	}
	return err
}

func (s *Session) resetWrite() {
	clear(s.wvec) // do not retain the callers' payloads
	s.wvec, s.wbufs = s.wvec[:0], nil
	s.wbuf, s.wmark = s.wbuf[:0], 0
}

// writeFrame sends one frame; it is on the wire when writeFrame returns.
func (s *Session) writeFrame(f tunnelFrame) error {
	if len(f.Payload) > maxFramePayload {
		return errFrameTooLarge
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.putFrame(f.Type, f.Flags, f.streamID, f.Payload)
	return s.flush()
}

// sendMessage sends, for stream id, a HEADERS frame (unless hdr is nil) and
// body as DATA frames split at the frame size limit, all in one write. end
// puts END_STREAM on the last of those frames; an empty message that ends
// the stream is an empty DATA frame.
func (s *Session) sendMessage(id uint32, hdr Fields, body []byte, end bool) error {
	var hdrSize int
	if hdr != nil {
		var err error
		if hdrSize, err = fieldsSize(hdr); err != nil {
			return err
		}
		if hdrSize > maxFramePayload {
			return errFrameTooLarge
		}
	}
	endFlag := func(last bool) uint8 {
		if end && last {
			return flagEndStream
		}
		return 0
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if hdr != nil {
		// The header block is encoded straight behind its frame header.
		s.putHeader(frameHeaders, endFlag(len(body) == 0), id, hdrSize)
		s.wbuf = appendFields(s.wbuf, hdr)
	} else if len(body) == 0 && end {
		s.putFrame(frameData, flagEndStream, id, nil)
	}
	for len(body) > 0 {
		n := min(len(body), maxFramePayload)
		s.putFrame(frameData, endFlag(n == len(body)), id, body[:n])
		body = body[n:]
	}
	return s.flush()
}

// OpenStream is OpenStreamWith for a header map (see EncodeHeaders).
func (s *Session) OpenStream(hdr map[string]string, endStream bool) (*Stream, error) {
	var room [fieldsRoom]Field
	return s.OpenStreamWith(appendMap(room[:0], hdr), nil, endStream)
}

// OpenStreamWith starts a new stream with the given headers, which are
// encoded from the caller's memory and not kept (Fields is nil on a stream
// this side opened), and the first body bytes if some are already in
// hand: HEADERS and body leave in one write. With endStream the last
// frame carries END_STREAM and the local direction is half-closed at once
// (a request with no more body). Fails with ErrGoAway while draining.
func (s *Session) OpenStreamWith(hdr Fields, body []byte, endStream bool) (*Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errSessionClosed
	}
	if s.goAwaySent || s.goAwayRecv {
		s.mu.Unlock()
		return nil, ErrGoAway
	}
	if s.peerMaxStreams > 0 {
		mine := uint32(0)
		for id := range s.streams {
			if !s.peerInitiated(id) {
				mine++
			}
		}
		if mine >= s.peerMaxStreams {
			s.mu.Unlock()
			return nil, errStreamLimit
		}
	}
	id := s.nextID
	s.nextID += 2
	st := newStream(s, id)
	s.streams[id] = st
	s.mu.Unlock()

	if hdr == nil {
		hdr = Fields{} // to SendMessage nil is no HEADERS frame
	}
	if err := st.SendMessage(hdr, body, endStream); err != nil {
		s.dropStream(id)
		return nil, err
	}
	return st, nil
}

// Accept blocks until a peer-initiated stream arrives or the session dies.
func (s *Session) Accept() (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-s.done:
		// Drain anything that raced with shutdown.
		select {
		case st := <-s.acceptCh:
			return st, nil
		default:
		}
		return nil, s.endReason()
	}
}

// endReason says what ended a stream from outside, or the session: the
// session's death once it has died (a shutdown's reason is never nil), a
// reset while it lives.
func (s *Session) endReason() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.closeErr
	}
	return ErrStreamReset
}

// GoAway announces graceful drain: the peer must open no more streams and
// this side refuses to open more; in-flight streams continue.
func (s *Session) GoAway() error {
	s.mu.Lock()
	already := s.goAwaySent
	s.goAwaySent = true
	s.mu.Unlock()
	if already {
		return nil
	}
	return s.writeFrame(tunnelFrame{Type: frameGoAway})
}

// AdvertiseSettings tells the peer how many concurrent streams it may keep
// open toward this side (0 = unlimited). A proxy uses it to bound per-
// tunnel fan-in.
func (s *Session) AdvertiseSettings(maxConcurrentStreams uint32) error {
	var payload [4]byte
	binary.BigEndian.PutUint32(payload[:], maxConcurrentStreams)
	return s.writeFrame(tunnelFrame{Type: FrameSettings, Payload: payload[:]})
}

// Draining reports whether either side has announced GOAWAY.
func (s *Session) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goAwaySent || s.goAwayRecv
}

// hold accounts delta bytes of chunk memory taken (or, negative, given
// back) by a receive buffer of this session.
func (s *Session) hold(delta int) {
	s.resident.Add(int64(delta))
	s.m.resident.Add(int64(delta))
}

// Close tears the session down immediately; all streams error out.
func (s *Session) Close() error {
	return s.shutdown(errSessionClosed)
}

// Done returns a channel closed when the session has terminated.
func (s *Session) Done() <-chan struct{} { return s.done }

func (s *Session) shutdown(reason error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.closeErr = reason
	streams := s.streams // nobody else has the old map
	s.streams = map[uint32]*Stream{}
	s.mu.Unlock()

	for id, st := range streams {
		st.abort(s, id, reason)
	}
	err := s.conn.Close()
	close(s.done)
	return err
}

func (s *Session) dropStream(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

func (s *Session) lookup(id uint32) *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// peerInitiated reports whether id's parity marks a peer-opened stream.
func (s *Session) peerInitiated(id uint32) bool {
	odd := id%2 == 1
	return odd != s.isClient
}

// readBufSize is the session's read buffer: one read of the transport
// picks up every frame that has arrived, up to this much.
const readBufSize = 16 << 10

// heldHeaders is a response header block parsed but not yet delivered.
type heldHeaders struct {
	st  *Stream
	id  uint32
	hdr Fields
}

// Serve runs the session's read side until the transport or the parser
// ends the session. A wake that leaves replies owed ends the Run they were
// parsed in: they are written here, where a write may block.
func (s *Session) Serve() {
	for {
		err := s.wr.Run()
		if err != nil || s.rerr != nil {
			s.endRead(err)
			return
		}
		s.payOwed()
	}
}

// payOwed writes what the wakes of a Run came to owe: replies, and credit
// for DATA the reader wrote through. A failure ends the session, and the
// next Run.
func (s *Session) payOwed() {
	for i, f := range s.owed {
		s.writeFrame(f)
		s.owed[i] = tunnelFrame{}
	}
	s.owed = s.owed[:0]
}

// endRead shuts the session down for what ended its read side: the
// parser's verdict if it gave one, else the transport's error.
func (s *Session) endRead(err error) {
	if s.direct != nil && s.big == nil {
		s.curSt.buf.filled(s, 0) // the room a DATA payload was landing in
	}
	switch {
	case s.rerr != nil:
		s.shutdown(s.rerr)
	case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed):
		s.shutdown(errSessionClosed)
	default:
		s.shutdown(fmt.Errorf("h2t: read: %w", err))
	}
}

// sessionReader is a Session as its WakeReader sees it.
type sessionReader Session

func (r *sessionReader) ReadBuf() []byte { return (*Session)(r).nextBuf() }

func (r *sessionReader) ServeWake(n int) (done bool) {
	s := (*Session)(r)
	s.rerr = s.advance(n)
	// What the wake brought is spent and the transport is about to be
	// waited for: a consumer woken by its headers now finds every frame
	// that came in with them, and none waits on a read that may block.
	s.releaseHeld()
	return s.rerr != nil || len(s.owed) > 0
}

func (s *Session) releaseHeld() {
	for i, h := range s.held {
		h.st.deliverHeaders(s, h.id, h.hdr)
		s.held[i] = heldHeaders{}
	}
	s.held = s.held[:0]
}

// nextBuf returns where the next bytes of the transport belong: with the
// read buffer spent in mid-payload, straight where that payload is going,
// else in the read buffer behind what is unparsed.
func (s *Session) nextBuf() []byte {
	s.direct = nil
	if s.rr == s.rw {
		s.rr, s.rw = 0, 0
		switch {
		case !s.inFrame:
		case s.big != nil:
			s.direct = s.big[len(s.big)-s.left:]
		case s.curSt != nil:
			s.direct = s.curSt.buf.room(s, s.left) // nil once the stream has ended
		}
	}
	if s.direct != nil {
		return s.direct
	}
	if s.rr > 0 {
		s.rw = copy(s.rbuf, s.rbuf[s.rr:s.rw])
		s.rr = 0
	}
	return s.rbuf[s.rw:]
}

// advance takes in the n bytes that were read into what nextBuf returned
// and parses and handles every frame they complete. Payloads alias the
// read buffer, so handleFrame must copy anything it retains.
func (s *Session) advance(n int) error {
	if s.direct != nil {
		if s.big == nil {
			s.curSt.buf.filled(s, n)
			s.curSt.kick()
		}
		s.direct = nil
		if s.left -= n; s.left > 0 {
			return nil
		}
		return s.endFrame(s.big)
	}
	s.rw += n
	for {
		if !s.inFrame {
			if s.rw-s.rr < frameHeaderLen {
				return nil
			}
			f, size, err := parseFrameHeader(s.rbuf[s.rr:])
			if err != nil {
				return fmt.Errorf("h2t: read: %w", err)
			}
			if f.Flags&FlagWindow != 0 && !s.legacy {
				s.peerWindow.Store(true)
			}
			// Credit, a PING's echo and whatever names a stream this side
			// opened answer a frame of ours, so the peer has our announcement;
			// before, a tunnel's first upload may cross it and is not policed.
			if !s.policed && (f.Type == frameWindowUpdate || f.Type == framePing && f.Flags&flagAck != 0 ||
				f.streamID != 0 && !s.peerInitiated(f.streamID)) {
				s.policed = s.peerWindow.Load()
			}
			s.rr += frameHeaderLen
			s.inFrame, s.cur, s.left, s.curSt, s.big = true, f, size, nil, nil
			switch {
			case f.Type == frameData:
				// A stream the peer ended is no target, as one that is gone:
				// its user may have released it (Stream.Release).
				if st := s.lookup(f.streamID); st != nil {
					if open, fits := st.buf.admits(size); open && (fits || !s.policed) {
						s.curSt = st
					} else if open {
						// Past its window: the peer loses this stream and nothing
						// else, and the payload goes nowhere.
						s.m.overruns.Inc()
						st.abort(s, f.streamID, ErrStreamReset)
						s.dropStream(f.streamID)
						s.owed = append(s.owed, tunnelFrame{Type: frameRST, streamID: f.streamID})
					}
				}
			case size > len(s.rbuf):
				s.big = make([]byte, size) // only a header block can be this large
			}
		}
		have := min(s.rw-s.rr, s.left)
		src := s.rbuf[s.rr : s.rr+have]
		switch {
		case s.cur.Type == frameData:
			if s.curSt != nil && len(src) > 0 {
				s.curSt.buf.put(s, s.curSt, src, s.left-have)
			}
		case s.big != nil:
			copy(s.big[len(s.big)-s.left:], src)
		case have < s.left:
			return nil // handled from the read buffer, once it is all there
		}
		s.rr += have
		if s.left -= have; s.left > 0 {
			return nil
		}
		payload := src
		if s.big != nil {
			payload = s.big
		}
		if err := s.endFrame(payload); err != nil {
			return err
		}
	}
}

// endFrame handles cur, whose payload has arrived: a DATA frame's is in
// its stream's buffer by now, any other's is payload.
func (s *Session) endFrame(payload []byte) error {
	f, st := s.cur, s.curSt
	s.inFrame, s.curSt, s.big = false, nil, nil
	if f.Type != frameData {
		f.Payload = payload
		return s.handleFrame(f)
	}
	if st != nil && f.Flags&flagEndStream != 0 {
		s.remoteEnd(st)
	}
	return nil
}

func (s *Session) handleFrame(f tunnelFrame) error {
	switch f.Type {
	case frameHeaders:
		return s.handleHeaders(f)
	case frameRST:
		if st := s.lookup(f.streamID); st != nil {
			s.releaseHeld() // a block that came before the RST is the consumer's
			st.abort(s, f.streamID, ErrStreamReset)
			s.dropStream(f.streamID)
		}
	case frameWindowUpdate:
		// Credit for a stream that is gone, or of a size this version
		// does not know, is dropped: neither can be acted on.
		if len(f.Payload) == 4 {
			if st := s.lookup(f.streamID); st != nil {
				st.addCredit(s, f.streamID, binary.BigEndian.Uint32(f.Payload))
			}
		}
	case frameGoAway:
		s.mu.Lock()
		first := !s.goAwayRecv
		s.goAwayRecv = true
		s.mu.Unlock()
		if first {
			close(s.goAwayCh)
		}
	case FrameSettings:
		if len(f.Payload) == 4 {
			s.mu.Lock()
			s.peerMaxStreams = binary.BigEndian.Uint32(f.Payload)
			s.mu.Unlock()
		}
	case framePing:
		if f.Flags&flagAck != 0 {
			if len(f.Payload) == 8 {
				seq := binary.BigEndian.Uint64(f.Payload)
				s.pingMu.Lock()
				if ch, ok := s.pingWait[seq]; ok {
					close(ch)
					delete(s.pingWait, seq)
				}
				s.pingMu.Unlock()
			}
			return nil
		}
		// Echo back with ACK, once this wake is spent.
		s.owed = append(s.owed, tunnelFrame{Type: framePing, Flags: flagAck, Payload: append([]byte(nil), f.Payload...)})
	case FrameReconnectSolicitation, FrameConnectAck, FrameConnectRefuse:
		if st := s.lookup(f.streamID); st != nil {
			// The payload aliases the read buffer but the Control sits in
			// a channel past this iteration: copy it. Control frames are
			// per-reconnect, not per-byte, so this allocation is off the
			// hot path.
			var payload []byte
			if len(f.Payload) > 0 {
				payload = append(payload, f.Payload...)
			}
			st.deliverControl(s, f.streamID, Control{Type: f.Type, Payload: payload})
		}
	default:
		// Unknown frame types are ignored for forward compatibility.
	}
	return nil
}

// handleHeaders decodes a block into the room its stream has for one:
// the block that opens a stream where it is accepted, the first that
// comes back where it was opened. Any other goes to the heap, and none
// to a stream the peer ended (see advance).
func (s *Session) handleHeaders(f tunnelFrame) error {
	st := s.lookup(f.streamID)
	fresh := st == nil && s.peerInitiated(f.streamID)
	if st != nil {
		if open, _ := st.buf.admits(0); !open {
			st = nil
		}
	}
	var room []Field
	switch {
	case fresh:
		st = newStream(s, f.streamID)
		room = st.room[:0]
	case st != nil && !st.roomUsed:
		room = st.room[:0]
	}
	hdr, err := decodeFields(room, f.Payload)
	if err != nil {
		return fmt.Errorf("h2t: bad header block: %w", err)
	}
	if st == nil {
		// HEADERS for a stream we opened but already dropped; ignore.
		return nil
	}
	st.roomUsed = true
	if f.Flags&flagEndStream != 0 {
		s.remoteEnd(st)
	}
	if !fresh {
		// Subsequent HEADERS on a live stream: response/trailer headers.
		s.held = append(s.held, heldHeaders{st, f.streamID, hdr})
		return nil
	}
	st.hdr = hdr
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.streams[f.streamID] = st
	s.mu.Unlock()
	select {
	case s.acceptCh <- st:
	default:
		// Accept queue overflow: refuse the stream rather than block the
		// reader (the peer sees RST, maps to "server overloaded").
		s.dropStream(f.streamID)
		s.owed = append(s.owed, tunnelFrame{Type: frameRST, streamID: f.streamID})
	}
	return nil
}

// remoteEnd records the peer's half-close and reaps the stream when both
// directions are finished. Its user may release it once it sees the end:
// it leaves s.streams in the same hold of its lock.
func (s *Session) remoteEnd(st *Stream) {
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	if st.localEnd {
		s.dropStream(st.id)
	}
	st.buf.eof = true
	st.buf.cond.Broadcast()
	st.startWriter()
}

// fieldsRoom is the room a Stream has for the one header block a request
// brings it, the request's where the stream is accepted and the
// response's where it was opened: the proxies' fit (a response's four).
const fieldsRoom = 4

// Stream is one logical bidirectional stream.
//
// A stream has one lock, buf.mu, and one wait, buf.cond, on which a Read
// parks for data, a sender for credit and RecvHeaders for a block: a
// peer's RST, a local Reset and the session's death wake them all. The
// receive buffer and the room for a header block are part of the Stream
// itself: a stream is one allocation, in the 352-byte size class, which an
// idle relayed stream holds. A request's stream is reused once its user
// releases it (Release).
type Stream struct {
	sess *Session
	id   uint32
	// Guarded by buf.mu (they sit here to fill the word id leaves); the
	// peer's END_STREAM is buf.eof. aborted: the stream was ended from
	// outside, by the peer's RST or the session's death. roomUsed, the
	// session reader's: a block has been decoded into room.
	localEnd, reset, aborted, roomUsed bool

	buf recvBuffer

	// sendWin, guarded by buf.mu, is how many more DATA bytes the peer's
	// window has room for: streamWindow less what was sent and not yet
	// acknowledged. It is kept toward every peer and enforced toward one
	// that announced windows (Session.peerWindow).
	sendWin int64

	// hdr is, where the stream was accepted, the block that opened it,
	// which room backs. Where it was opened it is the slot, guarded by
	// buf.mu and nil when empty, for the blocks the peer sends (the
	// response's, decoded into room, and any after it), which RecvHeaders
	// takes; an accepted stream's slot is relayState's.
	hdr   Fields
	room  [fieldsRoom]Field
	relay atomic.Pointer[relayState] // made on first use (relayState)
}

// relayState is what only a stream relayed between two connections needs,
// the MQTT streams, and a request's stream does not pay for; and the slot
// of an accepted stream for blocks after the one that opened it.
type relayState struct {
	ctrlCh chan Control // DCR control frames, until OnControl (controls)
	// Guarded by buf.mu. w is the stream's sink and end its end callback
	// (Sink), both nil until it is attached and once its end is taken;
	// sink is w's descriptor, which the session reader writes DATA to as it
	// arrives (recvBuffer.put), nil if w hides it. writing: a writer runs
	// (startWriter). written counts what reached w either way. later is an
	// accepted stream's slot for header blocks (Stream.hdr).
	w         io.Writer
	sink      *netx.TryWriter
	end       func(error)
	writing   bool
	written   int64
	onControl func(Control)
	later     Fields
}

// streamPool holds released streams for newStream, which remakes one in
// place under its lock: a reader (lockAs) or a late headersTimer may yet
// take that.
var streamPool sync.Pool

func newStream(s *Session, id uint32) *Stream {
	st, _ := streamPool.Get().(*Stream)
	if st == nil {
		st = new(Stream)
		st.buf.init()
	}
	st.buf.mu.Lock()
	st.sess, st.id, st.sendWin, st.hdr, st.room = s, id, streamWindow, nil, [fieldsRoom]Field{}
	st.localEnd, st.reset, st.aborted, st.roomUsed = false, false, false, false
	st.buf.unacked, st.buf.eof, st.buf.released = 0, false, false
	st.buf.mu.Unlock()
	return st
}

// Release says the caller is done with the stream, which neither it nor
// its Fields may be used after. A later stream reuses one that is
// reusable; any other is the collector's, so any path may release.
func (st *Stream) Release() {
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	if st.reusable() {
		streamPool.Put(st)
	}
	st.buf.released = true
}

// reusable reports whether nothing but a new user can reach st: not
// released before, ended cleanly both ways (so out of s.streams: remoteEnd,
// SendMessage), holding no chunk nor lending one out, never relayed and,
// opened here, its header slot taken. buf.mu is held.
func (st *Stream) reusable() bool {
	b := &st.buf
	return !b.released && st.localEnd && b.eof && !st.reset && !st.aborted && b.err == nil &&
		len(b.chunks) == 0 && !b.filling && !b.draining && st.relay.Load() == nil &&
		(st.sess.peerInitiated(st.id) || st.roomUsed && st.hdr == nil)
}

// lockAs takes buf.mu if st is still what s calls id: one found in
// s.streams may have been released since, and reused.
func (st *Stream) lockAs(s *Session, id uint32) bool {
	st.buf.mu.Lock()
	ok := st.sess == s && st.id == id && !st.buf.released
	if !ok {
		st.buf.mu.Unlock()
	}
	return ok
}

// abort ends the stream s knows as id from outside — the peer's RST, the
// session's death: readers get err (after what the peer had completed,
// see recvBuffer.fail), and senders and RecvHeaders, waiting or yet to
// come, too; a sink gets its end.
func (st *Stream) abort(s *Session, id uint32, err error) {
	if !st.lockAs(s, id) {
		return
	}
	st.aborted = true
	st.buf.mu.Unlock()
	st.buf.fail(st.sess, err, false)
	st.kick()
}

// addCredit is the peer's WINDOW_UPDATE. The window never grows past
// streamWindow, whatever increments arrive: an honest peer acknowledges
// only what it was sent. A sender parks on a window that is not open:
// at zero, or below where it sent before the peer's announcement.
func (st *Stream) addCredit(s *Session, id uint32, n uint32) {
	if !st.lockAs(s, id) {
		return
	}
	defer st.buf.mu.Unlock()
	if st.sendWin <= 0 {
		st.buf.cond.Broadcast()
	}
	st.sendWin = min(st.sendWin+int64(n), streamWindow)
}

// reserve takes from the send window what a message with want body bytes
// may send now — all of it toward a peer that keeps no window — and parks
// while the window is empty, holding no session lock, until credit, a
// reset or the session's death. With end, taking the last of the message
// half-closes the local direction; done then says the stream is finished
// both ways.
func (st *Stream) reserve(want int, end bool) (n int, done bool, err error) {
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	enforced := st.sess.peerWindow.Load()
	for parked := false; ; parked = true {
		if st.localEnd || st.reset {
			return 0, false, ErrStreamClosed
		}
		if st.aborted {
			return 0, false, st.sess.endReason()
		}
		if want == 0 || st.sendWin > 0 || !enforced {
			break
		}
		if !parked {
			st.sess.m.stalls.Inc()
		}
		st.buf.cond.Wait()
	}
	n = want
	if enforced && want > 0 {
		n = min(want, int(st.sendWin))
	}
	st.sendWin -= int64(n)
	if end && n == want {
		st.localEnd = true
		done = st.buf.eof
	}
	return n, done, nil
}

// Fields returns the header block the peer opened the stream with; nil on
// a stream this side opened, whose block stayed the caller's.
func (st *Stream) Fields() Fields {
	if !st.sess.peerInitiated(st.id) {
		return nil
	}
	return st.hdr
}

// Headers is Fields as a new map (see EncodeHeaders).
func (st *Stream) Headers() map[string]string { return st.Fields().toMap() }

// Read reads decoded DATA payloads. The Read that takes what has been
// consumed and not yet acknowledged past half the window sends the peer
// its credit; Reads of a message smaller than that send nothing.
func (st *Stream) Read(p []byte) (int, error) {
	n, credit, err := st.buf.take(st.sess, p)
	if credit > 0 && st.sess.peerWindow.Load() {
		st.sess.sendCredit(st.id, credit)
	}
	return n, err
}

// WriteTo is Sink that waits for the end: it returns how much it wrote to
// w, and what end was given. Nobody else may write w meanwhile.
func (st *Stream) WriteTo(w io.Writer) (n int64, err error) {
	done := make(chan error, 1)
	st.Sink(w, func(err error) { done <- err })
	err = <-done
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	return st.relay.Load().written, err
}

// Sink makes w the consumer, in place of Read, of a stream whose bytes are
// only handed on, and end the receiver of its end, once: nil at the peer's
// END_STREAM once every byte is in w, the stream's error if it was reset
// or its session died, a *SinkError if a write to w failed. No buffer and
// no goroutine wait for the bytes: while nothing is queued and w gives up
// its descriptor (a bare connection, not a wrapped one) the session reader
// writes each payload to w (recvBuffer.put), and what is queued a writer
// writes out of its chunks, on a goroutine that exits once they are gone.
// end runs on the writer, never in a wake nor under the stream's lock, and
// may block. Nobody else may write w until it runs.
func (st *Stream) Sink(w io.Writer, end func(error)) {
	r := st.relayState()
	var sink *netx.TryWriter
	if sc, ok := w.(syscall.Conn); ok {
		sink = netx.NewTryWriter(sc)
	}
	st.buf.mu.Lock()
	r.w, r.sink, r.end = w, sink, end
	st.startWriter()
	st.buf.mu.Unlock()
}

// kick is startWriter for a caller that holds no lock: the session reader
// with bytes it has queued, whoever ends the stream.
func (st *Stream) kick() {
	if st.relay.Load() != nil {
		st.buf.mu.Lock()
		st.startWriter()
		st.buf.mu.Unlock()
	}
}

// startWriter starts the sink's writer, unless one runs, for what is
// queued or for the stream's end, which it delivers: neither a wake nor a
// shutdown, which may hold wmu, runs an end callback, and a writer
// started for the end alone lives only for it. buf.mu is held.
func (st *Stream) startWriter() {
	b := &st.buf
	if r := st.relay.Load(); r != nil && r.end != nil && !r.writing && (b.size > 0 || b.eof || b.err != nil) {
		r.writing = true
		go st.write(r)
	}
}

// write is the sink's writer. It writes the queue out of the chunks with
// the lock released and exits under the lock once the queue is empty: the
// session reader writes w only at size 0, so one of the two writes it at
// any instant. What the bytes earned the peer goes out first, then the
// stream's end if it has come.
func (st *Stream) write(r *relayState) {
	s, b := st.sess, &st.buf
	var err error
	for more := true; more; {
		credit := 0
		b.mu.Lock()
		if b.size > 0 { // else it was started for the end, or a failure emptied the queue
			b.draining = true
			p := (*b.chunks[0])[b.off:]
			b.mu.Unlock()
			var k int
			k, err = r.w.Write(p)
			s.m.buffered.Add(int64(k))
			b.mu.Lock()
			r.written += int64(k)
			credit = b.drained(s, k)
		}
		var end func(error)
		if more = b.size > 0 && err == nil; !more {
			r.writing = false
			end, err = st.takeEnd(r, err)
		}
		b.mu.Unlock()
		if credit > 0 && s.peerWindow.Load() {
			s.sendCredit(st.id, credit)
		}
		if end != nil {
			end(err)
		}
	}
}

// takeEnd detaches the sink and returns its end callback and what to give
// it, once the stream is over and nothing is queued — at once if werr
// failed a write to the sink. The writer calls it. buf.mu is held.
func (st *Stream) takeEnd(r *relayState, werr error) (end func(error), err error) {
	b := &st.buf
	if werr == nil && (b.size > 0 || !b.eof && b.err == nil) {
		return nil, nil
	}
	end, err = r.end, b.err
	if werr != nil {
		err = &SinkError{werr}
	}
	r.w, r.sink, r.end = nil, nil, nil
	return end, err
}

// Buffered reports what the next Read returns without blocking: n bytes
// of data or, when n is 0, whether the stream's end (or its error) is
// already known. A writer that coalesces what it reads from the stream
// uses it to tell when waiting for more would hold its output back.
func (st *Stream) Buffered() (n int, end bool) { return st.buf.buffered() }

// SendMessage sends a whole message, or the part of one that is in hand,
// in a single write: a HEADERS frame when hdr is not nil, body as DATA
// frames, and with end END_STREAM on the last frame instead of a frame of
// its own. Like every send on a stream it is on the wire on return; it is
// the one way a stream puts HEADERS and DATA there. With end it
// half-closes the local direction and reaps the stream once both
// directions are finished.
//
// A body larger than what the peer's window has room for goes out in as
// many writes as it takes, each sending what the window allows and the
// caller parked in between until the peer's consumer has made room. A
// stream reset by either side, or whose session died, fails the send.
func (st *Stream) SendMessage(hdr Fields, body []byte, end bool) error {
	for {
		n, done, err := st.reserve(len(body), end)
		if err != nil {
			return err
		}
		last := n == len(body)
		err = st.sess.sendMessage(st.id, hdr, body[:n], end && last)
		if done {
			st.sess.dropStream(st.id)
		}
		if err != nil || last {
			return err
		}
		hdr, body = nil, body[n:]
	}
}

// Write sends p as DATA frames, splitting at the frame size limit.
func (st *Stream) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := st.SendMessage(nil, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// CloseWrite half-closes the local direction (END_STREAM).
func (st *Stream) CloseWrite() error {
	if err := st.SendMessage(nil, nil, true); err != ErrStreamClosed {
		return err
	}
	return nil
}

// Reset aborts the stream (RST_STREAM to the peer, error to local readers).
func (st *Stream) Reset() error {
	st.buf.mu.Lock()
	if st.reset {
		st.buf.mu.Unlock()
		return nil
	}
	st.reset = true
	st.buf.mu.Unlock()
	st.buf.fail(st.sess, ErrStreamReset, true)
	st.kick()
	st.sess.dropStream(st.id)
	return st.sess.writeFrame(tunnelFrame{Type: frameRST, streamID: st.id})
}

// SendHeaders is SendMessage(h, nil, endStream) for a header map (see
// EncodeHeaders).
func (st *Stream) SendHeaders(h map[string]string, endStream bool) error {
	var room [fieldsRoom]Field
	return st.SendMessage(appendMap(room[:0], h), nil, endStream)
}

// A headersTimer ends a RecvHeaders wait at its deadline by waking the
// stream's waiters. One stopped in time goes back to headersTimers: the
// next call costs a Reset, not a timer. One that fires late, the stream
// released and reused, wakes the next user's waiters for nothing.
type headersTimer struct {
	t  *time.Timer
	st *Stream
}

var headersTimers sync.Pool

func (w *headersTimer) fire() {
	w.st.buf.mu.Lock()
	w.st.buf.cond.Broadcast()
	w.st.buf.mu.Unlock()
}

// RecvHeaders waits for a HEADERS frame from the peer (response headers),
// bounded by timeout, and takes it out of the stream's slot. A reset
// stream or a dead session fails it with the reason (endReason), the
// timeout with an error that is os.ErrDeadlineExceeded.
func (st *Stream) RecvHeaders(timeout time.Duration) (Fields, error) {
	deadline := time.Now().Add(timeout)
	w, _ := headersTimers.Get().(*headersTimer)
	if w == nil {
		w = &headersTimer{st: st}
		w.t = time.AfterFunc(timeout, w.fire)
	} else {
		w.st = st
		w.t.Reset(timeout)
	}
	defer func() {
		if w.t.Stop() { // one that fired may yet be on its way to st
			w.st = nil
			headersTimers.Put(w)
		}
	}()
	slot := st.slot()
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	for *slot == nil {
		if st.reset || st.aborted {
			return nil, st.sess.endReason()
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("h2t: timeout waiting for headers on stream %d: %w", st.id, os.ErrDeadlineExceeded)
		}
		st.buf.cond.Wait()
	}
	h := *slot
	*slot = nil
	return h, nil
}

// SendControl sends a DCR control frame on this stream.
func (st *Stream) SendControl(t frameType, payload []byte) error {
	switch t {
	case FrameReconnectSolicitation, FrameConnectAck, FrameConnectRefuse:
	default:
		return fmt.Errorf("h2t: %v is not a control frame", t)
	}
	return st.sess.writeFrame(tunnelFrame{Type: t, streamID: st.id, Payload: payload})
}

// Controls returns the channel of DCR control frames received on this
// stream, those that arrived before the first call included.
func (st *Stream) Controls() <-chan Control {
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	return st.relayState().controls()
}

// controls returns the control channel, made by whoever needs it first.
// buf.mu is held.
func (r *relayState) controls() chan Control {
	if r.ctrlCh == nil {
		// A re_connect is a frame or two; 16 is several re_connects' worth.
		r.ctrlCh = make(chan Control, 16)
	}
	return r.ctrlCh
}

// OnControl makes f the receiver of the stream's control frames in place
// of Controls, whose channel nobody may read from then on: the session
// reader calls it with each, and OnControl with those queued before, so
// f may run on both at once and must not block.
func (st *Stream) OnControl(f func(Control)) {
	r := st.relayState()
	st.buf.mu.Lock()
	r.onControl = f
	queued := r.ctrlCh
	st.buf.mu.Unlock()
	for len(queued) > 0 {
		f(<-queued)
	}
}

// relayState returns the stream's relay state, made by whoever needs it
// first: the consumer, or the session reader with a frame for it.
func (st *Stream) relayState() *relayState {
	if r := st.relay.Load(); r == nil {
		st.relay.CompareAndSwap(nil, new(relayState))
	}
	return st.relay.Load()
}

// slot is where the peer's blocks wait for RecvHeaders (see hdr).
func (st *Stream) slot() *Fields {
	if st.sess.peerInitiated(st.id) {
		return &st.relayState().later
	}
	return &st.hdr
}

// deliverHeaders puts a block in the slot of the stream s knows as id,
// unless the one before is still there or the stream was released since
// its end, and wakes RecvHeaders; it never blocks the reader.
func (st *Stream) deliverHeaders(s *Session, id uint32, h Fields) {
	if !st.lockAs(s, id) {
		return
	}
	if slot := st.slot(); *slot == nil {
		*slot = h
	}
	st.buf.cond.Broadcast()
	st.buf.mu.Unlock()
}

func (st *Stream) deliverControl(s *Session, id uint32, c Control) {
	if !st.lockAs(s, id) {
		return
	}
	r := st.relayState()
	f := r.onControl
	if f == nil {
		if ch := r.controls(); len(ch) < cap(ch) { // else dropped: control frames are advisory
			ch <- c
		}
	}
	st.buf.mu.Unlock()
	if f != nil {
		f(c)
	}
}
