package h2t

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"zdr/internal/bufpool"
)

// Session errors.
var (
	// ErrGoAway is returned by OpenStream once either side has announced
	// GOAWAY: no new streams may start, existing streams drain.
	ErrGoAway = errors.New("h2t: session is draining (GOAWAY)")
	// ErrSessionClosed is returned once the session is dead.
	ErrSessionClosed = errors.New("h2t: session closed")
	// ErrStreamReset is delivered to readers of a stream the peer reset.
	ErrStreamReset = errors.New("h2t: stream reset by peer")
	// ErrStreamClosed is returned for writes on a finished stream.
	ErrStreamClosed = errors.New("h2t: stream closed")
	// ErrStreamLimit is returned by OpenStream when the peer's advertised
	// SETTINGS max-concurrent-streams would be exceeded.
	ErrStreamLimit = errors.New("h2t: peer stream limit reached")
)

// Control is a DCR control frame delivered on a stream.
type Control struct {
	Type    FrameType
	Payload []byte
}

// Session multiplexes streams over a single reliable conn. One side is the
// client (initiates with odd stream IDs), the other the server (even IDs);
// both may open and accept streams.
type Session struct {
	conn     net.Conn
	isClient bool

	// Write-side scratch, guarded by wmu: the frame header and the two-
	// element vector handed to net.Buffers.WriteTo live on the session so
	// a frame write is a single vectored syscall with zero allocations.
	wmu   sync.Mutex // serializes writeFrame
	whdr  [frameHeaderLen]byte
	wvec  [2][]byte
	wbufs net.Buffers

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
type Option func(*sessionOptions)

type sessionOptions struct {
	wrap func(net.Conn) net.Conn
}

// WithConnWrapper interposes wrap between the session and its transport.
// It is the seam internal/faults uses to inject transport-level faults
// beneath the framing layer without the session knowing.
func WithConnWrapper(wrap func(net.Conn) net.Conn) Option {
	return func(o *sessionOptions) { o.wrap = wrap }
}

// NewSession starts a session over conn. Exactly one endpoint must pass
// isClient=true. The session owns conn.
func NewSession(conn net.Conn, isClient bool, opts ...Option) *Session {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.wrap != nil {
		if wrapped := o.wrap(conn); wrapped != nil {
			conn = wrapped
		}
	}
	s := &Session{
		conn:     conn,
		isClient: isClient,
		streams:  make(map[uint32]*Stream),
		acceptCh: make(chan *Stream, 64),
		goAwayCh: make(chan struct{}),
		done:     make(chan struct{}),
		pingWait: make(map[uint64]chan struct{}),
	}
	if isClient {
		s.nextID = 1
	} else {
		s.nextID = 2
	}
	go s.readLoop()
	return s
}

func (s *Session) writeFrame(f Frame) error {
	if len(f.Payload) > maxFramePayload {
		return ErrFrameTooLarge
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.whdr[0] = uint8(f.Type)
	s.whdr[1] = f.Flags
	binary.BigEndian.PutUint32(s.whdr[2:6], f.StreamID)
	binary.BigEndian.PutUint32(s.whdr[6:10], uint32(len(f.Payload)))
	if len(f.Payload) == 0 {
		_, err := s.conn.Write(s.whdr[:])
		return err
	}
	// Header + payload go out in one writev (net.Buffers fast path on TCP
	// conns; sequential writes elsewhere), so the peer never sees a header
	// without its payload in a separate segment and nothing is allocated
	// to concatenate them.
	s.wvec[0] = s.whdr[:]
	s.wvec[1] = f.Payload
	s.wbufs = s.wvec[:]
	_, err := s.wbufs.WriteTo(s.conn)
	s.wvec[1] = nil // do not retain the caller's payload
	return err
}

// OpenStream starts a new stream with the given headers. If endStream is
// true the local direction is immediately half-closed (a request with no
// body). Fails with ErrGoAway while draining.
func (s *Session) OpenStream(hdr map[string]string, endStream bool) (*Stream, error) {
	payload, err := EncodeHeaders(hdr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
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
			return nil, ErrStreamLimit
		}
	}
	id := s.nextID
	s.nextID += 2
	st := newStream(s, id, hdr)
	if endStream {
		st.localEnd = true
	}
	s.streams[id] = st
	s.mu.Unlock()

	var flags uint8
	if endStream {
		flags |= FlagEndStream
	}
	if err := s.writeFrame(Frame{Type: FrameHeaders, Flags: flags, StreamID: id, Payload: payload}); err != nil {
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
		return nil, s.closeReason()
	}
}

func (s *Session) closeReason() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closeErr != nil {
		return s.closeErr
	}
	return ErrSessionClosed
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
	return s.writeFrame(Frame{Type: FrameGoAway})
}

// AdvertiseSettings tells the peer how many concurrent streams it may keep
// open toward this side (0 = unlimited). A proxy uses it to bound per-
// tunnel fan-in.
func (s *Session) AdvertiseSettings(maxConcurrentStreams uint32) error {
	var payload [4]byte
	binary.BigEndian.PutUint32(payload[:], maxConcurrentStreams)
	return s.writeFrame(Frame{Type: FrameSettings, Payload: payload[:]})
}

// GoAwayReceived returns a channel closed when the peer announces GOAWAY.
func (s *Session) GoAwayReceived() <-chan struct{} { return s.goAwayCh }

// Draining reports whether either side has announced GOAWAY.
func (s *Session) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goAwaySent || s.goAwayRecv
}

// NumStreams returns the number of live streams.
func (s *Session) NumStreams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// Ping round-trips a PING frame, bounding the wait by timeout.
func (s *Session) Ping(timeout time.Duration) error {
	s.pingMu.Lock()
	s.pingSeq++
	seq := s.pingSeq
	ch := make(chan struct{})
	s.pingWait[seq] = ch
	s.pingMu.Unlock()
	defer func() {
		s.pingMu.Lock()
		delete(s.pingWait, seq)
		s.pingMu.Unlock()
	}()

	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], seq)
	if err := s.writeFrame(Frame{Type: FramePing, Payload: payload[:]}); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-s.done:
		return s.closeReason()
	case <-time.After(timeout):
		return fmt.Errorf("h2t: ping timeout after %v", timeout)
	}
}

// Close tears the session down immediately; all streams error out.
func (s *Session) Close() error {
	return s.shutdown(ErrSessionClosed)
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
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = map[uint32]*Stream{}
	s.mu.Unlock()

	for _, st := range streams {
		st.buf.fail(reason)
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

func (s *Session) readLoop() {
	// One pooled scratch buffer serves every frame on the session; frame
	// payloads alias it, so handleFrame must copy anything it retains
	// past the current iteration (recvBuffer.append copies; control
	// frames are copied explicitly in handleFrame).
	scratch := bufpool.Get(maxFramePayload)
	defer bufpool.Put(scratch)
	for {
		f, err := readFrameInto(s.conn, *scratch)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				s.shutdown(ErrSessionClosed)
			} else {
				s.shutdown(fmt.Errorf("h2t: read: %w", err))
			}
			return
		}
		s.handleFrame(f)
	}
}

func (s *Session) handleFrame(f Frame) {
	switch f.Type {
	case FrameHeaders:
		s.handleHeaders(f)
	case FrameData:
		if st := s.lookup(f.StreamID); st != nil {
			st.buf.append(f.Payload)
			if f.Flags&FlagEndStream != 0 {
				s.remoteEnd(st)
			}
		}
	case FrameRST:
		if st := s.lookup(f.StreamID); st != nil {
			st.buf.fail(ErrStreamReset)
			s.dropStream(f.StreamID)
		}
	case FrameGoAway:
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
	case FramePing:
		if f.Flags&FlagAck != 0 {
			if len(f.Payload) == 8 {
				seq := binary.BigEndian.Uint64(f.Payload)
				s.pingMu.Lock()
				if ch, ok := s.pingWait[seq]; ok {
					close(ch)
					delete(s.pingWait, seq)
				}
				s.pingMu.Unlock()
			}
			return
		}
		// Echo back with ACK.
		s.writeFrame(Frame{Type: FramePing, Flags: FlagAck, Payload: f.Payload})
	case FrameReconnectSolicitation, FrameConnectAck, FrameConnectRefuse:
		if st := s.lookup(f.StreamID); st != nil {
			// The payload aliases the read loop's scratch buffer but the
			// Control sits in a channel past this iteration: copy it.
			// Control frames are per-reconnect, not per-byte, so this
			// allocation is off the hot path.
			var payload []byte
			if len(f.Payload) > 0 {
				payload = append(payload, f.Payload...)
			}
			st.deliverControl(Control{Type: f.Type, Payload: payload})
		}
	default:
		// Unknown frame types are ignored for forward compatibility.
	}
}

func (s *Session) handleHeaders(f Frame) {
	hdr, err := DecodeHeaders(f.Payload)
	if err != nil {
		s.shutdown(fmt.Errorf("h2t: bad header block: %w", err))
		return
	}
	if st := s.lookup(f.StreamID); st != nil {
		// Subsequent HEADERS on a live stream: response/trailer headers.
		st.deliverHeaders(hdr)
		if f.Flags&FlagEndStream != 0 {
			s.remoteEnd(st)
		}
		return
	}
	if !s.peerInitiated(f.StreamID) {
		// HEADERS for a stream we opened but already dropped; ignore.
		return
	}
	st := newStream(s, f.StreamID, hdr)
	if f.Flags&FlagEndStream != 0 {
		st.remoteEnd = true
		st.buf.setEOF()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.streams[f.StreamID] = st
	s.mu.Unlock()
	select {
	case s.acceptCh <- st:
	default:
		// Accept queue overflow: refuse the stream rather than block the
		// reader (the peer sees RST, maps to "server overloaded").
		s.dropStream(f.StreamID)
		s.writeFrame(Frame{Type: FrameRST, StreamID: f.StreamID})
	}
}

// remoteEnd records the peer's half-close and reaps the stream when both
// directions are finished.
func (s *Session) remoteEnd(st *Stream) {
	st.buf.setEOF()
	st.mu.Lock()
	st.remoteEnd = true
	done := st.localEnd
	st.mu.Unlock()
	if done {
		s.dropStream(st.id)
	}
}

// Stream is one logical bidirectional stream.
type Stream struct {
	sess *Session
	id   uint32
	hdr  map[string]string
	buf  *recvBuffer

	hdrCh  chan map[string]string
	ctrlCh chan Control

	mu        sync.Mutex
	localEnd  bool
	remoteEnd bool
	reset     bool
}

func newStream(s *Session, id uint32, hdr map[string]string) *Stream {
	return &Stream{
		sess:   s,
		id:     id,
		hdr:    hdr,
		buf:    newRecvBuffer(),
		hdrCh:  make(chan map[string]string, 4),
		ctrlCh: make(chan Control, 16),
	}
}

// ID returns the stream ID.
func (st *Stream) ID() uint32 { return st.id }

// Headers returns the headers the stream was opened with.
func (st *Stream) Headers() map[string]string { return st.hdr }

// Read reads decoded DATA payloads.
func (st *Stream) Read(p []byte) (int, error) { return st.buf.Read(p) }

// Write sends p as DATA frames, splitting at the frame size limit.
func (st *Stream) Write(p []byte) (int, error) {
	st.mu.Lock()
	if st.localEnd || st.reset {
		st.mu.Unlock()
		return 0, ErrStreamClosed
	}
	st.mu.Unlock()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxFramePayload {
			n = maxFramePayload
		}
		if err := st.sess.writeFrame(Frame{Type: FrameData, StreamID: st.id, Payload: p[:n]}); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// CloseWrite half-closes the local direction (END_STREAM).
func (st *Stream) CloseWrite() error {
	st.mu.Lock()
	if st.localEnd || st.reset {
		st.mu.Unlock()
		return nil
	}
	st.localEnd = true
	done := st.remoteEnd
	st.mu.Unlock()
	err := st.sess.writeFrame(Frame{Type: FrameData, Flags: FlagEndStream, StreamID: st.id})
	if done {
		st.sess.dropStream(st.id)
	}
	return err
}

// Reset aborts the stream (RST_STREAM to the peer, error to local readers).
func (st *Stream) Reset() error {
	st.mu.Lock()
	if st.reset {
		st.mu.Unlock()
		return nil
	}
	st.reset = true
	st.mu.Unlock()
	st.buf.fail(ErrStreamReset)
	st.sess.dropStream(st.id)
	return st.sess.writeFrame(Frame{Type: FrameRST, StreamID: st.id})
}

// SendHeaders sends an additional HEADERS frame (e.g. response headers).
func (st *Stream) SendHeaders(h map[string]string, endStream bool) error {
	payload, err := EncodeHeaders(h)
	if err != nil {
		return err
	}
	var flags uint8
	if endStream {
		flags |= FlagEndStream
		st.mu.Lock()
		st.localEnd = true
		done := st.remoteEnd
		st.mu.Unlock()
		if done {
			defer st.sess.dropStream(st.id)
		}
	}
	return st.sess.writeFrame(Frame{Type: FrameHeaders, Flags: flags, StreamID: st.id, Payload: payload})
}

// RecvHeaders waits for a HEADERS frame from the peer (response headers),
// bounded by timeout.
func (st *Stream) RecvHeaders(timeout time.Duration) (map[string]string, error) {
	// Stopped on return: under go 1.22 timer semantics a time.After timer
	// stays on the heap until it fires, and at the Edge's 30 s response
	// timeout that is every request of the last half minute.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case h := <-st.hdrCh:
		return h, nil
	case <-st.sess.done:
		return nil, st.sess.closeReason()
	case <-timer.C:
		return nil, fmt.Errorf("h2t: timeout waiting for headers on stream %d", st.id)
	}
}

// SendControl sends a DCR control frame on this stream.
func (st *Stream) SendControl(t FrameType, payload []byte) error {
	switch t {
	case FrameReconnectSolicitation, FrameConnectAck, FrameConnectRefuse:
	default:
		return fmt.Errorf("h2t: %v is not a control frame", t)
	}
	return st.sess.writeFrame(Frame{Type: t, StreamID: st.id, Payload: payload})
}

// Controls returns the channel of DCR control frames received on this
// stream.
func (st *Stream) Controls() <-chan Control { return st.ctrlCh }

func (st *Stream) deliverHeaders(h map[string]string) {
	select {
	case st.hdrCh <- h:
	default: // never block the session reader
	}
}

func (st *Stream) deliverControl(c Control) {
	select {
	case st.ctrlCh <- c:
	default: // drop over backpressure; control frames are advisory
	}
}
