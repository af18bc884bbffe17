package h2t

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Declarations only this package's tests call: no non-test code uses them.

// WriteFrame serializes f to w in one Write.
func WriteFrame(w io.Writer, f tunnelFrame) error {
	if len(f.Payload) > maxFramePayload {
		return errFrameTooLarge
	}
	b := make([]byte, 0, frameHeaderLen+len(f.Payload))
	b = appendFrameHeader(b, f.Type, f.Flags, f.streamID, len(f.Payload))
	_, err := w.Write(append(b, f.Payload...))
	return err
}

// WithConnWrapper interposes wrap between the session and its transport.
// It is the seam internal/faults uses to inject transport-level faults
// beneath the framing layer without the session knowing.
func WithConnWrapper(wrap func(net.Conn) net.Conn) option {
	return func(o *sessionOptions) { o.wrap = wrap }
}

// GoAwayReceived returns a channel closed when the peer announces GOAWAY.
func (s *Session) GoAwayReceived() <-chan struct{} { return s.goAwayCh }

// ResidentBytes returns the chunk memory the session's streams hold for
// data received and not yet read: at most a window and a chunk per stream
// whose peer keeps to its window.
func (s *Session) ResidentBytes() int64 { return s.resident.Load() }

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
	if err := s.writeFrame(tunnelFrame{Type: framePing, Payload: payload[:]}); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-s.done:
		return s.endReason()
	case <-time.After(timeout):
		return fmt.Errorf("h2t: ping timeout after %v", timeout)
	}
}

// ID returns the stream ID.
func (st *Stream) ID() uint32 { return st.id }
