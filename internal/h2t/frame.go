// Package h2t implements the HTTP/2-style multiplexed tunnel that connects
// Edge and Origin Proxygen (§2.2: "Edge and Origin maintain long-lived
// HTTP/2 connections over which user requests and MQTT connections are
// forwarded").
//
// It is a simplified HTTP/2: binary frames multiplex many logical streams
// over one TCP connection, with HEADERS / DATA / RST_STREAM / GOAWAY /
// PING / SETTINGS / WINDOW_UPDATE frame types. GOAWAY gives the tunnel
// the graceful-shutdown semantics (§3, Option-3) that Downstream
// Connection Reuse and Socket Takeover lean on: a draining proxy announces
// GOAWAY, the peer stops opening streams on the connection but in-flight
// streams run to completion over the draining period.
//
// Three DCR control frames ride alongside (§4.2): RECONNECT_SOLICITATION
// (restarting Origin → Edge, per tunneled MQTT stream), and the
// CONNECT_ACK / CONNECT_REFUSE verdicts for a re_connect attempt.
//
// Every stream is bounded by credit (DESIGN.md §15, "Stream windows"): a
// sender may have at most a window — 256 KiB, a constant on both sides —
// of DATA outstanding per stream, and parks when it has; the receiver
// keeps what has arrived in pooled chunks that go back to the pool as its
// consumer reads, and gives window back with WINDOW_UPDATE when the
// consumer has taken more than half of it. A session announces that it
// works this way with FlagWindow on the first frame it sends; toward a
// peer that has not — the previous release, mid-upgrade — nothing is
// enforced and no credit is sent. There is no session-level window: a
// session is bounded by SETTINGS max-concurrent-streams times the stream
// window, and one stalled stream never holds up another.
//
// Deliberate simplifications vs. RFC 7540 (documented in DESIGN.md): no
// HPACK (headers use a plain length-prefixed encoding), one fixed window
// size and no session window, no priorities, no server push.
package h2t

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameType identifies a frame.
type FrameType uint8

// Frame types.
const (
	FrameHeaders  FrameType = 0x1
	FrameData     FrameType = 0x2
	FrameRST      FrameType = 0x3
	FrameGoAway   FrameType = 0x4
	FramePing     FrameType = 0x5
	FrameSettings FrameType = 0x6
	// FrameWindowUpdate acknowledges DATA a stream's consumer has read:
	// its payload is a u32, the bytes of send window given back.
	FrameWindowUpdate FrameType = 0x7

	// DCR control frames (§4.2).
	FrameReconnectSolicitation FrameType = 0x10
	FrameConnectAck            FrameType = 0x11
	FrameConnectRefuse         FrameType = 0x12
)

// String returns a debug name.
func (t FrameType) String() string {
	switch t {
	case FrameHeaders:
		return "HEADERS"
	case FrameData:
		return "DATA"
	case FrameRST:
		return "RST_STREAM"
	case FrameGoAway:
		return "GOAWAY"
	case FramePing:
		return "PING"
	case FrameSettings:
		return "SETTINGS"
	case FrameWindowUpdate:
		return "WINDOW_UPDATE"
	case FrameReconnectSolicitation:
		return "RECONNECT_SOLICITATION"
	case FrameConnectAck:
		return "CONNECT_ACK"
	case FrameConnectRefuse:
		return "CONNECT_REFUSE"
	default:
		return fmt.Sprintf("UNKNOWN(%#x)", uint8(t))
	}
}

// Frame flags.
const (
	// FlagEndStream on HEADERS or DATA half-closes the sender's direction.
	FlagEndStream uint8 = 0x1
	// FlagAck marks a PING response.
	FlagAck uint8 = 0x2
	// FlagWindow, on the first frame a session sends whatever its type,
	// announces that the sender keeps a receive window on every stream and
	// replenishes it with WINDOW_UPDATE. A peer that never sets it is not
	// held to a window.
	FlagWindow uint8 = 0x4
)

// maxFramePayload bounds a single frame. DATA larger than this is split.
const maxFramePayload = 1 << 16

// frameHeaderLen is the fixed wire header: type(1) flags(1) stream(4) len(4).
const frameHeaderLen = 10

// Frame is one wire frame.
type Frame struct {
	Type     FrameType
	Flags    uint8
	StreamID uint32
	Payload  []byte
}

// ErrFrameTooLarge is returned for frames exceeding maxFramePayload.
var ErrFrameTooLarge = errors.New("h2t: frame payload too large")

// appendFrameHeader appends the fixed wire header of a frame whose payload
// is n bytes long.
func appendFrameHeader(b []byte, t FrameType, flags uint8, streamID uint32, n int) []byte {
	b = append(b, uint8(t), flags)
	b = binary.BigEndian.AppendUint32(b, streamID)
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// parseFrameHeader decodes a fixed wire header; n is the payload length
// that follows it.
func parseFrameHeader(hdr []byte) (f Frame, n int, err error) {
	f = Frame{
		Type:     FrameType(hdr[0]),
		Flags:    hdr[1],
		StreamID: binary.BigEndian.Uint32(hdr[2:6]),
	}
	size := binary.BigEndian.Uint32(hdr[6:10])
	if size > maxFramePayload {
		return Frame{}, 0, ErrFrameTooLarge
	}
	return f, int(size), nil
}

// WriteFrame serializes f to w in one Write.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > maxFramePayload {
		return ErrFrameTooLarge
	}
	b := make([]byte, 0, frameHeaderLen+len(f.Payload))
	b = appendFrameHeader(b, f.Type, f.Flags, f.StreamID, len(f.Payload))
	_, err := w.Write(append(b, f.Payload...))
	return err
}

// ReadFrame parses one frame from r. The returned payload is freshly
// allocated and owned by the caller. (The session read loop parses frames
// out of its own read buffer instead; see Session.readFrame.)
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// headerBlockSize validates h and returns the length of its encoding.
func headerBlockSize(h map[string]string) (int, error) {
	if len(h) > 0xffff {
		return 0, errors.New("h2t: too many headers")
	}
	size := 2
	for k, v := range h {
		if len(k) > 0xffff || len(v) > 0xffff {
			return 0, errors.New("h2t: header field too long")
		}
		size += 4 + len(k) + len(v)
	}
	return size, nil
}

// appendHeaderBlock appends the encoding of a header map that passed
// headerBlockSize: u16 count, then length-prefixed key/value pairs.
func appendHeaderBlock(buf []byte, h map[string]string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h)))
	for k, v := range h {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// EncodeHeaders serializes a header map: u16 count, then length-prefixed
// key/value pairs. Header maps are small (a handful of routing fields).
func EncodeHeaders(h map[string]string) ([]byte, error) {
	size, err := headerBlockSize(h)
	if err != nil {
		return nil, err
	}
	return appendHeaderBlock(make([]byte, 0, size), h), nil
}

// DecodeHeaders parses EncodeHeaders output.
func DecodeHeaders(b []byte) (map[string]string, error) {
	if len(b) < 2 {
		return nil, errors.New("h2t: short header block")
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	h := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, rest, err := takeString(b)
		if err != nil {
			return nil, err
		}
		v, rest2, err := takeString(rest)
		if err != nil {
			return nil, err
		}
		h[k] = v
		b = rest2
	}
	if len(b) != 0 {
		return nil, errors.New("h2t: trailing bytes in header block")
	}
	return h, nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("h2t: truncated header block")
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if len(b) < n {
		return "", nil, errors.New("h2t: truncated header string")
	}
	return string(b[:n]), b[n:], nil
}
