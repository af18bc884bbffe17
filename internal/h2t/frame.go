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
// enforced and no credit is sent. A peer that has seen this side's
// announcement and sends past its window loses that stream. There is no
// session-level window: a session is bounded by SETTINGS
// max-concurrent-streams times the stream window, and one stalled stream
// never holds up another.
//
// A header block in memory is Fields, its fields in wire order as
// substrings of one copy of the payload; a Stream, with room for one
// block, is one allocation (DESIGN.md §15, "Heads and header blocks").
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

// frameType identifies a frame.
type frameType uint8

// Frame types.
const (
	frameHeaders  frameType = 0x1
	frameData     frameType = 0x2
	frameRST      frameType = 0x3
	frameGoAway   frameType = 0x4
	framePing     frameType = 0x5
	FrameSettings frameType = 0x6
	// frameWindowUpdate acknowledges DATA a stream's consumer has read:
	// its payload is a u32, the bytes of send window given back.
	frameWindowUpdate frameType = 0x7

	// DCR control frames (§4.2).
	FrameReconnectSolicitation frameType = 0x10
	FrameConnectAck            frameType = 0x11
	FrameConnectRefuse         frameType = 0x12
)

// String returns a debug name.
func (t frameType) String() string {
	switch t {
	case frameHeaders:
		return "HEADERS"
	case frameData:
		return "DATA"
	case frameRST:
		return "RST_STREAM"
	case frameGoAway:
		return "GOAWAY"
	case framePing:
		return "PING"
	case FrameSettings:
		return "SETTINGS"
	case frameWindowUpdate:
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
	// flagEndStream on HEADERS or DATA half-closes the sender's direction.
	flagEndStream uint8 = 0x1
	// flagAck marks a PING response.
	flagAck uint8 = 0x2
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

// tunnelFrame is one wire frame.
type tunnelFrame struct {
	Type     frameType
	Flags    uint8
	streamID uint32
	Payload  []byte
}

// errFrameTooLarge is returned for frames exceeding maxFramePayload.
var errFrameTooLarge = errors.New("h2t: frame payload too large")

// appendFrameHeader appends the fixed wire header of a frame whose payload
// is n bytes long.
func appendFrameHeader(b []byte, t frameType, flags uint8, streamID uint32, n int) []byte {
	b = append(b, uint8(t), flags)
	b = binary.BigEndian.AppendUint32(b, streamID)
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// parseFrameHeader decodes a fixed wire header; n is the payload length
// that follows it.
func parseFrameHeader(hdr []byte) (f tunnelFrame, n int, err error) {
	f = tunnelFrame{
		Type:     frameType(hdr[0]),
		Flags:    hdr[1],
		streamID: binary.BigEndian.Uint32(hdr[2:6]),
	}
	size := binary.BigEndian.Uint32(hdr[6:10])
	if size > maxFramePayload {
		return tunnelFrame{}, 0, errFrameTooLarge
	}
	return f, int(size), nil
}

// ReadFrame parses one frame from r. The returned payload is freshly
// allocated and owned by the caller. (The session read loop parses frames
// out of its own read buffer instead; see Session.readFrame.)
func ReadFrame(r io.Reader) (tunnelFrame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return tunnelFrame{}, err
	}
	f, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return tunnelFrame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return tunnelFrame{}, err
		}
	}
	return f, nil
}

// Field is one name/value pair of a header block.
type Field struct{ Name, Value string }

// Fields is a header block in memory: its fields in wire order, names
// matched exactly. A block that was received is one copy of its payload,
// as a string, of which every Name and Value is a substring: nothing is
// copied per field, and the copy lives as long as any of them does.
type Fields []Field

// Get returns the value of the first field called name, or "".
func (f Fields) Get(name string) string {
	for i := range f {
		if f[i].Name == name {
			return f[i].Value
		}
	}
	return ""
}

// fieldsSize validates f and returns the length of its encoding.
func fieldsSize(f Fields) (int, error) {
	if len(f) > 0xffff {
		return 0, errors.New("h2t: too many headers")
	}
	size := 2
	for i := range f {
		if len(f[i].Name) > 0xffff || len(f[i].Value) > 0xffff {
			return 0, errors.New("h2t: header field too long")
		}
		size += 4 + len(f[i].Name) + len(f[i].Value)
	}
	return size, nil
}

// appendFields appends the encoding of a block that passed fieldsSize:
// u16 count, then length-prefixed name/value pairs.
func appendFields(buf []byte, f Fields) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f)))
	for i := range f {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(f[i].Name)))
		buf = append(buf, f[i].Name...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(f[i].Value)))
		buf = append(buf, f[i].Value...)
	}
	return buf
}

// decodeFields parses an encoded header block. The fields go into room,
// which is the caller's and empty, if it has the capacity and into a new
// slice if not; the result is never nil.
func decodeFields(room []Field, b []byte) (Fields, error) {
	if len(b) < 2 {
		return nil, errors.New("h2t: short header block")
	}
	n, s := int(binary.BigEndian.Uint16(b)), string(b[2:])
	if len(s) < 4*n {
		return nil, errors.New("h2t: truncated header block")
	}
	f := Fields(room)
	if f == nil || cap(f) < n {
		f = make(Fields, 0, n)
	}
	for i := 0; i < 2*n; i++ {
		if len(s) < 2 || len(s)-2 < int(s[0])<<8+int(s[1]) {
			return nil, errors.New("h2t: truncated header string")
		}
		end := 2 + int(s[0])<<8 + int(s[1])
		if i%2 == 0 {
			f = append(f, Field{Name: s[2:end]})
		} else {
			f[i/2].Value = s[2:end]
		}
		s = s[end:]
	}
	if s != "" {
		return nil, errors.New("h2t: trailing bytes in header block")
	}
	return f, nil
}

// EncodeHeaders serializes a header map, in no particular order. It and
// the other map-typed entry points (DecodeHeaders, Session.OpenStream,
// Stream.SendHeaders, Stream.Headers) are adapters over Fields kept for
// bench/probe, which names them; no request uses them.
func EncodeHeaders(h map[string]string) ([]byte, error) {
	var room [fieldsRoom]Field
	f := appendMap(room[:0], h)
	size, err := fieldsSize(f)
	if err != nil {
		return nil, err
	}
	return appendFields(make([]byte, 0, size), f), nil
}

// DecodeHeaders parses a header block into a map (the last of a repeated
// name).
func DecodeHeaders(b []byte) (map[string]string, error) {
	var room [fieldsRoom]Field
	f, err := decodeFields(room[:0], b)
	return f.toMap(), err
}

func appendMap(f Fields, h map[string]string) Fields {
	for k, v := range h {
		f = append(f, Field{k, v})
	}
	return f
}

func (f Fields) toMap() map[string]string {
	h := make(map[string]string, len(f))
	for i := range f {
		h[f[i].Name] = f[i].Value
	}
	return h
}
