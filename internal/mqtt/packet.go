// Package mqtt implements the subset of MQTT 3.1.1 the paper's
// publish/subscribe tier needs (§2.1, §4.2): CONNECT/CONNACK,
// PUBLISH/PUBACK (QoS 0 and 1), SUBSCRIBE/SUBACK, PINGREQ/PINGRESP and
// DISCONNECT, plus a broker that keeps per-user connection context and a
// client state machine.
//
// MQTT is the protocol the paper singles out as having no built-in
// disruption-avoidance: "MQTT does not have a built-in disruption
// avoidance support in case of Proxygen restarts and relies on client
// re-connects" — which is exactly why Downstream Connection Reuse exists.
// The broker here therefore implements the §4.2 server side: sessions are
// keyed by a globally unique user-id, the broker retains connection
// context, and a relay hand-over (re_connect) is accepted if and only if
// context for that user exists.
package mqtt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"zdr/internal/bufpool"
)

// PacketType is the MQTT control packet type (high nibble of byte 1).
type PacketType uint8

// MQTT 3.1.1 packet types (the supported subset).
const (
	CONNECT    PacketType = 1
	CONNACK    PacketType = 2
	PUBLISH    PacketType = 3
	PUBACK     PacketType = 4
	SUBSCRIBE  PacketType = 8
	SUBACK     PacketType = 9
	PINGREQ    PacketType = 12
	PINGRESP   PacketType = 13
	DISCONNECT PacketType = 14
)

// String returns the packet type name.
func (t PacketType) String() string {
	switch t {
	case CONNECT:
		return "CONNECT"
	case CONNACK:
		return "CONNACK"
	case PUBLISH:
		return "PUBLISH"
	case PUBACK:
		return "PUBACK"
	case SUBSCRIBE:
		return "SUBSCRIBE"
	case SUBACK:
		return "SUBACK"
	case PINGREQ:
		return "PINGREQ"
	case PINGRESP:
		return "PINGRESP"
	case DISCONNECT:
		return "DISCONNECT"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
	}
}

// CONNACK return codes.
const (
	ConnAccepted          uint8 = 0
	ConnRefusedIDRejected uint8 = 2
	ConnRefusedUnavail    uint8 = 3
)

// Packet is a decoded MQTT control packet. Only fields relevant to the
// packet's type are populated.
type Packet struct {
	Type PacketType

	// CONNECT
	ClientID  string
	KeepAlive uint16 // seconds
	// CleanSession, when false, asks the broker to resume existing
	// session state — the property DCR relies on.
	CleanSession bool
	// Properties are optional key/value pairs appended after the
	// ClientID in the CONNECT payload (carrying e.g. the x-zdr-trace
	// context). Decoders that predate the extension ignore the trailing
	// bytes, so the wire stays compatible in both directions.
	Properties map[string]string

	// CONNACK
	SessionPresent bool
	ReturnCode     uint8

	// PUBLISH / PUBACK / SUBSCRIBE / SUBACK
	Topic    string
	Payload  []byte
	QoS      uint8
	PacketID uint16
	// SUBSCRIBE
	TopicFilters []string
	// SUBACK
	GrantedQoS []uint8
}

const protocolName = "MQTT"
const protocolLevel = 4 // MQTT 3.1.1

// maxRemainingLength bounds packet size (1 MiB; the spec allows 256 MiB).
const maxRemainingLength = 1 << 20

var errMalformed = errors.New("mqtt: malformed packet")

// remainingLength returns the MQTT variable-length encoding of n, which
// must not exceed maxRemainingLength, and how many bytes of it are used.
func remainingLength(n int) (enc [4]byte, digits int) {
	for {
		b := byte(n % 128)
		if n /= 128; n > 0 {
			b |= 0x80
		}
		enc[digits] = b
		digits++
		if n == 0 {
			return enc, digits
		}
	}
}

// readByte reads one byte of r, through its ReadByte when it has one: a
// buffered reader does, and so costs no call per byte.
func readByte(r io.Reader) (byte, error) {
	if br, ok := r.(io.ByteReader); ok {
		return br.ReadByte()
	}
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}

// fixedHeader parses the fixed header at the front of b: its length and
// the packet's remaining length in the variable-length encoding. hdr is 0
// while the header is not all there.
func fixedHeader(b []byte) (hdr, n int, err error) {
	mul := 1
	for i := 1; i < fixedHeaderMax; i++ {
		if i >= len(b) {
			return 0, 0, nil
		}
		n += int(b[i]&0x7f) * mul
		if b[i]&0x80 == 0 {
			if n > maxRemainingLength {
				return 0, 0, fmt.Errorf("%w: remaining length %d too large", errMalformed, n)
			}
			return i + 1, n, nil
		}
		mul *= 128
	}
	return 0, 0, fmt.Errorf("%w: remaining length overlong", errMalformed)
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func takeString(b []byte) (string, []byte, error) {
	s, rest, err := takeBytes(b)
	return string(s), rest, err
}

// takeBytes is takeString without the copy: s aliases b.
func takeBytes(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, errMalformed
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if len(b) < n {
		return nil, nil, errMalformed
	}
	return b[:n], b[n:], nil
}

// fixedHeaderMax is the longest fixed header: the type byte and up to
// four bytes of remaining length.
const fixedHeaderMax = 5

// Encode serializes p to w in one Write. The packet is built in a pooled
// buffer with room for the fixed header left in front of the body, so the
// header is filled in once the body's length is known and nothing is
// copied a second time.
func Encode(w io.Writer, p *Packet) error {
	// Sized for everything but an unusual CONNECT or SUBSCRIBE, which
	// append grows past the pooled buffer.
	bp := bufpool.Get(fixedHeaderMax + 64 + len(p.ClientID) + len(p.Topic) + len(p.Payload))
	defer bufpool.Put(bp)
	b, start, err := build((*bp)[:0], p)
	if err != nil {
		return err
	}
	_, err = w.Write(b[start:])
	return err
}

// appendPacket appends p's wire form to b, which other packets may fill:
// the few bytes the fixed header left unused in front of it are closed up.
func appendPacket(b []byte, p *Packet) ([]byte, error) {
	end := len(b)
	out, start, err := build(b, p)
	if err != nil {
		return b, err
	}
	return out[:end+copy(out[end:], out[start:])], nil
}

// build appends to b the longest fixed header's worth of room and p's
// body behind it, and fills the header in right against the body: the
// packet is b[start:].
func build(b []byte, p *Packet) (out []byte, start int, err error) {
	room := len(b)
	var header [fixedHeaderMax]byte
	body := append(b, header[:]...)
	fixedFlags := uint8(0)
	switch p.Type {
	case CONNECT:
		if len(p.ClientID) > 0xffff {
			return nil, 0, fmt.Errorf("mqtt: client id too long")
		}
		body = appendString(body, protocolName)
		body = append(body, protocolLevel)
		var connectFlags uint8
		if p.CleanSession {
			connectFlags |= 0x02
		}
		body = append(body, connectFlags)
		body = binary.BigEndian.AppendUint16(body, p.KeepAlive)
		body = appendString(body, p.ClientID)
		if len(p.Properties) > 0 {
			keys := make([]string, 0, len(p.Properties))
			for k := range p.Properties {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			body = binary.BigEndian.AppendUint16(body, uint16(len(keys)))
			for _, k := range keys {
				body = appendString(body, k)
				body = appendString(body, p.Properties[k])
			}
		}
	case CONNACK:
		var sp uint8
		if p.SessionPresent {
			sp = 1
		}
		body = append(body, sp, p.ReturnCode)
	case PUBLISH:
		fixedFlags = p.QoS << 1
		body = appendString(body, p.Topic)
		if p.QoS > 0 {
			body = binary.BigEndian.AppendUint16(body, p.PacketID)
		}
		body = append(body, p.Payload...)
	case PUBACK:
		body = binary.BigEndian.AppendUint16(body, p.PacketID)
	case SUBSCRIBE:
		fixedFlags = 0x2 // reserved bits per spec
		body = binary.BigEndian.AppendUint16(body, p.PacketID)
		for _, f := range p.TopicFilters {
			body = appendString(body, f)
			body = append(body, p.QoS)
		}
	case SUBACK:
		body = binary.BigEndian.AppendUint16(body, p.PacketID)
		body = append(body, p.GrantedQoS...)
	case PINGREQ, PINGRESP, DISCONNECT:
		// no body
	default:
		return nil, 0, fmt.Errorf("mqtt: cannot encode packet type %v", p.Type)
	}
	n := len(body) - room - fixedHeaderMax
	if n > maxRemainingLength {
		return nil, 0, fmt.Errorf("mqtt: remaining length %d out of range", n)
	}
	// The type byte, then the remaining length in the MQTT variable-length
	// encoding.
	rl, digits := remainingLength(n)
	start = room + fixedHeaderMax - 1 - digits
	body[start] = byte(p.Type)<<4 | fixedFlags
	copy(body[start+1:], rl[:digits])
	return body, start, nil
}

// Decode parses one packet from r into memory of its own.
func Decode(r io.Reader) (*Packet, error) {
	return (&decoder{r: r}).next()
}

// decoder parses the packets of one connection into memory it reuses: the
// Packet next and take return, and the Payload and GrantedQoS inside it,
// are valid until the next call. Strings are copies and may be kept.
type decoder struct {
	r   io.Reader // of next
	pkt Packet
	// topic is the last PUBLISH's: a publisher repeats its topics, and a
	// repeated one costs a comparison, not a string.
	topic string
}

// next reads one packet from d.r into a body of its own, the fixed header
// byte by byte until fixedHeader has all of it.
func (d *decoder) next() (*Packet, error) {
	var header [fixedHeaderMax]byte
	hdr, n := 0, 0
	for i := 0; hdr == 0; i++ {
		c, err := readByte(d.r)
		if err != nil {
			return nil, err
		}
		header[i] = c
		if hdr, n, err = fixedHeader(header[:i+1]); err != nil {
			return nil, err
		}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, err
	}
	return d.parse(header[0], body)
}

// take is next for a caller that holds the connection's bytes itself: it
// parses the packet at the front of b, whose Payload and GrantedQoS then
// alias b, and returns its length on the wire. A packet that is not all
// there is no error: n is 0, "not yet".
func (d *decoder) take(b []byte) (p *Packet, n int, err error) {
	hdr, n, err := fixedHeader(b)
	if err != nil || hdr == 0 || len(b) < hdr+n {
		return nil, 0, err
	}
	p, err = d.parse(b[0], b[hdr:hdr+n])
	return p, hdr + n, err
}

// parse decodes a packet's body behind the first byte of its header.
func (d *decoder) parse(first byte, body []byte) (*Packet, error) {
	ptype := PacketType(first >> 4)
	flags := first & 0x0f
	d.pkt = Packet{Type: ptype}
	p := &d.pkt
	var err error
	switch ptype {
	case CONNECT:
		name, rest, err := takeString(body)
		if err != nil || name != protocolName {
			return nil, fmt.Errorf("%w: bad protocol name", errMalformed)
		}
		if len(rest) < 4 {
			return nil, errMalformed
		}
		if rest[0] != protocolLevel {
			return nil, fmt.Errorf("%w: protocol level %d", errMalformed, rest[0])
		}
		p.CleanSession = rest[1]&0x02 != 0
		p.KeepAlive = binary.BigEndian.Uint16(rest[2:4])
		var trailer []byte
		p.ClientID, trailer, err = takeString(rest[4:])
		if err != nil {
			return nil, err
		}
		p.Properties = decodeConnectProperties(trailer)
	case CONNACK:
		if len(body) != 2 {
			return nil, errMalformed
		}
		p.SessionPresent = body[0]&1 != 0
		p.ReturnCode = body[1]
	case PUBLISH:
		p.QoS = (flags >> 1) & 0x3
		if p.QoS > 1 {
			return nil, fmt.Errorf("mqtt: QoS %d unsupported", p.QoS)
		}
		topic, rest, err := takeBytes(body)
		if err != nil {
			return nil, err
		}
		if string(topic) != d.topic {
			d.topic = string(topic)
		}
		p.Topic = d.topic
		if p.QoS > 0 {
			if len(rest) < 2 {
				return nil, errMalformed
			}
			p.PacketID = binary.BigEndian.Uint16(rest[:2])
			rest = rest[2:]
		}
		p.Payload = rest
	case PUBACK:
		if len(body) != 2 {
			return nil, errMalformed
		}
		p.PacketID = binary.BigEndian.Uint16(body)
	case SUBSCRIBE:
		if len(body) < 2 {
			return nil, errMalformed
		}
		p.PacketID = binary.BigEndian.Uint16(body[:2])
		rest := body[2:]
		for len(rest) > 0 {
			var f string
			f, rest, err = takeString(rest)
			if err != nil {
				return nil, err
			}
			if len(rest) < 1 {
				return nil, errMalformed
			}
			p.QoS = rest[0]
			rest = rest[1:]
			p.TopicFilters = append(p.TopicFilters, f)
		}
		if len(p.TopicFilters) == 0 {
			return nil, fmt.Errorf("%w: SUBSCRIBE without filters", errMalformed)
		}
	case SUBACK:
		if len(body) < 2 {
			return nil, errMalformed
		}
		p.PacketID = binary.BigEndian.Uint16(body[:2])
		p.GrantedQoS = body[2:]
	case PINGREQ, PINGRESP, DISCONNECT:
		if len(body) != 0 {
			return nil, errMalformed
		}
	default:
		return nil, fmt.Errorf("mqtt: unknown packet type %d", ptype)
	}
	return p, nil
}

// decodeConnectProperties parses the optional key/value trailer after the
// ClientID. Best-effort: a trailer this decoder does not understand is
// ignored (it may belong to a future extension), never an error.
func decodeConnectProperties(b []byte) map[string]string {
	if len(b) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	props := make(map[string]string, n)
	for i := 0; i < n; i++ {
		var k, v string
		var err error
		if k, b, err = takeString(b); err != nil {
			return nil
		}
		if v, b, err = takeString(b); err != nil {
			return nil
		}
		props[k] = v
	}
	if len(props) == 0 {
		return nil
	}
	return props
}

// TopicMatches reports whether topic matches filter, honouring the MQTT
// wildcards "+" (one level) and "#" (remaining levels, last position only).
func TopicMatches(filter, topic string) bool {
	fi, ti := 0, 0
	for {
		fSeg, fRest, fMore := nextSegment(filter, fi)
		tSeg, tRest, tMore := nextSegment(topic, ti)
		switch fSeg {
		case "#":
			return true
		case "+":
			// matches exactly one level
		default:
			if fSeg != tSeg {
				return false
			}
		}
		if !fMore && !tMore {
			return true
		}
		if fMore != tMore {
			// One side has more levels. "a/#" also matches "a".
			if fMore {
				seg, _, more := nextSegment(filter, fRest)
				return seg == "#" && !more
			}
			return false
		}
		fi, ti = fRest, tRest
	}
}

// nextSegment returns the topic level starting at i, the index after its
// separator, and whether more levels follow.
func nextSegment(s string, i int) (seg string, next int, more bool) {
	for j := i; j < len(s); j++ {
		if s[j] == '/' {
			return s[i:j], j + 1, true
		}
	}
	return s[i:], len(s), false
}
