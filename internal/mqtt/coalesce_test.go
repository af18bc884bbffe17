package mqtt

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"
)

// countWriter counts the Write calls made on it and keeps the bytes of
// the last one.
type countWriter struct {
	writes int
	last   []byte
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// allPackets is one packet of every type the codec encodes, with the
// remaining length on either side of each of its width steps.
func allPackets() []*Packet {
	return []*Packet{
		{Type: CONNECT, ClientID: "user-42", keepAlive: 30, CleanSession: true},
		{Type: CONNECT, ClientID: "u", Properties: map[string]string{"x-zdr-trace": "00f0-1"}},
		{Type: CONNACK, SessionPresent: true},
		{Type: PUBLISH, Topic: "t", Payload: []byte("hello")},
		{Type: PUBLISH, Topic: "t", Payload: bytes.Repeat([]byte("a"), 127-3)}, // remaining length 127: one byte
		{Type: PUBLISH, Topic: "t", Payload: bytes.Repeat([]byte("b"), 128-3)}, // 128: two bytes
		{Type: PUBLISH, Topic: "t", Payload: bytes.Repeat([]byte("c"), 16384), QoS: 1, PacketID: 9},
		{Type: PUBLISH, Topic: "t", Payload: bytes.Repeat([]byte("d"), 300<<10)}, // past every pooled tier
		{Type: PUBACK, PacketID: 9},
		{Type: SUBSCRIBE, PacketID: 3, TopicFilters: []string{"a/+/c", "#"}},
		{Type: SUBACK, PacketID: 3, grantedQoS: []uint8{0, 0}},
		{Type: PINGREQ},
		{Type: pingresp},
		{Type: disconnect},
	}
}

// TestEncodeIsOneWrite: every packet reaches the transport in exactly one
// Write, and what that Write carries decodes back to the packet.
func TestEncodeIsOneWrite(t *testing.T) {
	for _, p := range allPackets() {
		var w countWriter
		if err := Encode(&w, p); err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if w.writes != 1 {
			t.Fatalf("%v (%d payload bytes) took %d writes, want 1", p.Type, len(p.Payload), w.writes)
		}
		got, err := Decode(bytes.NewReader(w.last))
		if err != nil {
			t.Fatalf("%v: decoding what was written: %v", p.Type, err)
		}
		if got.Type != p.Type || got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) || got.PacketID != p.PacketID {
			t.Fatalf("%v round trip: got %+v", p.Type, got)
		}
	}
}

// twoPart delivers a then b, one per Read, then EOF: a packet that arrived
// split across two segments.
type twoPart struct{ a, b []byte }

func (r *twoPart) Read(p []byte) (int, error) {
	if len(r.a) == 0 {
		r.a, r.b = r.b, nil
	}
	if len(r.a) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.a)
	r.a = r.a[n:]
	return n, nil
}

// TestDecodeAcrossEverySplit: through a connection's buffered reader, a
// packet split across two segments at any byte boundary decodes to the
// same packet, and the packet behind it in the same segment is the next
// one decoded.
func TestDecodeAcrossEverySplit(t *testing.T) {
	next := &Packet{Type: PUBACK, PacketID: 77}
	for _, p := range allPackets() {
		if len(p.Payload) > 1<<10 {
			continue // every boundary of the small ones is enough
		}
		var wire bytes.Buffer
		Encode(&wire, p)
		want, err := Decode(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		first := wire.Len()
		Encode(&wire, next)
		for cut := 0; cut <= first; cut++ {
			br := bufio.NewReader(&twoPart{a: wire.Bytes()[:cut], b: wire.Bytes()[cut:]})
			got, err := Decode(br)
			if err != nil {
				t.Fatalf("%v cut at %d of %d: %v", p.Type, cut, first, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v cut at %d: got %+v want %+v", p.Type, cut, got, want)
			}
			if got, err := Decode(br); err != nil || got.Type != PUBACK || got.PacketID != 77 {
				t.Fatalf("%v cut at %d: packet behind it = %+v, %v", p.Type, cut, got, err)
			}
		}
	}
}

// rawSession connects a hand-driven client to the broker at addr and
// subscribes it to its own topic.
func rawSession(t *testing.T, addr, id string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	expect := func(typ PacketType) {
		t.Helper()
		if p, err := Decode(br); err != nil || p.Type != typ {
			t.Fatalf("waiting for %v: %+v, %v", typ, p, err)
		}
	}
	Encode(conn, &Packet{Type: CONNECT, ClientID: id, CleanSession: true})
	expect(CONNACK)
	Encode(conn, &Packet{Type: SUBSCRIBE, PacketID: 1, TopicFilters: []string{"own/" + id}})
	expect(SUBACK)
	return conn, br
}

// collect reads packets until it has seen the wanted number of PUBACKs
// and deliveries, and returns the delivered payloads in order.
func collect(t *testing.T, br *bufio.Reader, acks, deliveries int) []string {
	t.Helper()
	var got []string
	for acks > 0 || deliveries > 0 {
		p, err := Decode(br)
		if err != nil {
			t.Fatalf("still waiting for %d PUBACKs and %d deliveries: %v", acks, deliveries, err)
		}
		switch p.Type {
		case PUBACK:
			acks--
		case PUBLISH:
			deliveries--
			got = append(got, string(p.Payload))
		}
	}
	return got
}

// TestBrokerHandlesEverythingOneSegmentBrought: two PUBLISH packets sent
// in one write are both served before the connection waits again. Once a
// read has taken them out of the kernel no readiness edge will ever
// mention the second, so a handler that served one packet per wake would
// sit on it for ever.
func TestBrokerHandlesEverythingOneSegmentBrought(t *testing.T) {
	_, addr := startBroker(t)
	conn, br := rawSession(t, addr, "pair")
	var seg bytes.Buffer
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "own/pair", Payload: []byte("one"), QoS: 1, PacketID: 10})
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "own/pair", Payload: []byte("two"), QoS: 1, PacketID: 11})
	if _, err := conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, br, 2, 2); !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Fatalf("delivered %q, want one then two", got)
	}
	// The connection waits with nothing left behind: it still answers.
	Encode(conn, &Packet{Type: PINGREQ})
	if p, err := Decode(br); err != nil || p.Type != pingresp {
		t.Fatalf("after the pair: %+v, %v", p, err)
	}
}

// TestBrokerPacketsBehindConnect: packets pipelined behind the CONNECT are
// read with it during the handshake; they are served before the
// connection waits for the first time.
func TestBrokerPacketsBehindConnect(t *testing.T) {
	_, addr := startBroker(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var seg bytes.Buffer
	Encode(&seg, &Packet{Type: CONNECT, ClientID: "eager", CleanSession: true})
	Encode(&seg, &Packet{Type: SUBSCRIBE, PacketID: 1, TopicFilters: []string{"own/eager"}})
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "own/eager", Payload: []byte("early"), QoS: 1, PacketID: 2})
	if _, err := conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for _, want := range []PacketType{CONNACK, SUBACK} {
		if p, err := Decode(br); err != nil || p.Type != want {
			t.Fatalf("waiting for %v: %+v, %v", want, p, err)
		}
	}
	if got := collect(t, br, 1, 1); !reflect.DeepEqual(got, []string{"early"}) {
		t.Fatalf("delivered %q", got)
	}
}

// TestBrokerSplitPacket: a PUBLISH that reaches the broker in two writes,
// cut at each of a spread of boundaries, is served once.
func TestBrokerSplitPacket(t *testing.T) {
	_, addr := startBroker(t)
	conn, br := rawSession(t, addr, "split")
	var wire bytes.Buffer
	Encode(&wire, &Packet{Type: PUBLISH, Topic: "own/split", Payload: bytes.Repeat([]byte("s"), 200), QoS: 1, PacketID: 5})
	for _, cut := range []int{1, 2, 3, 4, 13, 14, 100, wire.Len() - 1} {
		if _, err := conn.Write(wire.Bytes()[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire.Bytes()[cut:]); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, br, 1, 1); len(got) != 1 || len(got[0]) != 200 {
			t.Fatalf("cut at %d: delivered %d messages", cut, len(got))
		}
	}
}

// ranOut reports whether a reader-fed decode failed only because its
// input ended: what the slice-fed decoder calls "not yet".
func ranOut(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }

// sameVerdict reports whether the two decoders made the same of the same
// bytes: the same packet of the same length, or the same refusal.
func sameVerdict(p *Packet, n int, err error, q *Packet, m int, qerr error) bool {
	if err != nil || qerr != nil {
		return err != nil && qerr != nil && err.Error() == qerr.Error()
	}
	return n == m && reflect.DeepEqual(p, q)
}

// FuzzDecode throws bytes at the packet decoder, the trace-properties
// trailer of CONNECT included, and holds its two entries to each other.
// It must never panic; what it accepts must survive its own encoder
// (decode, encode, decode gives the same packet); through a connection's
// buffered reader the answer must not depend on where the bytes were cut
// into reads, nor on whether the decoder reuses its memory; and the
// slice-fed entry a broker connection parses through (take) must make of
// every input what Decode makes of it from a reader — the same packets,
// the same lengths consumed, the same errors — whole, cut at every offset
// and cut many ways by a generator seeded with cut, where a cut is never
// an error, only "not yet". The seed corpus is testdata/fuzz/FuzzDecode,
// one file per case, named for it.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		rd := bytes.NewReader(data)
		whole, err := Decode(rd)
		used := len(data) - rd.Len()
		at := int(cut) % (len(data) + 1)
		split, splitErr := Decode(bufio.NewReader(&twoPart{a: data[:at], b: data[at:]}))
		if (err == nil) != (splitErr == nil) || !reflect.DeepEqual(whole, split) {
			t.Fatalf("cut at %d of %d bytes: %+v, %v; uncut: %+v, %v", at, len(data), split, splitErr, whole, err)
		}

		// The slice-fed entry on the same bytes: not yet where the reader
		// ran out, else the reader's verdict; and on every prefix either
		// not yet or, from the first byte that settles it on, that verdict.
		var dec decoder
		settled := false
		for k := 0; k <= len(data); k++ {
			p, n, perr := dec.take(data[:k])
			switch {
			case p == nil && n == 0 && perr == nil:
				if settled {
					t.Fatalf("%d bytes settled it and %d are not enough", k-1, k)
				}
			case ranOut(err) || !sameVerdict(p, n, perr, whole, used, err):
				t.Fatalf("take(%d of %d bytes) = %+v, %d, %v; Decode: %+v, %d, %v", k, len(data), p, n, perr, whole, used, err)
			default:
				settled = true
			}
		}
		if !settled && !ranOut(err) {
			t.Fatalf("take never settled what Decode did: %+v, %v", whole, err)
		}

		// Every packet of the input, as a connection meets them: read in
		// pieces behind what the last read left unparsed.
		rd.Reset(data)
		rng := rand.New(rand.NewSource(int64(cut)))
		var buf []byte
		dec = decoder{}
		for fed, r := 0, 0; ; {
			want, werr := Decode(rd)
			wantUsed := len(data) - rd.Len()
			var p *Packet
			var n int
			var perr error
			for {
				if p, n, perr = dec.take(buf[r:]); p != nil || perr != nil || fed == len(data) {
					break
				}
				piece := 1 + rng.Intn(len(data)-fed)
				buf = append(buf[:copy(buf, buf[r:])], data[fed:fed+piece]...)
				fed, r = fed+piece, 0
			}
			if ranOut(werr) {
				if p != nil || perr != nil {
					t.Fatalf("in pieces: %+v, %v where the reader ran out", p, perr)
				}
				break
			}
			r += n
			if !sameVerdict(p, fed-len(buf)+r, perr, want, wantUsed, werr) {
				t.Fatalf("in pieces: %+v, %v ending at %d; Decode: %+v, %v ending at %d", p, perr, fed-len(buf)+r, want, werr, wantUsed)
			}
			if werr != nil {
				break
			}
		}

		if err != nil {
			return
		}
		// A connection's decoder, which reuses its memory, reads the same
		// packet — also the second time, over what the first left behind.
		one := data[:used]
		dec = decoder{r: io.MultiReader(bytes.NewReader(one), bytes.NewReader(one))}
		for i := 0; i < 2; i++ {
			if got, err := dec.next(); err != nil || !reflect.DeepEqual(got, whole) {
				t.Fatalf("reusing decoder, packet %d: %+v, %v; Decode: %+v", i+1, got, err, whole)
			}
		}
		var again bytes.Buffer
		if err := Encode(&again, whole); err != nil {
			t.Fatalf("re-encoding %+v: %v", whole, err)
		}
		back, err := Decode(&again)
		if err != nil {
			t.Fatalf("decoding the re-encoding of %+v: %v", whole, err)
		}
		if !reflect.DeepEqual(back, whole) {
			t.Fatalf("decode, encode, decode:\n first %+v\nsecond %+v", whole, back)
		}
	})
}
