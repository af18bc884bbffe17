package mqtt

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"zdr/internal/racetest"
)

// TestReusedPacketDoesNotAlias: a goroutine-per-connection broker decodes every packet of a
// connection into one Packet and one body buffer. Two publishes that one
// read brought are both delivered as sent — the second, decoded over the
// first, changes nothing that was delivered — and a decoder's strings
// outlive the packet they came in.
func TestReusedPacketDoesNotAlias(t *testing.T) {
	_, addr := startBroker(t)
	conn, br := rawSession(t, addr, "alias")
	first, second := bytes.Repeat([]byte("first-"), 40), []byte("2nd")
	var seg bytes.Buffer
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "own/alias", Payload: first, QoS: 1, PacketID: 10})
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "own/alias", Payload: second, QoS: 1, PacketID: 11})
	if _, err := conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, br, 2, 2); !reflect.DeepEqual(got, []string{string(first), string(second)}) {
		t.Fatalf("delivered %q", got)
	}

	seg.Reset()
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "topic/a", Payload: first})
	Encode(&seg, &Packet{Type: SUBSCRIBE, PacketID: 2, TopicFilters: []string{"filter/b"}})
	Encode(&seg, &Packet{Type: PUBLISH, Topic: "topic/c", Payload: second})
	dec := decoder{r: &seg}
	p, err := dec.next()
	if err != nil {
		t.Fatal(err)
	}
	topic := p.Topic
	if p, err = dec.next(); err != nil {
		t.Fatal(err)
	}
	filters := p.TopicFilters
	if p, err = dec.next(); err != nil || p.Topic != "topic/c" || !bytes.Equal(p.Payload, second) {
		t.Fatalf("third packet %+v, %v", p, err)
	}
	if topic != "topic/a" || !reflect.DeepEqual(filters, []string{"filter/b"}) {
		t.Fatalf("after two more packets the first's topic reads %q and the second's filters %q", topic, filters)
	}
}

// TestBrokerPublishAllocations: a QoS 1 publish on a live connection —
// decoded, matched, delivered back and acknowledged — allocates nothing
// in the broker (a body, a Packet, a topic string and a slice of
// sessions, before the connection kept a decoder).
func TestBrokerPublishAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	_, addr := startBroker(t)
	conn, br := rawSession(t, addr, "budget")
	var pub, reply bytes.Buffer
	payload := make([]byte, 128)
	Encode(&pub, &Packet{Type: PUBLISH, Topic: "own/budget", Payload: payload, QoS: 1, PacketID: 7})
	Encode(&reply, &Packet{Type: PUBLISH, Topic: "own/budget", Payload: payload})
	Encode(&reply, &Packet{Type: PUBACK, PacketID: 7})
	got := make([]byte, reply.Len())
	exchange := func() {
		if _, err := conn.Write(pub.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(br, got); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if !bytes.Equal(got, reply.Bytes()) {
		t.Fatalf("the broker answered %x, want %x", got, reply.Bytes())
	}
	if n := testing.AllocsPerRun(500, exchange); n != 0 {
		t.Fatalf("%v allocations per publish, want 0", n)
	}
}
