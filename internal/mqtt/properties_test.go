package mqtt

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

func TestConnectPropertiesRoundTrip(t *testing.T) {
	p := &Packet{
		Type:         CONNECT,
		ClientID:     "user-1",
		CleanSession: true,
		keepAlive:    30,
		Properties: map[string]string{
			"x-zdr-trace": "zdr1-0123456789abcdef-fedcba9876543210",
			"other":       "value",
		},
	}
	got := roundTrip(t, p)
	if !reflect.DeepEqual(got.Properties, p.Properties) {
		t.Fatalf("properties = %v, want %v", got.Properties, p.Properties)
	}
	if got.ClientID != "user-1" || !got.CleanSession || got.keepAlive != 30 {
		t.Fatalf("base CONNECT fields corrupted: %+v", got)
	}
}

func TestConnectWithoutPropertiesStaysBareOnTheWire(t *testing.T) {
	// A property-less CONNECT must encode exactly as before the extension
	// (no trailer at all), so old decoders see nothing new.
	var buf bytes.Buffer
	if err := Encode(&buf, &Packet{Type: CONNECT, ClientID: "id"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Variable header (10 bytes) + client id (2+2). The payload ends right
	// after the ClientID string.
	wantLen := 2 + 10 + 2 + len("id")
	if len(raw) != wantLen {
		t.Fatalf("bare CONNECT is %d bytes, want %d (trailer leaked)", len(raw), wantLen)
	}
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Properties != nil {
		t.Fatalf("bare CONNECT decoded properties %v", got.Properties)
	}
}

func TestConnectPropertiesEncodingIsDeterministic(t *testing.T) {
	p := &Packet{Type: CONNECT, ClientID: "c", Properties: map[string]string{
		"b": "2", "a": "1", "c": "3",
	}}
	var first bytes.Buffer
	if err := Encode(&first, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := Encode(&again, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatal("CONNECT properties encode nondeterministically (map iteration order leaked)")
		}
	}
}

func TestConnectMalformedTrailerIgnored(t *testing.T) {
	// A trailer that is not a valid property block is discarded, not an
	// error — it may belong to a future extension this decoder predates.
	var buf bytes.Buffer
	if err := Encode(&buf, &Packet{Type: CONNECT, ClientID: "id"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Claim 3 properties but provide none.
	trailer := binary.BigEndian.AppendUint16(nil, 3)
	raw = append(raw, trailer...)
	raw[1] += byte(len(trailer)) // fix remaining length (still single byte here)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("malformed trailer rejected: %v", err)
	}
	if got.Properties != nil {
		t.Fatalf("malformed trailer produced properties %v", got.Properties)
	}
}

// TestClientConnectPropertyReachesBroker drives the property through the
// real client/broker handshake: the broker's CONNECT decode must surface
// what the client attached.
func TestClientConnectPropertyReachesBroker(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()

	got := make(chan map[string]string, 1)
	go func() {
		p, err := Decode(srv)
		if err != nil {
			got <- nil
			return
		}
		Encode(srv, &Packet{Type: CONNACK, ReturnCode: ConnAccepted})
		got <- p.Properties
		io.Copy(io.Discard, srv) // keep the pipe drained so Disconnect's write completes
	}()

	c := NewClient(cli, "user-9", true)
	c.SetConnectProperty("x-zdr-trace", "zdr1-00000000000000aa-00000000000000bb")
	if _, err := c.Connect(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	props := <-got
	if props["x-zdr-trace"] != "zdr1-00000000000000aa-00000000000000bb" {
		t.Fatalf("broker saw properties %v", props)
	}
}
