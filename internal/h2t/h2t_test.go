package h2t

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func sessionPair(t *testing.T) (client, server *Session) {
	t.Helper()
	cc, sc := net.Pipe()
	client = NewSession(cc, true)
	server = NewSession(sc, false)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: FrameData, Flags: FlagEndStream, StreamID: 7, Payload: []byte("payload")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Flags != in.Flags || out.StreamID != in.StreamID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameData, Payload: make([]byte, maxFramePayload+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameGoAway.String() != "GOAWAY" || FrameType(0xee).String() == "" {
		t.Fatal("String() broken")
	}
}

// codec runs a block through the wire form and back.
func codec(t testing.TB, in Fields) Fields {
	t.Helper()
	size, err := fieldsSize(in)
	if err != nil {
		t.Fatal(err)
	}
	b := appendFields(nil, in)
	if len(b) != size {
		t.Fatalf("fieldsSize = %d for a %d-byte block", size, len(b))
	}
	out, err := decodeFields(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFieldsRoundTrip(t *testing.T) {
	in := Fields{{":method", "POST"}, {":path", "/up"}, {"user-id", "u-42"}, {"empty", ""}, {"", "nameless"}, {"set-cookie", "a"}, {"set-cookie", "b"}}
	if out := codec(t, in); !reflect.DeepEqual(in, out) {
		t.Fatalf("%v != %v", out, in)
	}
	if out := codec(t, Fields{}); out == nil || len(out) != 0 {
		t.Fatalf("empty block decoded as %#v", out)
	}
	if in.Get("set-cookie") != "a" || in.Get("Set-Cookie") != "" || in.Get("empty") != "" {
		t.Fatal("Get is not first exact match")
	}
	// A block that fits the room given is decoded into it, one that does
	// not leaves it alone.
	var room [3]Field
	if out, _ := decodeFields(room[:0], appendFields(nil, in[:3])); &out[0] != &room[0] {
		t.Fatal("a block that fits was not decoded into the room")
	}
	room = [3]Field{}
	if out, _ := decodeFields(room[:0], appendFields(nil, in)); len(out) != len(in) || room[0] != (Field{}) {
		t.Fatal("a block that does not fit touched the room")
	}
}

// TestHeadersFrameGolden: the bytes of an opening message as recorded at
// the commit before header blocks became Fields — frame header with the
// session's one FlagWindow, u16 count, u16-length-prefixed names and
// values, then the DATA frame. The first case is that commit's output for
// a one-entry map (a map of more has no one order); the second block is
// bytes that commit's DecodeHeaders was checked to read as these fields.
func TestHeadersFrameGolden(t *testing.T) {
	for _, c := range []struct {
		hdr  Fields
		want string
	}{
		{Fields{{":path", "/dyn/64"}},
			"\x01\x04\x00\x00\x00\x01\x00\x00\x00\x12\x00\x01\x00\x05:path\x00\a/dyn/64" +
				"\x02\x01\x00\x00\x00\x01\x00\x00\x00\x02hi"},
		{Fields{{":method", "GET"}, {":path", "/dyn/64"}, {"content-length", "0"}},
			"\x01\x04\x00\x00\x00\x01\x00\x00\x00\x33" +
				"\x00\x03\x00\x07:method\x00\x03GET\x00\x05:path\x00\x07/dyn/64\x00\x0econtent-length\x00\x010" +
				"\x02\x01\x00\x00\x00\x01\x00\x00\x00\x02hi"},
	} {
		cc, raw := net.Pipe()
		client := NewSession(cc, true)
		got := make(chan string, 1)
		go func() {
			buf := make([]byte, len(c.want))
			n, _ := io.ReadFull(raw, buf)
			got <- string(buf[:n])
		}()
		if _, err := client.OpenStreamWith(c.hdr, []byte("hi"), true); err != nil {
			t.Fatal(err)
		}
		if got := <-got; got != c.want {
			t.Errorf("opening message\n got %q\nwant %q", got, c.want)
		}
		client.Close()
	}
}

// The map-typed entry points are adapters over Fields.
func TestHeaderMapAdapters(t *testing.T) {
	in := map[string]string{":method": "POST", ":path": "/up", "user-id": "u-42", "empty": ""}
	b, err := EncodeHeaders(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHeaders(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("%v != %v", out, in)
	}
	client, server := sessionPair(t)
	st, err := client.OpenStream(in, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got := sst.Headers(); !reflect.DeepEqual(got, in) {
		t.Fatalf("accepted with %v, opened with %v", got, in)
	}
	if err := sst.SendHeaders(map[string]string{"status": "200"}, true); err != nil {
		t.Fatal(err)
	}
	if h, err := st.RecvHeaders(2 * time.Second); err != nil || h.Get("status") != "200" {
		t.Fatalf("response headers = %v, %v", h, err)
	}
}

func TestHeaderCodecProperty(t *testing.T) {
	f := func(m map[string]string) bool {
		for k, v := range m {
			if len(k) > 0xffff || len(v) > 0xffff {
				return true // skip oversize inputs
			}
		}
		b, err := EncodeHeaders(m)
		if err != nil {
			return false
		}
		out, err := DecodeHeaders(b)
		if err != nil {
			return false
		}
		if m == nil {
			return len(out) == 0
		}
		return reflect.DeepEqual(m, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderCodecRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0}, {0, 5, 1}, {0, 1, 0, 3, 'a'}, {0xff, 0xff}, {0, 1, 0, 1, 'a'}} {
		if _, err := decodeFields(nil, b); err == nil {
			t.Errorf("accepted %v", b)
		}
	}
	// Trailing bytes must be rejected.
	good := appendFields(nil, Fields{{"a", "b"}})
	if _, err := decodeFields(nil, append(good, 0xff)); err == nil {
		t.Error("accepted trailing bytes")
	}
}

func TestOpenAcceptEcho(t *testing.T) {
	client, server := sessionPair(t)

	// Server: accept, read all, echo back upper-cased headers + body.
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		body, _ := io.ReadAll(st)
		st.SendMessage(Fields{{"status", "200"}}, nil, false)
		st.Write(body)
		st.CloseWrite()
	}()

	st, err := client.OpenStreamWith(Fields{{":path", "/echo"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("hello tunnel")); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	h, err := st.RecvHeaders(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Get("status") != "200" {
		t.Fatalf("headers = %v", h)
	}
	body, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello tunnel" {
		t.Fatalf("body = %q", body)
	}
}

func TestManyConcurrentStreams(t *testing.T) {
	client, server := sessionPair(t)
	const n = 50

	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				b, _ := io.ReadAll(st)
				st.Write(b)
				st.CloseWrite()
			}(st)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := client.OpenStreamWith(nil, nil, false)
			if err != nil {
				errs <- err
				return
			}
			msg := bytes.Repeat([]byte{byte(i)}, 1000+i)
			st.Write(msg)
			st.CloseWrite()
			got, err := io.ReadAll(st)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- errors.New("echo mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLargeBodySplitsFrames(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		b, _ := io.ReadAll(st)
		st.Write(b)
		st.CloseWrite()
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("Z"), 3*maxFramePayload+17)
	go func() {
		st.Write(big)
		st.CloseWrite()
	}()
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large body mismatch: %d vs %d", len(got), len(big))
	}
}

func TestGoAwayStopsNewStreams(t *testing.T) {
	client, server := sessionPair(t)

	// A stream already in flight survives the drain.
	acceptCh := make(chan *Stream, 1)
	go func() {
		st, err := server.Accept()
		if err == nil {
			acceptCh <- st
		}
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}

	if err := server.GoAway(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-client.GoAwayReceived():
	case <-time.After(2 * time.Second):
		t.Fatal("client never saw GOAWAY")
	}
	if !client.Draining() || !server.Draining() {
		t.Fatal("both sides should report draining")
	}
	if _, err := client.OpenStreamWith(nil, nil, false); !errors.Is(err, ErrGoAway) {
		t.Fatalf("OpenStream after GOAWAY = %v, want ErrGoAway", err)
	}
	if _, err := server.OpenStreamWith(nil, nil, false); !errors.Is(err, ErrGoAway) {
		t.Fatalf("server OpenStream after its own GOAWAY = %v, want ErrGoAway", err)
	}

	// The in-flight stream still completes.
	srvSt := <-acceptCh
	go func() {
		io.ReadAll(srvSt)
		srvSt.Write([]byte("late but fine"))
		srvSt.CloseWrite()
	}()
	st.CloseWrite()
	b, err := io.ReadAll(st)
	if err != nil || string(b) != "late but fine" {
		t.Fatalf("in-flight stream failed after GOAWAY: %q %v", b, err)
	}
}

func TestResetDeliversError(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		st.Reset()
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_, err = st.Read(buf)
	if !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after reset = %v, want ErrStreamReset", err)
	}
}

func TestPing(t *testing.T) {
	client, _ := sessionPair(t)
	if err := client.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCloseFailsStreams(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		_ = st
		// Never respond; client stream must fail on session close.
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		client.Close()
	}()
	buf := make([]byte, 1)
	if _, err := st.Read(buf); err == nil {
		t.Fatal("read succeeded after session close")
	}
	if _, err := client.OpenStreamWith(nil, nil, false); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("OpenStream after close = %v", err)
	}
	select {
	case <-client.Done():
	case <-time.After(time.Second):
		t.Fatal("Done never closed")
	}
}

func TestPeerDisconnectFailsStreams(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	server.Close() // simulates peer crash
	buf := make([]byte, 1)
	if _, err := st.Read(buf); err == nil {
		t.Fatal("read succeeded after peer death")
	}
}

func TestControlFramesDCR(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		// Origin solicits a reconnect (restart incoming), §4.2 step A.
		st.SendControl(FrameReconnectSolicitation, []byte("draining"))
	}()
	st, err := client.OpenStreamWith(Fields{{"proto", "mqtt"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-st.Controls():
		if c.Type != FrameReconnectSolicitation || string(c.Payload) != "draining" {
			t.Fatalf("control = %+v", c)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control frame never arrived")
	}
	// Reply with an ack the other way.
	if err := st.SendControl(FrameConnectAck, []byte("u-7")); err != nil {
		t.Fatal(err)
	}
	if err := st.SendControl(FrameData, nil); err == nil {
		t.Fatal("SendControl accepted a non-control frame type")
	}
}

func TestStreamsReapedAfterBothEnds(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				io.ReadAll(st)
				st.CloseWrite()
			}(st)
		}
	}()
	for i := 0; i < 20; i++ {
		st, err := client.OpenStreamWith(nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		st.CloseWrite()
		if _, err := io.ReadAll(st); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for client.NumStreams() > 0 || server.NumStreams() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streams leaked: client=%d server=%d", client.NumStreams(), server.NumStreams())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWriteAfterCloseWrite(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, _ := server.Accept()
		if st != nil {
			io.Copy(io.Discard, st)
		}
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	st.CloseWrite()
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("write after CloseWrite = %v", err)
	}
}

func BenchmarkStreamEcho(b *testing.B) {
	cc, sc := net.Pipe()
	client := NewSession(cc, true)
	server := NewSession(sc, false)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				buf, _ := io.ReadAll(st)
				st.Write(buf)
				st.CloseWrite()
			}(st)
		}
	}()
	payload := bytes.Repeat([]byte("b"), 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := client.OpenStreamWith(nil, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		st.Write(payload)
		st.CloseWrite()
		if _, err := io.ReadAll(st); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSettingsStreamLimit: the peer's advertised max-concurrent-streams is
// enforced on OpenStream and releases as streams finish.
func TestSettingsStreamLimit(t *testing.T) {
	client, server := sessionPair(t)
	if err := server.AdvertiseSettings(2); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				io.ReadAll(st)
				st.CloseWrite()
			}(st)
		}
	}()
	// Wait for the SETTINGS frame to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		client.mu.Lock()
		limit := client.peerMaxStreams
		client.mu.Unlock()
		if limit == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SETTINGS never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st1, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenStreamWith(nil, nil, false); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("third open = %v, want ErrStreamLimit", err)
	}
	// Finish one stream; capacity frees up.
	st1.CloseWrite()
	io.ReadAll(st1)
	deadline = time.Now().Add(2 * time.Second)
	for {
		st3, err := client.OpenStreamWith(nil, nil, false)
		if err == nil {
			st3.CloseWrite()
			break
		}
		if !errors.Is(err, ErrStreamLimit) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("stream slot never freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st2.CloseWrite()
}

func TestSettingsZeroMeansUnlimited(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			_ = st
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := client.OpenStreamWith(nil, nil, true); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
}

// TestUnknownFrameTypeIgnored: forward compatibility — an unrecognised
// frame type must not kill the session.
func TestUnknownFrameTypeIgnored(t *testing.T) {
	cc, sc := net.Pipe()
	client := NewSession(cc, true)
	defer client.Close()
	go func() {
		// Raw peer: write an unknown frame, then behave as a server.
		WriteFrame(sc, Frame{Type: FrameType(0x7f), StreamID: 9, Payload: []byte("future")})
		srv := NewSession(sc, false)
		st, err := srv.Accept()
		if err != nil {
			return
		}
		st.SendMessage(Fields{{"status", "200"}}, nil, true)
	}()
	st, err := client.OpenStreamWith(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvHeaders(2 * time.Second); err != nil {
		t.Fatalf("session died on unknown frame: %v", err)
	}
}
