package h2t

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/faults"
)

// countConn counts the Write calls the session makes on its transport.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMessageIsOneWrite: a request opened with its body and a response
// sent as a message each cross the transport in exactly one Write, and
// both streams are reaped with no frame beyond them.
func TestMessageIsOneWrite(t *testing.T) {
	cc, sc := net.Pipe()
	cw, sw := &countConn{Conn: cc}, &countConn{Conn: sc}
	client, server := NewSession(cw, true), NewSession(sw, false)
	defer client.Close()
	defer server.Close()

	st, err := client.OpenStreamWith(Fields{{":path", "/p"}}, []byte("ping"), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := cw.writes.Load(); n != 1 {
		t.Fatalf("request took %d writes, want 1", n)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if body, err := io.ReadAll(sst); err != nil || string(body) != "ping" {
		t.Fatalf("request body = %q, %v", body, err)
	}
	if err := sst.SendMessage(Fields{{"status", "200"}}, []byte("pong"), true); err != nil {
		t.Fatal(err)
	}
	if n := sw.writes.Load(); n != 1 {
		t.Fatalf("response took %d writes, want 1", n)
	}
	hdr, err := st.RecvHeaders(2 * time.Second)
	if err != nil || hdr.Get("status") != "200" {
		t.Fatalf("response headers = %v, %v", hdr, err)
	}
	if body, err := io.ReadAll(st); err != nil || string(body) != "pong" {
		t.Fatalf("response body = %q, %v", body, err)
	}
	if client.NumStreams() != 0 || server.NumStreams() != 0 {
		t.Fatalf("streams not reaped: client %d server %d", client.NumStreams(), server.NumStreams())
	}
	if cw.writes.Load() != 1 || sw.writes.Load() != 1 {
		t.Fatalf("writes after the exchange: client %d server %d", cw.writes.Load(), sw.writes.Load())
	}
}

// TestMessageFrames pins what a message is on the wire: END_STREAM rides
// on the last frame of the message, never on a frame of its own, and a
// body is split at the frame size limit without losing a byte.
func TestMessageFrames(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (3*maxFramePayload+8<<10)/16)
	cases := []struct {
		name string
		send func(st *Stream) error
		want []tunnelFrame // after the stream's opening HEADERS
	}{
		{"headers, data and end", func(st *Stream) error {
			return st.SendMessage(Fields{{"k", "v"}}, []byte("body"), true)
		}, []tunnelFrame{{Type: frameHeaders}, {Type: frameData, Flags: flagEndStream, Payload: []byte("body")}}},
		{"headers that end the stream", func(st *Stream) error {
			return st.SendMessage(Fields{{"k", "v"}}, nil, true)
		}, []tunnelFrame{{Type: frameHeaders, Flags: flagEndStream}}},
		{"data that ends the stream", func(st *Stream) error {
			return st.SendMessage(nil, []byte("tail"), true)
		}, []tunnelFrame{{Type: frameData, Flags: flagEndStream, Payload: []byte("tail")}}},
		{"bare end", func(st *Stream) error { return st.CloseWrite() },
			[]tunnelFrame{{Type: frameData, Flags: flagEndStream}}},
		{"split body", func(st *Stream) error { return st.SendMessage(nil, big, true) }, []tunnelFrame{
			{Type: frameData, Payload: big[:maxFramePayload]},
			{Type: frameData, Payload: big[maxFramePayload : 2*maxFramePayload]},
			{Type: frameData, Payload: big[2*maxFramePayload : 3*maxFramePayload]},
			{Type: frameData, Flags: flagEndStream, Payload: big[3*maxFramePayload:]},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cc, raw := net.Pipe()
			client := NewSession(cc, true)
			defer client.Close()
			got := make(chan []tunnelFrame, 1)
			go func() {
				var fs []tunnelFrame
				for i := 0; i < 1+len(c.want); i++ {
					f, err := ReadFrame(raw)
					if err != nil {
						break
					}
					fs = append(fs, f)
				}
				got <- fs
			}()
			st, err := client.OpenStreamWith(nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.send(st); err != nil {
				t.Fatal(err)
			}
			fs := <-got
			if len(fs) != 1+len(c.want) {
				t.Fatalf("read %d frames, want %d", len(fs), 1+len(c.want))
			}
			for i, w := range c.want {
				f := fs[1+i]
				if f.Type != w.Type || f.Flags != w.Flags || f.streamID != st.ID() {
					t.Fatalf("frame %d = %v flags %#x stream %d, want %v flags %#x", i, f.Type, f.Flags, f.streamID, w.Type, w.Flags)
				}
				if w.Type == frameData && !bytes.Equal(f.Payload, w.Payload) {
					t.Fatalf("frame %d carries %d bytes, want %d", i, len(f.Payload), len(w.Payload))
				}
			}
		})
	}
}

// TestWriteReachesPeerWithNoFurtherCall: a plain Write is on the wire when
// it returns. The MQTT pumps rely on it: they write one packet and then
// block reading the next, with no other call on the stream to push the
// first one out.
func TestWriteReachesPeerWithNoFurtherCall(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(Fields{{"proto", "mqtt"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"first packet", "second"} {
		if _, err := st.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		got := make(chan string, 1)
		go func() {
			buf := make([]byte, len(msg))
			io.ReadFull(sst, buf)
			got <- string(buf)
		}()
		select {
		case s := <-got:
			if s != msg {
				t.Fatalf("peer read %q, want %q", s, msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%q never reached the peer", msg)
		}
	}
}

// TestHeadersArriveWithTheFramesBehindThem: response headers that came in
// one segment with the response's data and its end are delivered once all
// three have been handled, so the consumer they wake finds the whole
// message — which is what lets it pass the message on in one write.
func TestHeadersArriveWithTheFramesBehindThem(t *testing.T) {
	cc, raw := net.Pipe()
	client := NewSession(cc, true)
	defer client.Close()
	go func() {
		req, err := ReadFrame(raw)
		if err != nil {
			return
		}
		block := appendFields(nil, Fields{{"status", "200"}})
		var seg bytes.Buffer
		WriteFrame(&seg, tunnelFrame{Type: frameHeaders, streamID: req.streamID, Payload: block})
		WriteFrame(&seg, tunnelFrame{Type: frameData, streamID: req.streamID, Payload: []byte("he")})
		WriteFrame(&seg, tunnelFrame{Type: frameData, Flags: flagEndStream, streamID: req.streamID, Payload: []byte("llo")})
		raw.Write(seg.Bytes())
	}()
	st, err := client.OpenStreamWith(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvHeaders(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, end := st.Buffered(); n != 5 || end {
		t.Fatalf("Buffered() = %d, %v on return from RecvHeaders; want 5, false", n, end)
	}
	buf := make([]byte, 8)
	if n, err := st.Read(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if n, end := st.Buffered(); n != 0 || !end {
		t.Fatalf("Buffered() = %d, %v after the last byte; want 0, true", n, end)
	}
}

// TestHeadersDoNotWaitForData: headers followed by nothing are delivered
// at once — holding them back is bounded by what has already arrived.
func TestHeadersDoNotWaitForData(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		st.SendMessage(Fields{{"status", "200"}}, nil, false)
	}()
	st, err := client.OpenStreamWith(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvHeaders(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, end := st.Buffered(); n != 0 || end {
		t.Fatalf("Buffered() = %d, %v with nothing sent", n, end)
	}
}

// TestPartialWritesKeepFramesWhole: a transport that splits every write
// into slivers (faults.OpPartialWrite) delivers coalesced messages intact
// — every frame once, in order, none torn.
func TestPartialWritesKeepFramesWhole(t *testing.T) {
	in := faults.NewInjector(faults.Scenario{Seed: 14, PartialWriteRate: 1})
	cc, sc := net.Pipe()
	client := NewSession(cc, true, WithConnWrapper(in.Conn))
	server := NewSession(sc, false)
	defer client.Close()
	defer server.Close()

	head := bytes.Repeat([]byte("h"), 10<<10) // past inlinePayload: its own element of the write
	bulk := bytes.Repeat([]byte("b"), 200<<10)
	go func() {
		st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, head, false)
		if err != nil {
			return
		}
		st.SendMessage(nil, []byte("small"), false)
		st.Write(bulk)
		st.SendMessage(nil, []byte("tail"), true)
	}()
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sst)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append(append([]byte(nil), head...), "small"...), bulk...), "tail"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("peer read %d bytes, want %d (or they differ)", len(got), len(want))
	}
	if in.Injected(faults.OpPartialWrite) == 0 {
		t.Fatal("no write was split")
	}
}

// TestAbortedWriteEmitsNothingTwice: the transport dies (faults.OpAbort)
// on a coalesced write. The send reports the injected error, the peer
// sees the frames before it whole and nothing after, and no later send
// reaches the transport — a frame that may be torn is never followed.
func TestAbortedWriteEmitsNothingTwice(t *testing.T) {
	// Operation 0 of the connection is exempt, every later one aborts: the
	// stream opens, the message after it dies. The session's one read is
	// parked waiting for a peer that never writes.
	in := faults.NewInjector(faults.Scenario{Seed: 14, AbortRate: 1, AbortMinOps: 1})
	cc, raw := net.Pipe()
	client := NewSession(cc, true, WithConnWrapper(in.Conn))
	defer client.Close()
	frames := make(chan []tunnelFrame, 1)
	go func() {
		var fs []tunnelFrame
		for {
			f, err := ReadFrame(raw)
			if err != nil {
				frames <- fs
				return
			}
			fs = append(fs, f)
		}
	}()
	st, err := client.OpenStreamWith(Fields{{":path", "/x"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	err = st.SendMessage(Fields{{"k", "v"}}, []byte("body"), false)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("send on the aborted write = %v, want the injected error", err)
	}
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("session survived a failed write")
	}
	calls := in.WriteCalls()
	if _, err := st.Write([]byte("again")); err == nil {
		t.Fatal("write after the failed one succeeded")
	}
	if err := st.CloseWrite(); err == nil {
		t.Fatal("CloseWrite after the failed write succeeded")
	}
	if in.WriteCalls() != calls {
		t.Fatalf("%d writes reached the transport after the failed one", in.WriteCalls()-calls)
	}
	if fs := <-frames; len(fs) != 1 || fs[0].Type != frameHeaders {
		t.Fatalf("peer read %d frames, want the opening HEADERS alone", len(fs))
	}
}

// TestTornWriteIsFinal: the peer goes away in the middle of a message
// that the transport was delivering in slivers, so part of a frame is out.
// Nothing may follow it.
func TestTornWriteIsFinal(t *testing.T) {
	in := faults.NewInjector(faults.Scenario{Seed: 14, PartialWriteRate: 1})
	cc, raw := net.Pipe()
	client := NewSession(cc, true, WithConnWrapper(in.Conn))
	defer client.Close()
	go func() {
		io.ReadFull(raw, make([]byte, frameHeaderLen+3))
		raw.Close()
	}()
	body := bytes.Repeat([]byte("x"), 2<<10)
	if _, err := client.OpenStreamWith(Fields{{":path", "/x"}}, body, false); err == nil {
		t.Fatal("a message the peer read 13 bytes of was reported sent")
	}
	calls := in.WriteCalls()
	if _, err := client.OpenStreamWith(nil, nil, true); err == nil {
		t.Fatal("a stream opened behind a torn frame")
	}
	if err := client.GoAway(); err == nil {
		t.Fatal("GOAWAY went out behind a torn frame")
	}
	if in.WriteCalls() != calls {
		t.Fatalf("%d writes reached the transport after the torn one", in.WriteCalls()-calls)
	}
}
