package h2t

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"

	"zdr/internal/racetest"
)

// TestControlBeforeControls: a stream has no control channel until someone
// needs one, and a frame that arrives before its consumer has asked makes
// the channel itself; it is there when Controls is called.
func TestControlBeforeControls(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(Fields{{"proto", "mqtt"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if st.relay.Load() != nil || sst.relay.Load() != nil {
		t.Fatal("a stream nobody sent a control frame on has a control channel")
	}
	if err := sst.SendControl(FrameReconnectSolicitation, []byte("u-1")); err != nil {
		t.Fatal(err)
	}
	// A ping answered means the client's reader has handled the frame
	// before it.
	if err := server.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-st.Controls():
		if c.Type != FrameReconnectSolicitation || string(c.Payload) != "u-1" {
			t.Fatalf("control = %+v", c)
		}
	default:
		t.Fatal("a control frame that arrived before Controls was called was not kept")
	}
}

// TestRecvHeadersOnAcceptedStream: headers sent after the opening block
// reach the accepting side's RecvHeaders as they reach the opener's,
// whether they arrive before the call or during it.
func TestRecvHeadersOnAcceptedStream(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(Fields{{":path", "/x"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got := sst.Fields(); len(got) != 1 || got[0] != (Field{":path", "/x"}) {
		t.Fatalf("accepted with %v", got)
	}
	if err := st.SendMessage(Fields{{"trailer", "early"}}, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(2 * time.Second); err != nil { // the block is in the slot
		t.Fatal(err)
	}
	if h, err := sst.RecvHeaders(2 * time.Second); err != nil || h.Get("trailer") != "early" {
		t.Fatalf("block that arrived before the call: %v, %v", h, err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		st.SendMessage(Fields{{"trailer", "late"}, {"more", strings.Repeat("x", 100)}}, nil, true)
	}()
	if h, err := sst.RecvHeaders(2 * time.Second); err != nil || h.Get("trailer") != "late" || len(h.Get("more")) != 100 {
		t.Fatalf("block that arrived during the call: %v, %v", h, err)
	}
}

func TestRecvHeadersTimeoutAndSessionDeath(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := st.RecvHeaders(30 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("no headers sent: err = %v, want a timeout", err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond || d > time.Second {
		t.Fatalf("timed out after %v, want about 30ms", d)
	}
	// A timeout does not break the stream: headers sent afterwards arrive.
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sst.SendMessage(Fields{{"status", "200"}}, nil, false)
	if h, err := st.RecvHeaders(2 * time.Second); err != nil || h.Get("status") != "200" {
		t.Fatalf("after a timeout: %v, %v", h, err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		server.Close()
	}()
	if _, err := st.RecvHeaders(5 * time.Second); !errors.Is(err, errSessionClosed) {
		t.Fatalf("session died while waiting: err = %v, want ErrSessionClosed", err)
	}
}

// TestRecvHeadersTimerReuse races arrival against the timeout on timers
// that have been through the pool: a wait given ample time must never end
// on the tick a previous wait's timer left behind, and a wait that times
// out must take its whole timeout. (A timer that fires just as the
// headers arrive, so that the wait returns them and leaves the tick, is
// the case; the timeouts below are swept across the time an answer takes
// to make it happen.)
func TestRecvHeadersTimerReuse(t *testing.T) {
	client, server := sessionPair(t)
	go func() {
		for {
			sst, err := server.Accept()
			if err != nil {
				return
			}
			if sst.Fields().Get("answer") != "never" {
				sst.SendMessage(Fields{{"status", "200"}}, nil, true)
			}
		}
	}()
	exchange := func(timeout time.Duration) (time.Duration, error) {
		t0 := time.Now()
		st, err := client.OpenStreamWith(nil, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = st.RecvHeaders(timeout); err != nil {
			st.Reset()
		}
		return time.Since(t0), err
	}
	rtt, _ := exchange(10 * time.Second)
	for i := 0; i < 300; i++ {
		// A wait whose timer fires about when its headers come: either
		// outcome is legitimate.
		exchange(rtt * time.Duration(i%20) / 10)
		if d, err := exchange(10 * time.Second); err != nil {
			t.Fatalf("round %d: a wait with 10s to spare ended after %v with %v", i, d, err)
		} else if i%10 == 0 {
			rtt = d
		}
	}
	st, err := client.OpenStreamWith(Fields{{"answer", "never"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := st.RecvHeaders(2 * time.Millisecond); err == nil || time.Since(t0) < 2*time.Millisecond {
			t.Fatalf("a 2ms wait for headers nobody sends ended after %v with %v", time.Since(t0), err)
		}
	}
	st.Reset()
	// A stream whose wait got its headers as its timer fired is released
	// and reused by the next stream at once: the late tick wakes the next
	// user's wait for nothing, and that wait still takes its own timeout.
	for i := 0; i < 40; i++ {
		done, err := client.OpenStreamWith(nil, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := done.RecvHeaders(rtt * time.Duration(i%20) / 10); err != nil {
			done.Reset()
		} else if n, end := done.Buffered(); n != 0 || !end {
			t.Fatalf("a response of headers alone: Buffered() = %d, %v", n, end)
		}
		done.Release()
		t0 := time.Now()
		next, err := client.OpenStreamWith(Fields{{"answer", "never"}}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := next.RecvHeaders(2 * time.Millisecond); err == nil || time.Since(t0) < 2*time.Millisecond {
			t.Fatalf("round %d: a 2ms wait on a stream opened after a release ended after %v with %v", i, time.Since(t0), err)
		}
		next.Reset()
		next.Release()
	}
}

// tcpSessionPair is a session pair over loopback TCP, as the proxies'.
func tcpSessionPair(t testing.TB) (client, server *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	client, server = NewSession(cc, true), NewSession(sc, false)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestStreamAllocations: what a request costs the tunnel, both sides
// counted — a Stream and the opening block's string where it is accepted,
// a Stream and the response block's string where it was opened — and what
// a message on an open stream costs: nothing. A request whose streams both
// sides release costs the two strings alone once the pool is warm, with
// room for a pool a collection emptied but none for a Stream.
func TestStreamAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	client, server := tcpSessionPair(t)
	payload := make([]byte, 64)
	go func() { // serves every stream on one goroutine: the handler's cost is not the tunnel's
		buf := make([]byte, 128)
		for {
			sst, err := server.Accept()
			if err != nil {
				return
			}
			if sst.Fields().Get("proto") == "pingpong" {
				go func() {
					buf := make([]byte, 128)
					for {
						if _, err := io.ReadFull(sst, buf); err != nil {
							return
						}
						sst.Write(buf)
					}
				}()
				continue
			}
			n, _ := io.ReadFull(sst, buf[:64])
			sst.SendMessage(Fields{{"status", "200"}, {"status-message", "OK"}, {"Content-Length", "64"}, {"X-Served-By", "app-0"}}, buf[:n], true)
			if sst.Fields().Get("release") != "" {
				sst.Release()
			}
		}
	}()
	hdr := Fields{{":method", "POST"}, {":path", "/dyn/64"}, {"content-length", "64"}}
	buf := make([]byte, 128)
	roundTrip := func() {
		st, err := client.OpenStreamWith(hdr, payload, true)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := st.RecvHeaders(5 * time.Second); err != nil || h.Get("status") != "200" {
			t.Fatalf("response headers %v, %v", h, err)
		}
		if _, err := io.ReadFull(st, buf[:64]); err != nil {
			t.Fatal(err)
		}
		if n, err := st.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("after the body: %d, %v", n, err)
		}
		if hdr.Get("release") != "" {
			st.Release()
		}
	}
	if n := testing.AllocsPerRun(200, roundTrip); n > 7 {
		t.Errorf("open + headers back + 64 B + END_STREAM: %v allocs on the pair, want <= 7", n)
	} else {
		t.Logf("open + headers back + 64 B + END_STREAM: %v allocs on the pair", n)
	}
	hdr = append(hdr, Field{"release", "1"})
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n > 2.5 {
		t.Errorf("the same with both streams released: %v allocs on the pair, want <= 2.5 (no Stream)", n)
	} else {
		t.Logf("the same with both streams released: %v allocs on the pair", n)
	}
	if client.NumStreams() != 0 || server.NumStreams() != 0 {
		t.Fatalf("streams left: %d, %d", client.NumStreams(), server.NumStreams())
	}

	st, err := client.OpenStreamWith(Fields{{"proto", "pingpong"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := st.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(st, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DATA ping-pong on an open stream: %v allocs, want 0", n)
	}
	if st.relay.Load() != nil {
		t.Error("a stream that carried only DATA has a control channel")
	}
}

// TestStreamSize pins what an idle relayed stream holds (a request's
// stream is reused once released): a Stream, room for one header block
// included, fills the 352-byte size class and no more.
func TestStreamSize(t *testing.T) {
	if n := unsafe.Sizeof(Stream{}); n > 352 {
		t.Errorf("a Stream is %d bytes, want <= 352", n)
	} else {
		t.Logf("a Stream is %d bytes", n)
	}
}

// TestResetWakesRecvHeaders: a wait for response headers ends when the
// peer resets the stream, not at its timeout, and says why.
func TestResetWakesRecvHeaders(t *testing.T) {
	client, server := sessionPair(t)
	st, err := client.OpenStreamWith(Fields{{":path", "/x"}}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		sst.Reset()
	}()
	t0 := time.Now()
	if _, err := st.RecvHeaders(3 * time.Second); !errors.Is(err, ErrStreamReset) || time.Since(t0) > 150*time.Millisecond {
		t.Fatalf("a wait whose stream was reset 50ms in ended after %v with %v, want ErrStreamReset within 100ms of the reset", time.Since(t0), err)
	}
	if _, err := st.RecvHeaders(3 * time.Second); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("a wait on a stream already reset: %v, want ErrStreamReset", err)
	}
}

// TestResetBehindTheResponseKeepsIt: a peer that answers and then resets
// the stream — an Origin's early reply to an upload it will not take —
// can have the answer and the RST arrive in one read, with RecvHeaders
// already waiting. The response is still the consumer's: the RST wakes
// the wait only once the block that came before it is in the slot, and
// the body that ended before the RST stays readable.
func TestResetBehindTheResponseKeepsIt(t *testing.T) {
	cc, raw := net.Pipe()
	client := NewSession(cc, true)
	defer client.Close()
	go io.Copy(io.Discard, raw)
	st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		h   Fields
		err error
	}
	got := make(chan answer, 1)
	go func() {
		h, err := st.RecvHeaders(2 * time.Second)
		got <- answer{h, err}
	}()
	time.Sleep(20 * time.Millisecond) // the wait is parked
	var wire bytes.Buffer
	block := appendFields(nil, Fields{{"status", "500"}})
	for _, f := range []tunnelFrame{
		{Type: frameHeaders, streamID: st.ID(), Payload: block},
		{Type: frameData, Flags: flagEndStream, streamID: st.ID(), Payload: []byte("no")},
		{Type: frameRST, streamID: st.ID()},
	} {
		WriteFrame(&wire, f)
	}
	if _, err := raw.Write(wire.Bytes()); err != nil { // one read's worth
		t.Fatal(err)
	}
	if a := <-got; a.err != nil || a.h.Get("status") != "500" {
		t.Fatalf("response with an RST behind it: %v, %v", a.h, a.err)
	}
	if body, err := io.ReadAll(st); err != nil || string(body) != "no" {
		t.Fatalf("its body: %q, %v", body, err)
	}
}
