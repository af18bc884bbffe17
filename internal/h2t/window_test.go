package h2t

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/metrics"
)

// eventually polls cond, which must come true without the test doing
// anything further, and fails the test if it has not in five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// freshPair is a session pair over TCP loopback on which nothing has been
// sent: neither side has the other's announcement. reg counts the
// client's stalls and both sides' credits.
func freshPair(t *testing.T, clientOpts ...Option) (client, server *Session, reg *metrics.Registry) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	m := NewMetrics(reg)
	client = NewSession(cc, true, append([]Option{WithMetrics(m)}, clientOpts...)...)
	server = NewSession(sc, false, WithMetrics(m))
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server, reg
}

// windowedPair is a freshPair in which each side has the other's
// announcement (a PING and its answer carry them), so windows are
// enforced from the first stream on.
func windowedPair(t *testing.T, clientOpts ...Option) (client, server *Session, reg *metrics.Registry) {
	t.Helper()
	client, server, reg = freshPair(t, clientOpts...)
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return client, server, reg
}

// sliverReader hands out its bytes a few at a time, so that a fill of a
// chunk is under way for long enough to be raced.
type sliverReader struct {
	rng  *rand.Rand
	data []byte
}

func (r *sliverReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data), 1+r.rng.Intn(3000))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// setEOF is the peer's END_STREAM as the session's remoteEnd marks it.
func (b *recvBuffer) setEOF() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.eof = true
	b.cond.Broadcast()
}

// fill lands the next n bytes of r in b the way the session reader lands
// a DATA payload: in the room b has for them, as they come.
func fill(b *recvBuffer, s *Session, r io.Reader, n int) error {
	for n > 0 {
		dst := b.room(s, n)
		if dst == nil {
			_, err := io.CopyN(io.Discard, r, int64(n))
			return err
		}
		k, err := r.Read(dst)
		b.filled(s, k)
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// TestRecvBufferModel drives a receive buffer with random fills, reads,
// ends and failures, one operation at a time, and holds it to a
// bytes.Buffer: same bytes, same counts, same ends. Frames of every size
// up to the limit straddle chunks of every tier. The chunk memory the
// buffer accounts is the test's hook on the pool: none is held by an empty
// buffer, and none once a run has ended, however it ended.
func TestRecvBufferModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Session{m: unobserved}
		var b recvBuffer
		b.init()
		var model bytes.Buffer
		eof, failed := false, false
		p, q := make([]byte, 200<<10), make([]byte, 200<<10)
		check := func(op string) {
			t.Helper()
			n, end := b.buffered()
			if n != model.Len() || end != (model.Len() == 0 && (eof || failed)) {
				t.Fatalf("seed %d after %s: buffered() = %d, %v; model holds %d (eof %v, failed %v)", seed, op, n, end, model.Len(), eof, failed)
			}
			held := s.ResidentBytes()
			if model.Len() == 0 && held != 0 {
				t.Fatalf("seed %d after %s: an empty buffer holds %d bytes of chunks", seed, op, held)
			}
			if held > int64(model.Len()+2*bufpool.TierLarge) {
				t.Fatalf("seed %d after %s: %d bytes of chunks for %d of data", seed, op, held, model.Len())
			}
		}
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(100); {
			case k < 45: // a DATA frame
				n := 1 + rng.Intn(maxFramePayload)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(300)
				}
				frame := make([]byte, n)
				rng.Read(frame)
				if !eof && !failed {
					model.Write(frame)
				}
				if err := fill(&b, s, bytes.NewReader(frame), n); err != nil {
					t.Fatalf("seed %d: fill: %v", seed, err)
				}
				check("fill")
			case k < 90: // a Read, if it would not block
				if model.Len() == 0 && !eof && !failed {
					continue
				}
				k := 1 + rng.Intn(len(p))
				n, _, err := b.take(s, p[:k])
				mn, merr := model.Read(q[:k])
				if n != mn || !bytes.Equal(p[:n], q[:mn]) {
					t.Fatalf("seed %d: read %d bytes, model %d (or they differ)", seed, n, mn)
				}
				if (err == nil) != (merr == nil) || (err == io.EOF) != (merr == io.EOF && !failed) {
					t.Fatalf("seed %d: read error %v, model %v (failed %v)", seed, err, merr, failed)
				}
				check("read")
			case k < 94:
				b.setEOF()
				eof = eof || !failed
				check("eof")
			case k < 97: // peer RST or session death
				b.fail(s, ErrStreamReset, false)
				if !eof && !failed {
					failed = true
					model.Reset()
				}
				check("fail")
			default: // local Reset, with whatever is unread
				b.fail(s, ErrStreamReset, true)
				if !failed {
					failed, eof = true, false
					model.Reset()
				}
				check("reset")
			}
		}
		// Normal end: the consumer reads to the end. Otherwise: Reset.
		if seed%2 == 0 && !failed {
			b.setEOF()
			for {
				if _, _, err := b.take(s, p); err != nil {
					break
				}
			}
		} else {
			b.fail(s, ErrStreamReset, true)
		}
		if held := s.ResidentBytes(); held != 0 {
			t.Fatalf("seed %d: %d bytes of chunks still held at the end", seed, held)
		}
	}
}

// TestRecvBufferReadRacesFill: a consumer reads while the session reader
// is in the middle of filling the chunk it reads from — the one moment the
// two touch the same chunk without the lock. Every byte arrives once and
// in order; a Reset in mid-fill leaves no chunk behind.
func TestRecvBufferReadRacesFill(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Session{m: unobserved}
		var b recvBuffer
		b.init()
		want := make([]byte, 1<<20)
		rng.Read(want)
		resetAt := -1
		if seed%2 == 1 {
			resetAt = rng.Intn(len(want))
		}
		var filler sync.WaitGroup
		filler.Add(1)
		go func() {
			defer filler.Done()
			frng := rand.New(rand.NewSource(seed))
			r := &sliverReader{rng: frng, data: want}
			for left := len(want); left > 0; {
				n := min(left, 1+frng.Intn(maxFramePayload))
				if err := fill(&b, s, r, n); err != nil {
					t.Errorf("seed %d: fill: %v", seed, err)
					return
				}
				left -= n
			}
			b.setEOF()
		}()
		var got []byte
		p := make([]byte, 40<<10)
		for {
			n, _, err := b.take(s, p[:1+rng.Intn(len(p))])
			got = append(got, p[:n]...)
			if resetAt >= 0 && len(got) >= resetAt {
				b.fail(s, ErrStreamReset, true)
				resetAt = -1
			}
			if err != nil {
				if seed%2 == 0 && err != io.EOF {
					t.Fatalf("seed %d: %v", seed, err)
				}
				break
			}
		}
		filler.Wait()
		if !bytes.Equal(got, want[:len(got)]) || (seed%2 == 0 && len(got) != len(want)) {
			t.Fatalf("seed %d: read %d of %d bytes, or they differ", seed, len(got), len(want))
		}
		if held := s.ResidentBytes(); held != 0 {
			t.Fatalf("seed %d: %d bytes of chunks still held", seed, held)
		}
	}
}

// TestStalledConsumerBoundsTheSender: a consumer that does not read holds
// its sender at the window — what sits unread at the receiver is at most
// the window — while another stream of the same session moves a MiB each
// way. When the consumer resumes the sender finishes, and the session ends
// up holding nothing.
func TestStalledConsumerBoundsTheSender(t *testing.T) {
	client, server, reg := windowedPair(t)
	big := bytes.Repeat([]byte("stall"), (1<<20)/5)

	stalled, err := client.OpenStreamWith(Fields{{"which", "stalled"}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		_, err := stalled.Write(big)
		if err == nil {
			err = stalled.CloseWrite()
		}
		sent <- err
	}()
	eventually(t, "the sender to park", func() bool { return reg.CounterValue("h2t.window.stalls") > 0 })
	eventually(t, "the window to arrive", func() bool { n, _ := sst.Buffered(); return n == streamWindow })
	if held := server.ResidentBytes(); held > streamWindow+maxFramePayload {
		t.Fatalf("receiver holds %d bytes of chunks for a window of %d", held, streamWindow)
	}

	go func() {
		st, err := server.Accept()
		if err != nil {
			return
		}
		body, _ := io.ReadAll(st)
		st.SendMessage(Fields{{"status", "200"}}, body, true)
	}()
	echo, err := client.OpenStreamWith(Fields{{"which", "echo"}}, big, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.RecvHeaders(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(echo); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("echo beside a stalled stream: %d bytes, %v", len(got), err)
	}
	select {
	case err := <-sent:
		t.Fatalf("the stalled stream's sender returned (%v) with nobody reading", err)
	default:
	}
	if n, _ := sst.Buffered(); n != streamWindow {
		t.Fatalf("%d bytes unread at the receiver, want the window (%d)", n, streamWindow)
	}

	if got, err := io.ReadAll(sst); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("stalled stream after resuming: %d bytes, %v", len(got), err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if c, s := client.ResidentBytes(), server.ResidentBytes(); c != 0 || s != 0 {
		t.Fatalf("chunks still held: client %d, server %d bytes", c, s)
	}
	if reg.CounterValue("h2t.window.updates_sent") == 0 {
		t.Fatal("no WINDOW_UPDATE was counted")
	}
}

// TestParkedWriterWakes: a sender parked on an empty window returns, with
// an error, on every event that means no credit will come.
func TestParkedWriterWakes(t *testing.T) {
	cases := []struct {
		name string
		wake func(client, server *Session, st, sst *Stream)
		want error // nil: any error
	}{
		{"local Reset", func(_, _ *Session, st, _ *Stream) { st.Reset() }, ErrStreamClosed},
		{"peer RST", func(_, _ *Session, _, sst *Stream) { sst.Reset() }, ErrStreamReset},
		{"GOAWAY then close", func(_, server *Session, _, _ *Stream) { server.GoAway(); server.Close() }, nil},
		{"session death", func(client, _ *Session, _, _ *Stream) { client.Close() }, ErrSessionClosed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			client, server, reg := windowedPair(t)
			st, err := client.OpenStreamWith(nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			sst, err := server.Accept()
			if err != nil {
				t.Fatal(err)
			}
			sent := make(chan error, 1)
			go func() {
				_, err := st.Write(make([]byte, 2*streamWindow))
				sent <- err
			}()
			eventually(t, "the sender to park", func() bool { return reg.CounterValue("h2t.window.stalls") > 0 })
			c.wake(client, server, st, sst)
			select {
			case err := <-sent:
				if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
					t.Fatalf("parked Write returned %v, want %v", err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked Write never returned")
			}
			eventually(t, "the chunks to go back", func() bool { return server.ResidentBytes() == 0 })
		})
	}
}

// TestCreditFlowsThroughAGoAwayDrain: GOAWAY stops new streams, not the
// credit of those in flight — a stream four windows long finishes both
// ways after it.
func TestCreditFlowsThroughAGoAwayDrain(t *testing.T) {
	client, server, _ := windowedPair(t)
	big := bytes.Repeat([]byte("drain"), 4*streamWindow/5)
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.GoAway(); err != nil {
		t.Fatal(err)
	}
	<-client.GoAwayReceived()
	go func() {
		body, _ := io.ReadAll(sst)
		sst.Write(body)
		sst.CloseWrite()
	}()
	go func() {
		st.Write(big)
		st.CloseWrite()
	}()
	if got, err := io.ReadAll(st); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("echo across a drain: %d bytes, %v", len(got), err)
	}
}

// TestPeerWithoutWindows: the other side is the previous release — it
// announces nothing, sends no credit and ignores ours. Four MiB cross in
// each direction all the same: nothing stalls it and it stalls nothing.
func TestPeerWithoutWindows(t *testing.T) {
	legacy := func(o *sessionOptions) { o.legacy = true }
	client, server, reg := windowedPair(t, legacy)
	big := bytes.Repeat([]byte("n-1!"), 1<<20)
	go func() {
		sst, err := server.Accept()
		if err != nil {
			return
		}
		body, _ := io.ReadAll(sst)
		sst.SendMessage(Fields{{"status", "200"}}, body, true)
	}()
	st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, big, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvHeaders(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(st); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("echo through a peer without windows: %d bytes, %v", len(got), err)
	}
	if n := reg.CounterValue("h2t.window.updates_sent"); n != 0 {
		t.Fatalf("%d WINDOW_UPDATE frames sent to or by a peer that keeps no window", n)
	}
	if n := reg.CounterValue("h2t.window.stalls"); n != 0 {
		t.Fatalf("%d stalls toward or at a peer that keeps no window", n)
	}
	if server.peerWindow.Load() || client.peerWindow.Load() {
		t.Fatal("a session enforces a window nobody announced")
	}
}

// TestHostileWindowUpdate: increments that would overflow, that are zero,
// that name no stream or have no valid size change nothing they should
// not — the send window never exceeds streamWindow, and the session lives.
func TestHostileWindowUpdate(t *testing.T) {
	cc, raw := net.Pipe()
	reg := metrics.NewRegistry()
	client := NewSession(cc, true, WithMetrics(NewMetrics(reg)))
	defer client.Close()
	acked := make(chan struct{})
	go func() { // the peer: reads what the client sends, notes the PING's answer
		for {
			f, err := ReadFrame(raw)
			if err != nil {
				return
			}
			if f.Type == FramePing && f.Flags&FlagAck != 0 {
				close(acked)
			}
		}
	}()
	st, err := client.OpenStreamWith(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	for _, f := range []Frame{
		{Type: FrameWindowUpdate, Flags: FlagWindow, StreamID: st.ID(), Payload: u32(0xffffffff)},
		{Type: FrameWindowUpdate, StreamID: st.ID(), Payload: u32(0xffffffff)},
		{Type: FrameWindowUpdate, StreamID: st.ID(), Payload: u32(0)},
		{Type: FrameWindowUpdate, StreamID: 999, Payload: u32(1)},
		{Type: FrameWindowUpdate, StreamID: st.ID(), Payload: []byte{1, 2, 3}},
		{Type: FrameWindowUpdate, StreamID: st.ID(), Payload: make([]byte, 8)},
		{Type: FramePing, Payload: make([]byte, 8)}, // answered once all of the above are handled
	} {
		if err := WriteFrame(raw, f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("session stopped answering after hostile WINDOW_UPDATEs")
	}
	st.buf.mu.Lock()
	win := st.sendWin
	st.buf.mu.Unlock()
	if win != streamWindow {
		t.Fatalf("send window = %d after hostile increments, want %d", win, streamWindow)
	}
	// The window is still a window: a sender that fills it parks.
	go st.Write(make([]byte, streamWindow+1))
	eventually(t, "a write past the window to park", func() bool { return reg.CounterValue("h2t.window.stalls") == 1 })
}

// TestSessionShutdownReturnsChunks: data that nobody read is let go of
// when its session dies.
func TestSessionShutdownReturnsChunks(t *testing.T) {
	client, server, _ := windowedPair(t)
	st, err := client.OpenStreamWith(nil, make([]byte, 100<<10), false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the data to arrive", func() bool { n, _ := sst.Buffered(); return n == 100<<10 })
	if server.ResidentBytes() == 0 {
		t.Fatal("buffered data holds no chunk")
	}
	server.Close()
	if held := server.ResidentBytes(); held != 0 {
		t.Fatalf("%d bytes of chunks held after shutdown", held)
	}
	if _, err := sst.Read(make([]byte, 1)); err == nil {
		t.Fatal("read of a dead session's stream succeeded")
	}
	_ = st
}

// TestFirstExchangeIsBounded: the side that accepts streams has nothing to
// send until its first response, and a sender keeps to the window only
// once it has seen a frame of its peer's — so the acceptor says at the
// start, with a SETTINGS frame that limits nothing, that it keeps one.
// The first upload on the session, to an acceptor that reads none of it,
// then parks with a window and at most a chunk resident at the peer;
// without the frame all of it is sent.
func TestFirstExchangeIsBounded(t *testing.T) {
	big := bytes.Repeat([]byte("1st!"), (1<<20)/4)
	for _, announce := range []bool{true, false} {
		client, server, reg := freshPair(t)
		if announce {
			if err := server.AdvertiseSettings(0); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the announcement to arrive", client.peerWindow.Load)
		}
		sent := make(chan error, 1)
		go func() {
			st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, nil, false)
			if err == nil {
				err = st.SendMessage(nil, big, true)
			}
			sent <- err
		}()
		sst, err := server.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if !announce {
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			eventually(t, "the whole upload to arrive", func() bool { n, _ := sst.Buffered(); return n == len(big) })
			continue
		}
		eventually(t, "the sender to park", func() bool { return reg.CounterValue("h2t.window.stalls") > 0 })
		eventually(t, "the window to arrive", func() bool { n, _ := sst.Buffered(); return n == streamWindow })
		if held := server.ResidentBytes(); held > streamWindow+maxFramePayload {
			t.Fatalf("receiver holds %d bytes of the session's first upload, want at most a window (%d) and a chunk", held, streamWindow)
		}
		select {
		case err := <-sent:
			t.Fatalf("the sender returned (%v) with nobody reading", err)
		default:
		}
		if got, err := io.ReadAll(sst); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("the upload, once read: %d bytes, %v", len(got), err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnnouncementToAPeerWithoutWindows: a peer of the previous release
// takes the acceptor's opening SETTINGS frame, window flag and all, for
// what it always was — no stream limit — and its uploads neither stall
// nor are acknowledged.
func TestAnnouncementToAPeerWithoutWindows(t *testing.T) {
	client, server, reg := freshPair(t, func(o *sessionOptions) { o.legacy = true })
	if err := server.AdvertiseSettings(0); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(5 * time.Second); err != nil { // the frame has been handled
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("n-1!"), 1<<18)
	go func() {
		for {
			sst, err := server.Accept()
			if err != nil {
				return
			}
			body, _ := io.ReadAll(sst)
			sst.SendMessage(Fields{{"status", "200"}}, body, true)
		}
	}()
	for i := 0; i < 3; i++ { // no limit on streams was read into it either
		st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, big, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.RecvHeaders(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(st); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("echo %d through a peer without windows: %d bytes, %v", i, len(got), err)
		}
	}
	if stalls, updates := reg.CounterValue("h2t.window.stalls"), reg.CounterValue("h2t.window.updates_sent"); stalls != 0 || updates != 0 {
		t.Fatalf("%d stalls, %d WINDOW_UPDATE frames with a peer that keeps no window", stalls, updates)
	}
	if client.peerWindow.Load() {
		t.Fatal("a session of the previous release enforces a window")
	}
}

// TestCreditWakesASenderPastTheWindow: what a sender sends before its
// peer's announcement is not held to the window, so the window it keeps
// can be below zero when the announcement makes it enforced. A sender
// that parks there is woken by the credit that lifts it, with nothing else
// arriving on the stream.
func TestCreditWakesASenderPastTheWindow(t *testing.T) {
	client, server, reg := freshPair(t)
	early := bytes.Repeat([]byte("pre!"), (1<<20)/4)
	st, err := client.OpenStreamWith(Fields{{":path", "/up"}}, early, false)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.AdvertiseSettings(0); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the announcement to arrive", client.peerWindow.Load)
	sent := make(chan error, 1)
	go func() { sent <- st.SendMessage(nil, make([]byte, 64<<10), true) }()
	eventually(t, "the sender to park", func() bool { return reg.CounterValue("h2t.window.stalls") > 0 })
	got := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(sst, make([]byte, len(early)+64<<10))
		got <- err
	}()
	for _, ch := range []chan error{sent, got} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the sender parked below zero was not woken by the credit")
		}
	}
}
