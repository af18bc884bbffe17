package h2t

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/metrics"
)

// TestWindowOverrunLosesOnlyThatStream: a peer that announced windows, and
// has shown that it has ours, sends one byte more than a window on a
// stream nobody reads. It loses that stream — an RST, the payload
// discarded, the chunks back in the pool — and nothing else: a neighbour
// on the same session is answered, and the session goes on answering.
func TestWindowOverrunLosesOnlyThatStream(t *testing.T) {
	sc, raw := net.Pipe()
	reg := metrics.NewRegistry()
	server := NewSession(sc, false, WithMetrics(NewMetrics(reg)))
	defer server.Close()
	frames := make(chan Frame, 16)
	go func() { // the peer's read side: it echoes PINGs and passes on the rest
		for {
			f, err := ReadFrame(raw)
			if err != nil {
				return
			}
			if f.Type == FramePing && f.Flags&FlagAck == 0 {
				WriteFrame(raw, Frame{Type: FramePing, Flags: FlagAck, Payload: f.Payload})
				continue
			}
			frames <- f
		}
	}()
	send := func(f Frame) {
		t.Helper()
		if err := WriteFrame(raw, f); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(typ FrameType, id uint32) Frame {
		t.Helper()
		select {
		case f := <-frames:
			if f.Type != typ || f.StreamID != id {
				t.Fatalf("the peer read %v on stream %d, want %v on stream %d", f.Type, f.StreamID, typ, id)
			}
			return f
		case <-time.After(2 * time.Second):
			t.Fatalf("no %v on stream %d", typ, id)
		}
		return Frame{}
	}
	hdr := appendFields(nil, Fields{{":path", "/up"}})
	send(Frame{Type: FrameHeaders, Flags: FlagWindow, StreamID: 1, Payload: hdr})
	send(Frame{Type: FrameHeaders, StreamID: 3, Payload: hdr})
	// The echo of the session's PING is what shows the peer has read the
	// session's first frame, and with it the announcement.
	if err := server.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	overrun, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	neighbour, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}

	frame := make([]byte, maxFramePayload)
	for sent := 0; sent < streamWindow; sent += len(frame) {
		send(Frame{Type: FrameData, StreamID: 1, Payload: frame})
	}
	if n := reg.CounterValue("h2t.window.overruns"); n != 0 {
		t.Fatalf("%d overruns counted with exactly a window sent", n)
	}
	send(Frame{Type: FrameData, StreamID: 1, Payload: frame[:1]})
	expect(FrameRST, 1)
	if n := reg.CounterValue("h2t.window.overruns"); n != 1 {
		t.Fatalf("h2t.window.overruns = %d, want 1", n)
	}
	if _, err := overrun.Read(frame); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read of the stream that overran: %v, want %v", err, ErrStreamReset)
	}
	if held := server.ResidentBytes(); held != 0 {
		t.Fatalf("%d bytes of chunks held for a stream that was reset", held)
	}

	send(Frame{Type: FrameData, StreamID: 1, Payload: frame[:100]}) // behind the reset: to nowhere
	send(Frame{Type: FrameData, Flags: FlagEndStream, StreamID: 3, Payload: []byte("neighbour")})
	body, err := io.ReadAll(neighbour)
	if err != nil || string(body) != "neighbour" {
		t.Fatalf("the neighbour stream carried %q, %v", body, err)
	}
	done := make(chan error, 1)
	go func() { done <- neighbour.SendMessage(Fields{{"status", "200"}}, body, true) }()
	expect(FrameHeaders, 3)
	if f := expect(FrameData, 3); string(f.Payload) != "neighbour" || f.Flags&FlagEndStream == 0 {
		t.Fatalf("the neighbour's answer: %q, flags %#x", f.Payload, f.Flags)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := server.Ping(2 * time.Second); err != nil {
		t.Fatalf("the session after an overrun: %v", err)
	}
}

// recordConn is a session's transport in a test that drives the parser by
// hand: nothing is read from it, and of what the session writes it keeps
// the credit, by stream.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	credit map[uint32]int64
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := bytes.NewReader(p); ; {
		f, err := ReadFrame(r)
		if err != nil {
			return len(p), nil
		}
		if f.Type == FrameWindowUpdate && len(f.Payload) == 4 {
			if c.credit == nil {
				c.credit = map[uint32]int64{}
			}
			c.credit[f.StreamID] += int64(binary.BigEndian.Uint32(f.Payload))
		}
	}
}

func (c *recordConn) Close() error { return nil }

func (c *recordConn) credited(id uint32) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.credit[id]
}

// feedParser hands wire bytes to the session's parser in the reads the
// room it offers makes of them, pays what each came to owe, as readLoop
// does, and calls each, if there is one, after every read.
func feedParser(s *Session, wire []byte, each func()) {
	for len(wire) > 0 && s.rerr == nil {
		n := copy(s.nextBuf(), wire)
		wire = wire[n:]
		(*sessionReader)(s).ServeWake(n)
		s.payOwed()
		if each != nil {
			each()
		}
	}
}

// racyConn is a socket whose every write, the blocking ones of its Write
// and the reader's through its RawConn, touches one plain variable: two
// writers that nothing orders are a data race the detector reports.
type racyConn struct {
	*net.UnixConn
	writes int
}

func (c *racyConn) Write(p []byte) (int, error) {
	c.writes++
	return c.UnixConn.Write(p)
}

func (c *racyConn) SyscallConn() (syscall.RawConn, error) {
	rc, err := c.UnixConn.SyscallConn()
	return racyRaw{rc, c}, err
}

type racyRaw struct {
	syscall.RawConn
	c *racyConn
}

func (r racyRaw) Write(f func(uintptr) bool) error {
	r.c.writes++
	return r.RawConn.Write(f)
}

// socketPair is a connected pair of UNIX stream sockets, the first with a
// send buffer as small as the kernel makes one.
func socketPair(t testing.TB) (w, far *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn := func(fd int) *net.UnixConn {
		f := os.NewFile(uintptr(fd), "socketpair")
		defer f.Close()
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.UnixConn)
	}
	w, far = conn(fds[0]), conn(fds[1])
	w.SetWriteBuffer(1)
	return w, far
}

// parked reports whether a WriteTo on st has nothing left to do until the
// next frame arrives: it waits with its sink in the reader's hands, or the
// stream has ended.
func parked(st *Stream) bool {
	b := &st.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	r := st.relay.Load()
	return b.size == 0 && (b.err != nil || b.eof || r != nil && r.sink != nil)
}

// soon polls cond, which must come true without the caller doing anything
// further, at a pace that two hundred seeds can afford.
func soon(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStreamWriteToModel drives one stream's WriteTo with random frames,
// from a byte to a whole frame, fed to the parser in the reads a transport
// would make of them, into a real socket with the smallest send buffer
// whose far end reads in fits and starts; at a random instant the stream
// ends one of the ways it can. Whatever the interleaving: the far end has a
// prefix of the bytes sent, each once and in order, and all of them after
// a clean end; every byte the socket took was acknowledged or is counted
// toward the next credit, and an honest sender is never taken for one that
// overran; the buffer holds nothing at the end; WriteTo names the side
// that ended it; and once it has returned nothing but the test writes the
// socket. That no two writers ever share it is the race detector's to say
// (racyConn).
func TestStreamWriteToModel(t *testing.T) {
	const (
		endStream = iota
		localReset
		peerReset
		sinkClosed
		sinkHungUp
		sessionDeath
		ends
	)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := metrics.NewRegistry()
		conn := &recordConn{}
		s := newSession(conn, false, WithMetrics(NewMetrics(reg)))
		// The peer announces, opens stream 1 and, with a credit for nothing,
		// shows that it has this side's announcement: it is held to its window.
		var wire []byte
		wire = appendFrameHeader(wire, FrameHeaders, FlagWindow, 1, 2)
		wire = append(wire, 0, 0) // a block of no fields
		wire = appendFrameHeader(wire, FrameWindowUpdate, 0, 1, 4)
		wire = append(wire, 0, 0, 0, 0)
		feedParser(s, wire, nil)
		st := <-s.acceptCh

		sock, far := socketPair(t)
		w := &racyConn{UnixConn: sock}
		var gate sync.Mutex // held: the far end does not read
		var got []byte
		farDone := make(chan struct{})
		go func() {
			defer close(farDone)
			frng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 32<<10)
			for {
				gate.Lock()
				gate.Unlock()
				n, err := far.Read(buf[:1+frng.Intn(len(buf))])
				got = append(got, buf[:n]...)
				if err != nil {
					return
				}
			}
		}()
		type result struct {
			n   int64
			err error
		}
		returned := make(chan result, 1)
		go func() {
			n, err := st.WriteTo(w)
			returned <- result{n, err}
		}()

		var sent []byte
		sendWin := int64(streamWindow)
		data := func(flags uint8) {
			n := 1 + rng.Intn(maxFramePayload)
			if rng.Intn(3) > 0 {
				n = 1 + rng.Intn(300)
			}
			if win := sendWin + conn.credited(1) - int64(len(sent)); int64(n) > win {
				n = int(win) // an honest sender: no more than its window
			}
			if n == 0 && flags == 0 {
				return
			}
			frame := appendFrameHeader(nil, FrameData, flags, 1, n)
			payload := make([]byte, n)
			rng.Read(payload)
			sent = append(sent, payload...)
			feedParser(s, append(frame, payload...), nil)
		}
		stalled := false
		stall := func(on bool) {
			if on != stalled {
				if stalled = on; on {
					gate.Lock()
				} else {
					gate.Unlock()
				}
			}
		}
		how, when := rng.Intn(ends), 5+rng.Intn(50)
		for op := 0; op < when; op++ {
			switch k := rng.Intn(100); {
			case k < 70:
				data(0)
			case k < 80:
				stall(!stalled)
			case k < 90 && !stalled:
				soon(t, "the queue to drain", func() bool { return parked(st) })
			default:
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}

		// The end, and then frames behind it until WriteTo has noticed: a
		// failed sink is found by the write that needs it.
		sinkEnded := how == sinkClosed || how == sinkHungUp
		switch how {
		case endStream:
			data(FlagEndStream)
		case localReset:
			st.Reset()
		case peerReset:
			feedParser(s, appendFrameHeader(nil, FrameRST, 0, 1, 0), nil)
		case sinkClosed:
			w.Close()
		case sinkHungUp:
			far.Close()
		case sessionDeath:
			s.shutdown(ErrSessionClosed)
		}
		// What the stream has let go of by now is anybody's. Had it let go of
		// the chunk a WriteTo held up by the far end is still writing out,
		// this is the next owner tearing it.
		for _, tier := range []int{bufpool.TierSmall, bufpool.TierMedium, bufpool.TierLarge} {
			var taken [4]*[]byte
			for i := range taken {
				taken[i] = bufpool.Get(tier)
				clear((*taken[i])[:cap(*taken[i])])
			}
			for _, c := range taken {
				bufpool.Put(c)
			}
		}
		stall(false)
		var res result
		for deadline, waiting := time.Now().Add(5*time.Second), true; waiting; {
			select {
			case res = <-returned:
				waiting = false
			default:
				if time.Now().After(deadline) {
					t.Fatalf("seed %d: WriteTo did not return after end %d", seed, how)
				}
				if sinkEnded {
					data(0)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		var sink *SinkError
		switch {
		case sinkEnded != errors.As(res.err, &sink):
			t.Fatalf("seed %d, end %d: WriteTo returned %v: the wrong side is named", seed, how, res.err)
		case how == endStream && res.err != nil:
			t.Fatalf("seed %d: WriteTo returned %v after END_STREAM", seed, res.err)
		case how != endStream && res.err == nil:
			t.Fatalf("seed %d, end %d: WriteTo returned no error", seed, how)
		}

		// WriteTo has returned: the socket is the test's. Frames that still
		// arrive for the stream go nowhere near it.
		marker := []byte("<the test's own write>")
		if !sinkEnded {
			if how != endStream {
				data(0)
			}
			if _, err := w.Write(marker); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			w.Close()
		} else {
			st.Reset() // as a caller does whose sink has failed
			marker = nil
		}
		<-farDone
		far.Close()
		w.Close()
		if !bytes.HasSuffix(got, marker) {
			t.Fatalf("seed %d, end %d: the far end's last bytes are not the test's own write", seed, how)
		}
		got = got[:len(got)-len(marker)]
		if !bytes.HasPrefix(sent, got) {
			t.Fatalf("seed %d, end %d: the far end read %d bytes that are not a prefix of the %d sent", seed, how, len(got), len(sent))
		}
		if int64(len(got)) > res.n || !sinkEnded && int64(len(got)) != res.n {
			t.Fatalf("seed %d, end %d: WriteTo counted %d bytes, the far end read %d", seed, how, res.n, len(got))
		}
		if how == endStream && len(got) != len(sent) {
			t.Fatalf("seed %d: %d of %d bytes arrived before a clean end", seed, len(got), len(sent))
		}
		st.buf.mu.Lock()
		unacked := int64(st.buf.unacked)
		st.buf.mu.Unlock()
		// (A stream that was reset is owed nothing for its last write.)
		if credited := conn.credited(1); credited+unacked > res.n || credited+unacked < res.n && (how == endStream || sinkEnded) {
			t.Fatalf("seed %d, end %d: %d bytes consumed, %d acknowledged and %d counted toward the next credit", seed, how, res.n, credited, unacked)
		}
		if direct, buffered := reg.CounterValue("h2t.sink.direct_bytes"), reg.CounterValue("h2t.sink.buffered_bytes"); direct+buffered != res.n {
			t.Fatalf("seed %d, end %d: %d bytes direct and %d buffered make %d written", seed, how, direct, buffered, res.n)
		}
		if n := reg.CounterValue("h2t.window.overruns"); n != 0 {
			t.Fatalf("seed %d: a sender that kept to its window was reset for overrunning it", seed)
		}
		if held := s.ResidentBytes(); held != 0 {
			t.Fatalf("seed %d, end %d: %d bytes of chunks still held", seed, how, held)
		}
		s.shutdown(ErrSessionClosed)
	}
}
