package h2t

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// reusableNow is the reuse rule as Release applies it.
func reusableNow(st *Stream) bool {
	st.buf.mu.Lock()
	defer st.buf.mu.Unlock()
	return st.reusable()
}

// TestReuseRule: a stream is reused only once its request is over both
// ways and nothing but a new user can reach it. Each case is a stream
// this side opened, answered "ok" with END_STREAM by a server that reads
// the request to its end, and then left in one state.
func TestReuseRule(t *testing.T) {
	client, server := sessionPair(t)
	var sunk sync.Map // stream ID -> the server's stream, sunk rather than Read
	go func() {
		for {
			sst, err := server.Accept()
			if err != nil {
				return
			}
			go func() {
				if sst.Fields().Get("sink") != "" {
					sst.WriteTo(io.Discard)
					sunk.Store(sst.ID(), sst)
				} else {
					io.Copy(io.Discard, sst)
				}
				sst.SendMessage(Fields{{"status", "200"}}, []byte("ok"), true)
			}()
		}
	}()
	// finished opens a stream, ends it and waits for the whole answer,
	// unread, to be there.
	finished := func(t *testing.T, hdr Fields) *Stream {
		st, err := client.OpenStreamWith(hdr, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if n, _ := st.Buffered(); n == 2 {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatal("the answer did not come")
			}
		}
	}
	consume := func(t *testing.T, st *Stream) {
		if _, err := st.RecvHeaders(time.Second); err != nil {
			t.Fatal(err)
		}
		if b, err := io.ReadAll(st); err != nil || string(b) != "ok" {
			t.Fatalf("body %q, %v", b, err)
		}
	}
	cases := []struct {
		name  string
		hdr   Fields
		state func(t *testing.T, st *Stream) *Stream // leaves the stream in the case's state; returns the one to judge
		want  bool
	}{
		{"finished and consumed", nil, func(t *testing.T, st *Stream) *Stream { consume(t, st); return st }, true},
		{"reset after its end", nil, func(t *testing.T, st *Stream) *Stream { consume(t, st); st.Reset(); return st }, false},
		{"aborted by the session's death", nil, func(t *testing.T, st *Stream) *Stream {
			consume(t, st)
			st.abort(client, st.ID(), ErrSessionClosed) // a shutdown that took it from s.streams before its end
			return st
		}, false},
		{"sunk", Fields{{"sink", "1"}}, func(t *testing.T, st *Stream) *Stream {
			consume(t, st)
			v, ok := sunk.Load(st.ID())
			if !ok {
				t.Fatal("the server stream was not sunk")
			}
			return v.(*Stream)
		}, false},
		{"unread bytes", nil, func(t *testing.T, st *Stream) *Stream {
			if _, err := st.RecvHeaders(time.Second); err != nil {
				t.Fatal(err)
			}
			return st
		}, false},
		{"header slot not taken", nil, func(t *testing.T, st *Stream) *Stream {
			io.ReadAll(st)
			return st
		}, false},
		{"released before", nil, func(t *testing.T, st *Stream) *Stream {
			consume(t, st)
			st.Release()
			return st
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := c.state(t, finished(t, c.hdr))
			if got := reusableNow(st); got != c.want {
				t.Fatalf("reusable = %v, want %v", got, c.want)
			}
		})
	}
}

// manualClient is a client session whose read side the test drives: wake
// takes in bytes as a read of the transport would and handles them, but
// leaves the end of the wake (releaseHeld) to the caller, who may act as
// a consumer would in between. What the session writes goes nowhere.
func manualClient(t *testing.T) (s *Session, wake func(seg []byte)) {
	s = newSession(&scriptConn{}, true)
	return s, func(seg []byte) {
		for len(seg) > 0 {
			n := copy(s.nextBuf(), seg)
			seg = seg[n:]
			if s.rerr = s.advance(n); s.rerr != nil {
				t.Fatal(s.rerr)
			}
		}
	}
}

func frameBytes(t FrameType, flags uint8, id uint32, payload []byte) []byte {
	return append(appendFrameHeader(nil, t, flags, id, len(payload)), payload...)
}

func blockBytes(f Fields) []byte { return appendFields(nil, f) }

// reopen releases st and opens the next stream on s, which must reuse
// st's memory for the case to say anything: the pool is emptied first,
// and the case skipped if the pool did not hand st back (the race
// detector has it drop a share of what it is given).
func reopen(t *testing.T, s *Session, st *Stream, end bool) *Stream {
	for streamPool.Get() != nil {
	}
	st.Release()
	next, err := s.OpenStreamWith(nil, nil, end)
	if err != nil {
		t.Fatal(err)
	}
	if next != st {
		t.Skip("the pool did not hand the released stream back")
	}
	return next
}

// TestTrailerBlockReachesOnlyItsStream: a block that ends a stream this
// side opened (trailers) ends the stream at once and waits for the end of
// the wake, so that a consumer woken by it finds the end too. By then the
// consumer, seeing the end, may have released the stream and the next
// stream reused its memory: the block goes nowhere. A consumer that waits
// for the block gets it.
func TestTrailerBlockReachesOnlyItsStream(t *testing.T) {
	for _, waits := range []bool{true, false} {
		s, wake := manualClient(t)
		st, err := s.OpenStreamWith(nil, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		wake(append(frameBytes(FrameHeaders, 0, st.ID(), blockBytes(Fields{{"status", "200"}})),
			frameBytes(FrameData, 0, st.ID(), []byte("x"))...))
		s.releaseHeld()
		if _, err := st.RecvHeaders(time.Second); err != nil {
			t.Fatal(err)
		}
		if b, err := io.ReadAll(io.LimitReader(st, 1)); err != nil || string(b) != "x" {
			t.Fatalf("body %q, %v", b, err)
		}
		wake(frameBytes(FrameHeaders, FlagEndStream, st.ID(), blockBytes(Fields{{"trailer", "mine"}})))
		if n, end := st.Buffered(); n != 0 || !end {
			t.Fatalf("Buffered() = %d, %v after the END_STREAM block, want 0, true", n, end)
		}
		if waits {
			s.releaseHeld() // the wake ends
			if h, err := st.RecvHeaders(time.Second); err != nil || h.Get("trailer") != "mine" {
				t.Fatalf("the stream's own trailer block: %v, %v", h, err)
			}
			continue
		}
		next := reopen(t, s, st, true)
		s.releaseHeld() // the wake ends
		next.buf.mu.Lock()
		got := next.hdr
		next.buf.mu.Unlock()
		if got != nil {
			t.Fatalf("the stream that reused the memory holds %v, a block of the stream before", got)
		}
	}
}

// TestDataAfterEndReachesNoStream: a DATA frame the peer sends for a
// stream it already ended goes nowhere, including the part of it that
// comes in a later read — by when the stream may have been released and
// its memory reused.
func TestDataAfterEndReachesNoStream(t *testing.T) {
	s, wake := manualClient(t)
	st, err := s.OpenStreamWith(nil, nil, false) // still uploading: the stream stays s's
	if err != nil {
		t.Fatal(err)
	}
	wake(append(frameBytes(FrameHeaders, 0, st.ID(), blockBytes(Fields{{"status", "200"}})),
		frameBytes(FrameData, FlagEndStream, st.ID(), []byte("ok"))...))
	s.releaseHeld()
	late := frameBytes(FrameData, 0, st.ID(), bytes.Repeat([]byte("L"), 100))
	wake(late[:frameHeaderLen+40])
	s.releaseHeld()
	if _, err := st.RecvHeaders(time.Second); err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(st); err != nil || string(b) != "ok" {
		t.Fatalf("body %q, %v", b, err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	next := reopen(t, s, st, false)
	wake(late[frameHeaderLen+40:])
	s.releaseHeld()
	if n, _ := next.Buffered(); n != 0 {
		t.Fatalf("the stream that reused the memory got %d bytes of a DATA frame for the stream before", n)
	}
	if held := s.ResidentBytes(); held != 0 {
		t.Fatalf("%d bytes of chunks held", held)
	}
}

// TestReleaseRacingRemoteEnd: the stream leaves the session's streams
// before its end is visible. The consumer may release the stream the
// instant it sees the end and the next stream reuse its memory, under a
// new ID: were the old ID still in s.streams then, a frame for it would
// find the new stream, and a reader that dropped the old ID late could
// read the new one off the stream. The session's lock is held across the
// end, so that a reader that drops late is caught waiting for it.
func TestReleaseRacingRemoteEnd(t *testing.T) {
	cc, raw := net.Pipe()
	client := NewSession(cc, true)
	defer client.Close()
	go io.Copy(io.Discard, raw)
	st, err := client.OpenStreamWith(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID()
	resp := append(frameBytes(FrameHeaders, 0, id, blockBytes(Fields{{"status", "200"}})),
		frameBytes(FrameData, FlagEndStream, id, []byte("12345678"))...)
	if _, err := raw.Write(resp[:len(resp)-4]); err != nil { // the DATA frame is looked up, its end is to come
		t.Fatal(err)
	}
	if _, err := st.RecvHeaders(time.Second); err != nil {
		t.Fatal(err)
	}
	ended := make(chan error, 1)
	go func() {
		b, err := io.ReadAll(st)
		if err == nil && string(b) != "12345678" {
			err = fmt.Errorf("body %q", b)
		}
		ended <- err
	}()
	client.mu.Lock()
	if _, err := raw.Write(resp[len(resp)-4:]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ended:
		still := client.streams[id] == st
		client.mu.Unlock()
		if still {
			t.Fatal("the stream's end is visible while the session still maps its ID to it")
		}
	case <-time.After(100 * time.Millisecond): // the reader waits for the lock with the end unseen
		client.mu.Unlock()
		if err := <-ended; err != nil {
			t.Fatal(err)
		}
	}
	st.Release()
	next, err := client.OpenStreamWith(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if client.lookup(id) != nil || client.lookup(next.ID()) != next {
		t.Fatalf("after the release the session maps %d to %p and %d to %p, want nil and %p",
			id, client.lookup(id), next.ID(), client.lookup(next.ID()), next)
	}
}

// TestReleasedStreamsCarryNoCrossTalk: many GETs and streamed POSTs at
// once over one session pair, each with a body of its own, both sides
// releasing every stream they are done with. Some are reset by the client
// at a random point and the session pair is killed once mid-run. A
// request may fail; one that completes gets its own answer, to the byte.
func TestReleasedStreamsCarryNoCrossTalk(t *testing.T) {
	serve := func(server *Session) {
		for {
			sst, err := server.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sst.Release()
				body, err := io.ReadAll(sst)
				if err != nil {
					return
				}
				tag := sst.Fields().Get("tag")
				sst.SendMessage(Fields{{"tag", tag}}, append([]byte(tag+":"), body...), true)
			}()
		}
	}
	var mu sync.Mutex
	client, server := sessionPair(t)
	go serve(server)
	current := func() *Session {
		mu.Lock()
		defer mu.Unlock()
		return client
	}
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	var killOnce sync.Once
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					killOnce.Do(func() {
						c, s := sessionPair(t)
						go serve(s)
						mu.Lock()
						old := client
						client = c
						mu.Unlock()
						old.Close()
					})
				}
				tag := fmt.Sprintf("w%d-%d", w, i)
				if err := exchange(current(), rng, tag); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// exchange is one request of TestReleasedStreamsCarryNoCrossTalk: a GET,
// or a POST whose body follows in pieces, reset at a random point now and
// then. Only an answer that is not the request's own is an error.
func exchange(client *Session, rng *rand.Rand, tag string) error {
	post := rng.Intn(2) == 0
	body := bytes.Repeat([]byte(tag), 1+rng.Intn(64))
	resetAt := -1
	if rng.Intn(6) == 0 {
		resetAt = rng.Intn(3)
	}
	st, err := client.OpenStreamWith(Fields{{"tag", tag}}, nil, !post)
	if err != nil {
		return nil // the session was killed
	}
	defer st.Release()
	if resetAt == 0 {
		st.Reset()
		return nil
	}
	if post {
		for rest := body; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(len(body)))
			if _, err := st.Write(rest[:n]); err != nil {
				return nil
			}
			rest = rest[n:]
		}
		if err := st.CloseWrite(); err != nil {
			return nil
		}
	}
	h, err := st.RecvHeaders(5 * time.Second)
	if errors.Is(err, ErrSessionClosed) || errors.Is(err, ErrStreamReset) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%s: %v", tag, err)
	}
	if got := h.Get("tag"); got != tag {
		return fmt.Errorf("%s: answered with the headers of %s", tag, got)
	}
	if resetAt == 1 {
		st.Reset()
		return nil
	}
	got, err := io.ReadAll(st)
	if err != nil {
		return nil
	}
	want := tag + ":"
	if post {
		want += string(body)
	}
	if string(got) != want {
		return fmt.Errorf("%s: answered with %.40q, want %.40q", tag, got, want)
	}
	return nil
}
