package h2t

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sinkRig is stream 1 of a session whose parser the test drives, the near
// end of a socket pair with the smallest send buffer its sink. The far end
// reads only when the test does. ends counts the calls of the sink's end
// callback and errs has what each was given; onReader is set by one that
// ran on the goroutine that plays the session reader, inside a wake.
type sinkRig struct {
	s        *Session
	st       *Stream
	w, far   *net.UnixConn
	ends     atomic.Int32
	errs     chan error
	reader   string
	onReader atomic.Bool
}

// goid returns the calling goroutine's number.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func newSinkRig(t *testing.T) *sinkRig {
	r := &sinkRig{s: newSession(&recordConn{}, false), errs: make(chan error, 4), reader: goid()}
	r.feed(append(appendFrameHeader(nil, FrameHeaders, FlagWindow, 1, 2), 0, 0))
	r.st = <-r.s.acceptCh
	r.w, r.far = socketPair(t)
	t.Cleanup(func() {
		r.w.Close()
		r.far.Close()
		r.s.shutdown(ErrSessionClosed)
	})
	r.st.Sink(r.w, func(err error) {
		r.st.Buffered() // under the stream's lock this would wait for ever
		if goid() == r.reader {
			r.onReader.Store(true)
		}
		r.ends.Add(1)
		r.errs <- err
	})
	return r
}

// feed hands wire to the parser as the reads its room makes of it, and
// pays after each what it came to owe, as Serve does.
func (r *sinkRig) feed(wire []byte) {
	for len(wire) > 0 {
		n := copy(r.s.nextBuf(), wire)
		wire = wire[n:]
		(*sessionReader)(r.s).ServeWake(n)
		r.s.payOwed()
	}
}

func (r *sinkRig) data(n int, flags uint8) {
	r.feed(append(appendFrameHeader(nil, FrameData, flags, 1, n), make([]byte, n)...))
}

// readFar reads n bytes at the far end.
func (r *sinkRig) readFar(t *testing.T, n int) {
	t.Helper()
	r.far.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	for n > 0 {
		k, err := r.far.Read(buf[:min(n, len(buf))])
		if err != nil {
			t.Fatalf("the far end, %d bytes short: %v", n, err)
		}
		n -= k
	}
}

// writers counts the goroutines that run a sink's writer, or are about to.
func writers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by zdr/internal/h2t.(*Stream).startWriter "))
}

// TestSinkWriterAndEnd: a stream's sink holds no goroutine while nothing
// is queued — the session reader writes what arrives — and a socket that
// refuses a write gets exactly one writer until its queue has drained, and
// none after. The sink's end callback runs exactly once, never inside a
// wake nor under the stream's lock, however the stream ends — the peer's
// END_STREAM, with or without a queue in front of it, or RST, the
// session's death, a failed write to the sink — and whatever comes after.
func TestSinkWriterAndEnd(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		soon(t, "no writer to be left of other tests", func() bool { return writers() == 0 })
		r := newSinkRig(t)
		r.data(100, 0)
		r.readFar(t, 100)
		if n := writers(); n != 0 {
			t.Fatalf("%d writers for a stream with nothing queued", n)
		}
		const frames = 4
		for i := 0; i < frames; i++ {
			r.data(maxFramePayload, 0)
			if queued, _ := r.st.Buffered(); queued == 0 {
				t.Fatal("a socket that reads nothing took a whole frame")
			}
			if n := writers(); n != 1 {
				t.Fatalf("%d writers for one queue", n)
			}
		}
		r.readFar(t, frames*maxFramePayload)
		soon(t, "the writer to exit", func() bool { return writers() == 0 })
		if queued, _ := r.st.Buffered(); queued != 0 {
			t.Fatalf("the writer exited with %d bytes queued", queued)
		}
		r.data(100, 0)
		r.readFar(t, 100)
		if n := writers(); n != 0 {
			t.Fatalf("%d writers once the queue had drained", n)
		}
	})

	for _, c := range []struct {
		name string
		end  func(t *testing.T, r *sinkRig)
		want func(error) bool
	}{
		{"END_STREAM", func(t *testing.T, r *sinkRig) { r.data(10, FlagEndStream) }, func(err error) bool { return err == nil }},
		{"END_STREAM behind a queue", func(t *testing.T, r *sinkRig) {
			r.data(maxFramePayload, 0)
			r.data(10, FlagEndStream)
			r.readFar(t, maxFramePayload+10)
		}, func(err error) bool { return err == nil }},
		{"RST", func(t *testing.T, r *sinkRig) { r.feed(appendFrameHeader(nil, FrameRST, 0, 1, 0)) },
			func(err error) bool { return errors.Is(err, ErrStreamReset) }},
		{"session death", func(t *testing.T, r *sinkRig) { r.s.shutdown(ErrSessionClosed) },
			func(err error) bool { return errors.Is(err, ErrSessionClosed) }},
		{"a failed sink write", func(t *testing.T, r *sinkRig) {
			r.far.Close()
			r.data(10, 0)
		}, func(err error) bool { var sink *SinkError; return errors.As(err, &sink) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newSinkRig(t)
			r.data(10, 0)
			c.end(t, r)
			select {
			case err := <-r.errs:
				if !c.want(err) {
					t.Fatalf("the end callback was given %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the end callback did not run")
			}
			// Everything else that ends a stream, after the end.
			r.data(10, FlagEndStream)
			r.st.Reset()
			r.s.shutdown(ErrSessionClosed)
			time.Sleep(20 * time.Millisecond)
			if n := r.ends.Load(); n != 1 {
				t.Fatalf("the end callback ran %d times", n)
			}
			if r.onReader.Load() {
				t.Fatal("the end callback ran inside a wake, on the session reader")
			}
		})
	}
}
