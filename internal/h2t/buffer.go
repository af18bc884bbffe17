package h2t

import (
	"encoding/binary"
	"io"
	"sync"

	"zdr/internal/bufpool"
)

// streamWindow is the most DATA a sender may have outstanding on one
// stream: sent and not yet acknowledged by a WINDOW_UPDATE. It covers
// loopback's and a datacenter link's bandwidth-delay product with room to
// spare, and four frames of it in flight keep the receiver's consumer
// busy while a credit travels back. It is a constant on both sides; the
// session as a whole is bounded by max-concurrent-streams times this.
const streamWindow = 256 << 10

// creditThreshold is how many consumed bytes a receiver lets accumulate
// before it acknowledges them: half the window, so that a sender which
// has filled the window always has a credit on its way by the time the
// consumer is half through it, and a message under half a window is never
// acknowledged at all.
const creditThreshold = streamWindow / 2

// inlineChunks is the room for chunk pointers inside the buffer itself: a
// window of unread data is at most a partly read chunk, three full ones
// and a partly filled one. Only a peer that keeps no window (see
// Session.peerWindow) makes the queue spill to the heap.
const inlineChunks = 5

// recvBuffer is a stream's receive side: a queue of pooled chunks with
// blocking reads. The session reader fills it with DATA payloads, read
// from the transport straight into a chunk; the stream's consumer Reads,
// or its sink's writer writes them out of the chunks (Stream.Sink), and
// each chunk goes back to the pool the moment it is drained, so an empty
// buffer holds no memory. How much the peer may put in it is bounded by
// the stream's credit, which the consumer hands out (see consumed). While
// a sink is attached and nothing is queued the reader writes each payload
// to its socket itself and queues only what the socket does not take at
// once (put).
//
// A chunk's length is its filled part. Every chunk but the last is full.
// The first chunk of an empty buffer is of the smallest tier that holds
// the frame that needs it, later ones are TierLarge, which is a frame.
//
// The buffer is part of its Stream, whose size an idle relayed stream
// holds: hence the inline array, and hence the session, which accounts the
// chunk memory held, being passed in and not kept here.
type recvBuffer struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu

	chunks []*[]byte // starts as inline[:0]
	inline [inlineChunks]*[]byte
	size   int // unread bytes
	// unacked counts bytes consumed since the last credit. size + unacked
	// is what the peer has sent and not been given back (admits).
	unacked int
	// off is the read position in chunks[0], at most a frame: with the
	// flags beside it, one word of every Stream.
	off uint32
	// filling is true while the session reader has the spare capacity of
	// the last chunk to read into (room), the lock released, and draining
	// while the sink's writer has the filled part of the first to write out:
	// those chunks stay where they are, and after a failure whichever of
	// the two comes back last lets go of them (drop).
	filling, draining bool
	eof               bool  // peer half-closed cleanly
	released          bool  // the stream's user let go of it (Stream.Release)
	err               error // terminal error (RST / session death)
}

func (b *recvBuffer) init() {
	b.cond.L = &b.mu
	b.chunks = b.inline[:0]
}

// push appends an empty chunk that holds at least n bytes. mu is held.
func (b *recvBuffer) push(s *Session, n int) *[]byte {
	c := bufpool.Get(n)
	s.hold(cap(*c))
	*c = (*c)[:0]
	b.chunks = append(b.chunks, c)
	return c
}

// release returns chunks lo to hi of the queue to the pool. mu is held.
func (b *recvBuffer) release(s *Session, lo, hi int) {
	for _, c := range b.chunks[lo:hi] {
		s.hold(-cap(*c))
		bufpool.Put(c)
	}
	rest := lo + copy(b.chunks[lo:], b.chunks[hi:])
	clear(b.chunks[rest:])
	if b.chunks = b.chunks[:rest]; rest == 0 {
		b.chunks = b.inline[:0] // lets go of a spilled queue
	}
	if lo == 0 {
		b.off = 0
	}
}

// drop returns every chunk but the pinned ones to the pool. mu is held.
func (b *recvBuffer) drop(s *Session) {
	lo, hi := 0, len(b.chunks)
	if b.draining && hi > 0 {
		lo = 1
	}
	if b.filling && hi > lo {
		hi--
	}
	b.release(s, lo, hi)
}

// tail returns the chunk the next bytes of a payload land in, n of them
// to come: the last while it has room, else a new one. mu is held.
func (b *recvBuffer) tail(s *Session, n int) *[]byte {
	if k := len(b.chunks); k == 0 {
		return b.push(s, n)
	} else if c := b.chunks[k-1]; len(*c) < cap(*c) {
		return c
	}
	return b.push(s, bufpool.TierLarge)
}

// admits reports whether a frame may come for the stream, open while the
// peer has not ended it, and whether a DATA frame of n bytes fits its
// window, queued and consumed-but-unacknowledged bytes on one account.
func (b *recvBuffer) admits(n int) (open, fits bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.eof, b.size+b.unacked+n <= streamWindow
}

// put takes in src, the part of a DATA payload that came in the session's
// read buffer, more bytes of the frame still to come; after the stream's
// end it goes nowhere. With a sink attached (Stream.Sink) src is first
// offered to its socket in one write that does not wait: under mu the
// reader is that socket's only writer, since the sink's writer writes only
// while size > 0 and exits at 0. What the socket took is consumed, the
// credit owed as the reader's replies are; the rest is queued, which starts
// the writer. Only the session reader calls put.
func (b *recvBuffer) put(s *Session, st *Stream, src []byte, more int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil || b.eof {
		return
	}
	if r := st.relay.Load(); r != nil && r.sink != nil && b.size == 0 {
		n := r.sink.TryWrite(src)
		r.written += int64(n)
		s.m.direct.Add(int64(n))
		if credit := b.consumed(n); credit > 0 && s.peerWindow.Load() {
			s.m.updates.Inc()
			s.owed = append(s.owed, tunnelFrame{Type: frameWindowUpdate, streamID: st.id,
				Payload: binary.BigEndian.AppendUint32(nil, uint32(credit))})
		}
		src = src[n:]
	}
	if len(src) > 0 {
		b.cond.Broadcast()
	}
	for len(src) > 0 {
		c := b.tail(s, len(src)+more)
		n := copy((*c)[len(*c):cap(*c)], src)
		*c = (*c)[:len(*c)+n]
		b.size += n
		src = src[n:]
	}
	st.startWriter()
}

// room returns where the next bytes of a DATA payload land, of which n are
// still to come: the room the last chunk has left, else a new chunk, so
// that they get there with no scratch in between. It is nil after a
// terminal state, when they are to be discarded. Until filled says how
// many were put there the room stays the caller's, and asked again room
// returns the same. Only the session reader calls the two.
func (b *recvBuffer) room(s *Session, n int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil || b.eof {
		if b.filling {
			b.filling = false
			b.drop(s) // fail left the chunk being filled to us
		}
		return nil
	}
	c := b.tail(s, n)
	b.filling = true
	filled := len(*c)
	return (*c)[filled:min(filled+n, cap(*c))]
}

// filled puts the first n bytes of the room handed out behind the
// buffered data.
func (b *recvBuffer) filled(s *Session, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filling = false
	if b.err != nil {
		b.drop(s) // as in room
		return
	}
	tail := b.chunks[len(b.chunks)-1]
	*tail = (*tail)[:len(*tail)+n]
	b.size += n
	b.cond.Broadcast()
}

// fail terminates the stream with err. Unread data is dropped and its
// chunks go back to the pool, unless the peer's END_STREAM came first:
// then what is buffered is the whole of what the peer sent, and it stays
// readable — except with abandon, by which the local consumer says it
// will read no more.
func (b *recvBuffer) fail(s *Session, err error, abandon bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil && (!b.eof || abandon) {
		b.err = err
		b.drop(s)
		b.size = 0
	}
	b.cond.Broadcast()
}

// buffered reports what the next Read returns without blocking: n bytes,
// or, when n is 0, whether it returns the stream's end or its error.
func (b *recvBuffer) buffered() (n int, end bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size, b.size == 0 && (b.eof || b.err != nil)
}

// take is Read, blocking until data, EOF, or error; credit is what the
// bytes it took have earned the peer (see consumed).
func (b *recvBuffer) take(s *Session, p []byte) (n, credit int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.size == 0 {
		if b.err != nil {
			return 0, 0, b.err
		}
		if b.eof {
			return 0, 0, io.EOF
		}
		b.cond.Wait()
	}
	for n < len(p) && b.size > 0 {
		c := copy(p[n:], (*b.chunks[0])[b.off:])
		n += c
		b.pop(s, c)
	}
	return n, b.consumed(n), nil
}

// pop takes the next n bytes of the first chunk out of the queue, and the
// chunk once it is drained, unless it is drained only as far as it is
// filled and more is landing in it. mu is held.
func (b *recvBuffer) pop(s *Session, n int) {
	b.off += uint32(n)
	b.size -= n
	if int(b.off) == len(*b.chunks[0]) && !(b.filling && len(b.chunks) == 1) {
		b.release(s, 0, 1)
	}
}

// consumed accounts n bytes the consumer, or its socket, has taken. credit
// is not zero when they carry unacked past creditThreshold: the peer is
// owed a WINDOW_UPDATE of that much. A peer that has sent END_STREAM sends
// no more and is owed none. mu is held.
func (b *recvBuffer) consumed(n int) (credit int) {
	if b.unacked += n; b.unacked > creditThreshold && !b.eof {
		credit, b.unacked = b.unacked, 0
	}
	return credit
}

// drained takes the first n bytes of the first chunk, which the sink's
// writer has written out, out of the queue and returns the credit they
// earn (see consumed). mu is held.
func (b *recvBuffer) drained(s *Session, n int) (credit int) {
	b.draining = false
	if b.err != nil {
		b.drop(s) // fail left the chunk being written out to us
		return 0
	}
	b.pop(s, n)
	return b.consumed(n)
}
