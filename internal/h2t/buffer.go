package h2t

import (
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
// and each chunk goes back to the pool the moment it is drained, so an
// empty buffer holds no memory. How much the peer may put in it is
// bounded by the stream's credit, which Read hands out (see take).
//
// A chunk's length is its filled part. Every chunk but the last is full.
// The first chunk of an empty buffer is of the smallest tier that holds
// the frame that needs it, later ones are TierLarge, which is a frame.
//
// The buffer is part of its Stream, whose size every small request pays
// twice per hop: hence the inline array, and hence the session, which
// accounts the chunk memory held, being passed in and not kept here.
type recvBuffer struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu

	chunks []*[]byte // starts as inline[:0]
	inline [inlineChunks]*[]byte
	size   int // unread bytes
	// unacked counts bytes Read has handed to the consumer since the
	// last credit.
	unacked int
	// off is the read position in chunks[0], at most a frame: with the
	// flags beside it, one word of every Stream.
	off uint32
	// filling is true while the session reader has the spare capacity of
	// the last chunk to read into (room), the lock released; that chunk
	// must stay where it is.
	filling bool
	eof     bool  // peer half-closed cleanly
	err     error // terminal error (RST / session death)
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

// release returns the first n chunks to the pool. mu is held.
func (b *recvBuffer) release(s *Session, n int) {
	for _, c := range b.chunks[:n] {
		s.hold(-cap(*c))
		bufpool.Put(c)
	}
	rest := copy(b.chunks, b.chunks[n:])
	clear(b.chunks[rest:])
	if b.chunks = b.chunks[:rest]; rest == 0 {
		b.chunks = b.inline[:0] // lets go of a spilled queue
	}
	b.off = 0
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
			b.release(s, len(b.chunks)) // fail left the chunk being filled to us
		}
		return nil
	}
	var tail *[]byte
	if len(b.chunks) > 0 {
		tail = b.chunks[len(b.chunks)-1]
	}
	switch {
	case tail == nil:
		tail = b.push(s, n)
	case len(*tail) == cap(*tail):
		tail = b.push(s, bufpool.TierLarge)
	}
	b.filling = true
	filled := len(*tail)
	return (*tail)[filled:min(filled+n, cap(*tail))]
}

// filled puts the first n bytes of the room handed out behind the
// buffered data.
func (b *recvBuffer) filled(s *Session, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filling = false
	if b.err != nil {
		b.release(s, len(b.chunks)) // as in room
		return
	}
	tail := b.chunks[len(b.chunks)-1]
	*tail = (*tail)[:len(*tail)+n]
	b.size += n
	b.cond.Broadcast()
}

// setEOF marks a clean end of stream after buffered data drains.
func (b *recvBuffer) setEOF() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.eof = true
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
		n := len(b.chunks)
		if b.filling {
			n-- // the session reader has room in the last chunk; it lets go of it
		}
		b.release(s, n)
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

// take is Read, blocking until data, EOF, or error. credit is not zero
// when this read took the bytes consumed and not yet acknowledged past
// creditThreshold: the caller owes the peer a WINDOW_UPDATE of that
// much. A peer that has sent END_STREAM sends no more and is owed none.
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
		head := *b.chunks[0]
		c := copy(p[n:], head[b.off:])
		n += c
		b.off += uint32(c)
		b.size -= c
		if int(b.off) == len(head) {
			if b.filling && len(b.chunks) == 1 {
				break // drained as far as it is filled; more is landing in it
			}
			b.release(s, 1)
		}
	}
	if b.unacked += n; b.unacked > creditThreshold && !b.eof {
		credit, b.unacked = b.unacked, 0
	}
	return n, credit, nil
}
