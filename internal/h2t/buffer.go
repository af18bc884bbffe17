package h2t

import (
	"bufio"
	"io"
	"slices"
	"sync"
)

// recvBuffer is an unbounded byte buffer with blocking reads. The session
// reader goroutine fills it with DATA payloads; stream consumers Read.
// Unbounded buffering stands in for HTTP/2 flow control (see package
// comment). Buffered bytes are data[off:]. Consuming by advancing off
// (rather than reslicing data) keeps the backing array, so a stream that
// is drained as fast as it fills reuses one allocation for its whole life
// instead of growing a fresh array every time a fill follows a reslice.
type recvBuffer struct {
	mu   sync.Mutex
	cond *sync.Cond
	data []byte
	off  int
	// filling is true while readFrom reads into the spare capacity behind
	// data with the lock released; Read must leave data where it is.
	filling bool
	eof     bool  // peer half-closed cleanly
	err     error // terminal error (RST / session death)
}

func newRecvBuffer() *recvBuffer {
	b := &recvBuffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// readFrom moves the next n bytes of r behind the buffered data. The
// bytes land in the stream's own buffer with no scratch in between, and
// become readable together, once all n have arrived. After a terminal
// state they are discarded. Only the session reader calls it.
func (b *recvBuffer) readFrom(r *bufio.Reader, n int) error {
	if n == 0 {
		return nil
	}
	b.mu.Lock()
	if b.eof || b.err != nil {
		b.mu.Unlock()
		_, err := r.Discard(n)
		return err
	}
	if b.off == len(b.data) {
		// Fully drained: rewind and reuse the backing array.
		b.data = b.data[:0]
		b.off = 0
	} else if b.off > 0 && len(b.data)+n > cap(b.data) {
		// Would grow: compact first so the dead head isn't copied into
		// (and kept alive by) the new, larger array.
		b.data = b.data[:copy(b.data, b.data[b.off:])]
		b.off = 0
	}
	b.data = slices.Grow(b.data, n)
	end := len(b.data)
	dst := b.data[end : end+n]
	b.filling = true
	b.mu.Unlock()

	_, err := io.ReadFull(r, dst)

	b.mu.Lock()
	b.filling = false
	if err == nil && !b.eof && b.err == nil {
		b.data = b.data[:end+n]
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	return err
}

// setEOF marks a clean end of stream after buffered data drains.
func (b *recvBuffer) setEOF() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.eof = true
	b.cond.Broadcast()
}

// fail terminates the stream with err (delivered after buffered data).
func (b *recvBuffer) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil && !b.eof {
		b.err = err
	}
	b.cond.Broadcast()
}

// buffered reports what the next Read returns without blocking: n bytes,
// or, when n is 0, whether it returns the stream's end or its error.
func (b *recvBuffer) buffered() (n int, end bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n = len(b.data) - b.off
	return n, n == 0 && (b.eof || b.err != nil)
}

// Read implements io.Reader, blocking until data, EOF, or error.
func (b *recvBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.off < len(b.data) {
			n := copy(p, b.data[b.off:])
			b.off += n
			if b.off == len(b.data) && !b.filling {
				b.data = b.data[:0]
				b.off = 0
			}
			return n, nil
		}
		if b.err != nil {
			return 0, b.err
		}
		if b.eof {
			return 0, io.EOF
		}
		b.cond.Wait()
	}
}
