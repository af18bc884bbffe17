// Package bufpool provides tiered, reusable byte buffers for the data
// plane. Every hot copy loop in the repo (proxy pumps, h2t frame I/O,
// HTTP/1 message writes, quicx datagrams) moves bytes through
// short-lived scratch buffers; allocating them per unit of work makes
// the garbage collector a per-packet cost. This package fronts
// a small set of size-tiered sync.Pools so steady-state forwarding
// allocates nothing.
//
// Ownership rule (see DESIGN.md §8): the goroutine that calls Get must
// either Put the buffer itself or hand ownership to exactly one receiver
// who does. Data that outlives the buffer must be copied out before Put —
// nothing in this package retains or clears payload bytes, so a buffer
// must never be Put while any reader can still see it.
//
// The API trades a pointer indirection for zero-allocation round-trips:
// sync.Pool boxes interface values, so pooling raw []byte headers would
// cost one allocation per Put. Callers hold the *[]byte for the Put and
// slice it for I/O.
package bufpool

import (
	"bufio"
	"io"
	"sync"
)

// Tier sizes. Get rounds a request up to the smallest tier that fits;
// requests beyond the largest tier fall through to a plain allocation
// that Put discards.
const (
	TierSmall  = 4 << 10   // keep-alive and broker read room, the Origin's request heads, datagrams
	TierMedium = 16 << 10  // h2t frame scratch, MQTT pumps
	TierLarge  = 64 << 10  // max h2t frame / max datagram, proxy copy loops
	TierXLarge = 256 << 10 // a streamed http1 message's scratch, PPR body capture
)

var tiers = [...]int{TierSmall, TierMedium, TierLarge, TierXLarge}

var pools [len(tiers)]sync.Pool

func init() {
	for i, size := range tiers {
		size := size
		pools[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// tierFor returns the pool index for a size, or -1 if it exceeds every
// tier.
func tierFor(size int) int {
	for i, t := range tiers {
		if size <= t {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len(*p) >= size (len equals the tier size, so
// callers reading "as much as fits" get the whole tier). The buffer
// contents are unspecified. Callers must return it with Put.
func Get(size int) *[]byte {
	if i := tierFor(size); i >= 0 {
		return pools[i].Get().(*[]byte)
	}
	b := make([]byte, size)
	return &b
}

// Put returns a buffer obtained from Get to its tier. Buffers whose
// capacity matches no tier (oversize Get results, or foreign slices) are
// dropped for the collector. Put restores the full tier length, so a
// caller may shrink *p freely before returning it. nil is a no-op.
func Put(p *[]byte) {
	if p == nil {
		return
	}
	c := cap(*p)
	for i, t := range tiers {
		if c == t {
			*p = (*p)[:c]
			pools[i].Put(p)
			return
		}
	}
}

// Copy is io.Copy through a pooled TierLarge buffer: proxy relay loops
// use it so long-lived byte pumps don't each allocate io.Copy's internal
// 32 KiB scratch. Like io.CopyBuffer, the buffer is bypassed when src or
// dst implement the io.WriterTo / io.ReaderFrom fast paths.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	p := Get(TierLarge)
	defer Put(p)
	return io.CopyBuffer(dst, src, *p)
}

// readers pools the buffered readers accepted connections are read
// through: one that closes after a few messages, or waits with nothing
// buffered between them, gives its 4 KiB to the next.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// GetReader returns a pooled bufio.Reader reading r. The caller returns
// it with PutReader once nothing reads through it any more; what it has
// buffered then is dropped.
func GetReader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns a reader obtained from GetReader.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}
