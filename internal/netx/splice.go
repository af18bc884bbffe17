// Zero-copy TCP relaying: splice(2) through a pooled pipe pair, and the
// Relay selector that decides — per pump, per direction — between the
// kernel path and a pooled userspace copy.
//
// The selection rule is Libra's "selective data copying": the kernel
// zero-copy path is taken only when nobody needs to see the bytes in
// userspace. Both endpoints must unwrap to real *net.TCPConn values;
// fault-injector wrappers, PPR capture tees, h2t streams and anything
// else that interposes on Read/Write fails the type assertion and keeps
// the pooled-copy path, where every byte flows through the wrapper. The
// split is therefore structural — armed instrumentation cannot be
// silently bypassed by the fast path.
//
// Pipe pairs are pooled per process and must never cross a Socket
// Takeover: descriptors for an in-flight splice belong to the generation
// that opened them. Drain terminates in-flight
// splices by closing their TCP endpoints as usual; DrainPipePool releases
// the idle pairs so a retiring generation holds no stray pipe fds — and
// so fd-audit tests can assert a clean table.
package netx

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"

	"zdr/internal/bufpool"
	"zdr/internal/metrics"
)

// splice(2) flags and fcntl(2) pipe-resize command. The syscall package
// does not export them; the values are kernel ABI and stable.
const (
	spliceFMove     = 0x1
	spliceFNonblock = 0x2
	fSetPipeSz      = 1031 // F_SETPIPE_SZ
)

// splicePipeSize is the requested pipe capacity. At 1 MiB a single
// splice-in/splice-out round moves everything a deep socket buffer
// holds — measured at ~2 syscalls/MB against the copy path's ~32.
// Best-effort — the kernel may clamp to /proc/sys/fs/pipe-max-size, and
// the 64 KiB default still works.
const splicePipeSize = 1 << 20

// spliceChunk caps the bytes requested per splice call. The kernel moves
// what fits and reports it, so one call drains whatever the socket has
// buffered up to the pipe capacity.
const spliceChunk = 1 << 20

// maxPooledPipes bounds the idle pipe-pair pool. Each pair is two fds;
// beyond this, pairs are closed on release rather than pooled.
const maxPooledPipes = 8

// Relay accounting. Package-global: the relay selector is called from
// every pump in the process, so the counters live in their own registry
// rather than any one server's.
var (
	relayReg = metrics.NewRegistry()
	// cSpliceBytes counts bytes moved by the kernel zero-copy path.
	cSpliceBytes = relayReg.Counter("netx.relay.splice_bytes")
	// cCopyBytes counts bytes moved by the pooled userspace copy path.
	cCopyBytes = relayReg.Counter("netx.relay.copy_bytes")
	// cSpliceFallbacks counts relays that looked spliceable but fell back
	// (pipe exhaustion, kernel EINVAL/ENOSYS before any byte moved).
	cSpliceFallbacks = relayReg.Counter("netx.relay.splice_fallbacks")
	// cSpliceCalls counts splice(2) invocations — the syscall cost of the
	// zero-copy path, comparable against the copy path's read+write pairs.
	cSpliceCalls = relayReg.Counter("netx.relay.splice_calls")
)

// RelayMetrics returns the process-wide relay accounting registry
// (netx.relay.{splice_bytes,copy_bytes,splice_fallbacks,splice_calls}).
func RelayMetrics() *metrics.Registry { return relayReg }

// RelayStats is a point-in-time copy of the relay counters.
type RelayStats struct {
	SpliceBytes     int64
	CopyBytes       int64
	SpliceFallbacks int64
	SpliceCalls     int64
}

// ReadRelayStats snapshots the process-wide relay counters.
func ReadRelayStats() RelayStats {
	return RelayStats{
		SpliceBytes:     cSpliceBytes.Value(),
		CopyBytes:       cCopyBytes.Value(),
		SpliceFallbacks: cSpliceFallbacks.Value(),
		SpliceCalls:     cSpliceCalls.Value(),
	}
}

// splicePipe is one pipe pair used as the kernel-side bounce buffer.
type splicePipe struct {
	r, w int
}

func (p *splicePipe) close() {
	syscall.Close(p.r)
	syscall.Close(p.w)
}

var pipePool struct {
	mu   sync.Mutex
	free []*splicePipe
}

// getPipe returns a pipe pair from the pool, creating one if none are
// idle. Pipes are opened O_NONBLOCK|O_CLOEXEC: CLOEXEC matters because
// Socket Takeover execs the next generation — pipe fds must never leak
// across the hand-off.
func getPipe() (*splicePipe, error) {
	pipePool.mu.Lock()
	if n := len(pipePool.free); n > 0 {
		p := pipePool.free[n-1]
		pipePool.free = pipePool.free[:n-1]
		pipePool.mu.Unlock()
		return p, nil
	}
	pipePool.mu.Unlock()
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return nil, err
	}
	// Best-effort resize; a clamped or refused size still splices.
	syscall.Syscall(syscall.SYS_FCNTL, uintptr(fds[1]), fSetPipeSz, splicePipeSize)
	return &splicePipe{r: fds[0], w: fds[1]}, nil
}

// putPipe releases a pipe pair. A dirty pipe — bytes stranded in it by a
// mid-drain error — is closed, never pooled: the stranded bytes would
// corrupt the next relay that borrowed it.
func putPipe(p *splicePipe, dirty bool) {
	if dirty {
		p.close()
		return
	}
	pipePool.mu.Lock()
	if len(pipePool.free) < maxPooledPipes {
		pipePool.free = append(pipePool.free, p)
		pipePool.mu.Unlock()
		return
	}
	pipePool.mu.Unlock()
	p.close()
}

// DrainPipePool closes every idle pooled pipe pair and returns how many
// were closed. A generation entering its terminal drain calls this so it
// exits with no pipe fds open; the succeeding generation re-populates its
// own pool on first splice. Also the reset point for fd-audit tests.
func DrainPipePool() int {
	pipePool.mu.Lock()
	free := pipePool.free
	pipePool.free = nil
	pipePool.mu.Unlock()
	for _, p := range free {
		p.close()
	}
	return len(free)
}

// Relay moves bytes from src to dst until EOF, like io.Copy, choosing the
// transport per Libra's selective-split rule: splice(2) when both
// endpoints are bare *net.TCPConn values, a pooled-buffer copy otherwise.
// The copy path is a plain Read/Write loop: it asks neither end for
// ReaderFrom or WriterTo, so the bytes stay in the pooled buffer and pass
// through any interposed wrapper, which is exactly what fault injectors
// and PPR capture rely on. Errors and short writes are io.Copy's. An h2t
// stream is a dst here and never a src: Stream.Sink is that relay.
//
// The third case is the copy loop with a bare *net.TCPConn for src only:
// the reads are a WakeReader's Pump, one per message where src.Read makes
// two, and the writes happen inside its wake, under src's read lock; a
// relay waiting for its next message holds no buffer. Whoever closes src
// while dst can block must unblock dst first (the Origin's relayMQTT
// resets the stream before it closes the broker connection): a Close of
// src waits for a Write to dst under way.
func Relay(dst io.Writer, src io.Reader) (int64, error) {
	s, wakes := src.(*net.TCPConn)
	if d, ok := dst.(*net.TCPConn); ok && wakes {
		n, handled, err := splice(d, s)
		if handled {
			return n, err
		}
		cSpliceFallbacks.Inc()
		wakes = false
	}
	if wakes {
		written, err := relayWakes(dst, s)
		cCopyBytes.Add(written)
		return written, err
	}
	bp := bufpool.Get(bufpool.TierLarge)
	defer bufpool.Put(bp)
	var written int64
	var err error
	for err == nil {
		nr, rerr := src.Read(*bp)
		if nr > 0 {
			var nw int
			nw, err = relayWrite(dst, (*bp)[:nr])
			written += int64(nw)
		}
		if rerr == io.EOF {
			break
		}
		if err == nil {
			err = rerr
		}
	}
	cCopyBytes.Add(written)
	return written, err
}

// relayWrite is one Write of the copy path, its result held to io.Copy's
// rules.
func relayWrite(dst io.Writer, b []byte) (int, error) {
	nw, err := dst.Write(b)
	if nw < 0 || nw > len(b) {
		return 0, errors.New("netx: invalid write result")
	}
	if err == nil && nw < len(b) {
		err = io.ErrShortWrite
	}
	return nw, err
}

// relayWakes is the copy path from a connection a WakeReader can read.
func relayWakes(dst io.Writer, src *net.TCPConn) (written int64, err error) {
	var wr WakeReader
	wr.Init(src, &Pump{Forward: func(b []byte) bool {
		var nw int
		nw, err = relayWrite(dst, b)
		written += int64(nw)
		return err == nil
	}})
	wr.ConfirmWaits()
	if rerr := wr.Run(); err == nil && rerr != io.EOF {
		err = rerr
	}
	return written, err
}

// splice relays src→dst through a pooled pipe pair until EOF using
// splice(2), so payload bytes never enter userspace. handled reports
// whether the kernel path ran: false (with written==0) means the caller
// should fall back to a userspace copy — pipe creation failed, or the
// kernel refused the very first splice (EINVAL/ENOSYS/EOPNOTSUPP).
// Partial writes are accounted: written counts only bytes that reached
// dst, and a mid-stream error reports the true count (bytes stranded in
// the pipe are discarded with it).
func splice(dst, src *net.TCPConn) (written int64, handled bool, err error) {
	srcRC, serr := src.SyscallConn()
	if serr != nil {
		return 0, false, nil
	}
	dstRC, derr := dst.SyscallConn()
	if derr != nil {
		return 0, false, nil
	}
	p, perr := getPipe()
	if perr != nil {
		return 0, false, nil
	}
	dirty := false
	defer func() { putPipe(p, dirty) }()

	for {
		// Socket → pipe. EAGAIN means the socket has no data: return
		// false from the callback and let the runtime poller wait for
		// readability (deadlines and Close interrupt it like any read).
		var moved int64
		var spliceErr error
		waitErr := srcRC.Read(func(fd uintptr) bool {
			for {
				n, e := syscall.Splice(int(fd), nil, p.w, nil, spliceChunk, spliceFMove|spliceFNonblock)
				if e == syscall.EINTR {
					continue
				}
				if e == syscall.EAGAIN {
					return false
				}
				moved, spliceErr = n, e
				return true
			}
		})
		cSpliceCalls.Inc()
		if waitErr != nil {
			return written, true, waitErr
		}
		if spliceErr != nil {
			if written == 0 && spliceUnsupported(spliceErr) {
				return 0, false, nil
			}
			return written, true, spliceErr
		}
		if moved == 0 {
			return written, true, nil // EOF
		}

		// Pipe → socket, looping until the pipe is empty again. The pipe
		// is dirty for the duration: an error now strands bytes in it.
		dirty = true
		for inPipe := moved; inPipe > 0; {
			var out int64
			var outErr error
			waitErr := dstRC.Write(func(fd uintptr) bool {
				for {
					n, e := syscall.Splice(p.r, nil, int(fd), nil, int(inPipe), spliceFMove|spliceFNonblock)
					if e == syscall.EINTR {
						continue
					}
					if e == syscall.EAGAIN {
						return false
					}
					out, outErr = n, e
					return true
				}
			})
			cSpliceCalls.Inc()
			if waitErr != nil {
				return written, true, waitErr
			}
			if outErr != nil {
				return written, true, outErr
			}
			if out == 0 {
				return written, true, io.ErrUnexpectedEOF
			}
			inPipe -= out
			written += out
			cSpliceBytes.Add(out)
		}
		dirty = false
	}
}

// spliceUnsupported reports kernel refusals that mean "use a copy", as
// opposed to stream errors that mean the relay itself failed.
func spliceUnsupported(err error) bool {
	return err == syscall.EINVAL || err == syscall.ENOSYS || err == syscall.EOPNOTSUPP
}
