package netx

// Declarations only this package's tests call: no non-test code uses them.

import (
	"net"
	"os"
	"syscall"
	"testing"
)

// Batched reports whether the kernel recvmmsg path is active.
func (r *RecvRing) Batched() bool { return r.raw != nil }

// Stats snapshots the ring's counters.
func (r *RecvRing) Stats() batchStats {
	return batchStats{recvCalls: r.cCalls.Value(), recvPkts: r.cPkts.Value()}
}

// Batched reports whether the kernel sendmmsg path is active.
func (s *SendRing) Batched() bool { return s.raw != nil }

// Stats snapshots the ring's counters.
func (s *SendRing) Stats() batchStats {
	return batchStats{sendFlushes: s.cFlush.Value(), sendPkts: s.cPkts.Value()}
}

// Written returns how many bytes TryWrite has put on the connection.
func (w *TryWriter) Written() int64 { return w.total }

// batchStats is a point-in-time copy of a ring's counters; a ring fills
// in its own direction.
type batchStats struct {
	recvCalls   int64 // recvmmsg invocations (or fallback ReadFrom calls)
	recvPkts    int64 // datagrams received
	sendFlushes int64 // sendmmsg invocations (or fallback WriteTo calls)
	sendPkts    int64 // datagrams sent
}

// socketPair wires an old and a new "instance" together on both ends of
// an AF_UNIX socketpair, without touching the filesystem.
func socketPair(t *testing.T) (a, b *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := func(fd int) *net.UnixConn {
		f := os.NewFile(uintptr(fd), "socketpair")
		defer f.Close() // net.FileConn dups the fd
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.UnixConn)
	}
	return end(fds[0]), end(fds[1])
}
