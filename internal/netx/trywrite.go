package netx

import "syscall"

// A TryWriter writes to a connection's descriptor without ever waiting for
// it, for code that must not block — a wakeHandler's wake: a wake never
// waits — and has somewhere else to put what is left over. TryWrite is
// RawConn.Write with a callback that never asks for the wait, so it takes
// the descriptor's write lock as every write does: the owner arranges that
// nobody is inside a blocking Write of the connection meanwhile.
type TryWriter struct {
	rc    syscall.RawConn
	try   func(fd uintptr) bool // bound once so that TryWrite allocates nothing
	buf   []byte
	n     int
	total int64
}

// NewTryWriter returns a TryWriter of c, or nil when c does not give up
// its descriptor.
func NewTryWriter(c syscall.Conn) *TryWriter {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil
	}
	w := &TryWriter{rc: rc}
	w.try = func(fd uintptr) bool {
		for {
			if n, err := syscall.Write(int(fd), w.buf); err != syscall.EINTR {
				w.n = max(n, 0)
				return true
			}
		}
	}
	return w
}

// TryWrite makes one write(2) of b and returns how much of it the socket
// took at once: nothing when it has no room, has failed or is closed, which
// the next blocking Write of the connection reports.
func (w *TryWriter) TryWrite(b []byte) int {
	w.buf, w.n = b, 0
	w.rc.Write(w.try) // fails on a closed connection, with w.n still 0
	w.buf = nil
	w.total += int64(w.n)
	return w.n
}
