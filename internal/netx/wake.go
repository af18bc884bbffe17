package netx

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"zdr/internal/bufpool"
)

// wakeHandler is a connection's read side as a WakeReader drives it.
type wakeHandler interface {
	// ReadBuf returns the room the next read lands in, at least one byte
	// of it, and the same room until a read has brought something.
	ReadBuf() []byte
	// ServeWake is handed what a read brought: n bytes at the start of
	// ReadBuf's room, which Read returns too. It does with them all there
	// is to do — parse, serve, reply — and may block on anything except a
	// read of the connection or a Close of it that is not the WakeReader's.
	// n is 0 when a read found nothing: first in a Run, the connection idle
	// and alive; later, an edge that an earlier read had answered. The wait
	// follows either way, and a handler holding no bytes can give its room
	// back. done ends the Run.
	ServeWake(n int) (done bool)
}

// A Pump is the wakeHandler of a connection whose bytes are not parsed
// where they are read, only handed on: every read lands in a pooled
// bufpool.TierLarge buffer, taken for the read and given back once Forward
// has them, and goes to Forward, which says whether to go on. Forward
// waits for whoever takes the bytes, never for the connection they came
// from, to which it owes no write: a Pump's reader asks for ConfirmWaits,
// and a closer of the connection unblocks Forward first or goes through
// WakeReader.Close.
type Pump struct {
	Forward func(b []byte) (ok bool)
	buf     *[]byte // between ReadBuf and ServeWake
}

func (p *Pump) ReadBuf() []byte {
	if p.buf == nil {
		p.buf = bufpool.Get(bufpool.TierLarge)
	}
	return *p.buf
}

func (p *Pump) ServeWake(n int) (done bool) {
	done = n > 0 && !p.Forward((*p.buf)[:n])
	bufpool.Put(p.buf)
	p.buf = nil
	return done
}

// A WakeReader runs a connection's read side as serve-per-wake, and is
// the only code that uses syscall.RawConn.Read to that end. conn.Read
// pays two reads for a message that is waited for: the one that returns
// EAGAIN, and the one after the netpoller's wake. Run stays inside one
// RawConn.Read for as many messages as its handler serves: every wake is
// one non-blocking read and a ServeWake, another read only if the kernel
// says that more is queued behind what that one took, and then the wait
// for the next edge with no read in between.
//
// That wait cannot lose an edge. poll.FD.RawRead (internal/poll/
// fd_unix.go) resets the descriptor's readiness once, before the first
// call of its callback, and that call always reads; between a later read
// and waitRead nothing resets it, and netpollblock (runtime/netpoll.go)
// consumes a pdReady posted since. What would lose one is a callback
// that declines a call without having read, which wake never does.
//
// What the wait can do is follow an edge that stood for two events, data
// and the peer's FIN behind it: the read that took the data was not told
// of the FIN, and no edge is left to tell. Hence the reads are recvmsg(2)
// on a socket with TCP_INQ set, whose answer comes with the count of
// bytes still queued, a FIN counting as one: the wait follows only a read
// behind which nothing was. A socket that does not take the option (not
// TCP, a kernel before 4.18) is read until EAGAIN, as conn.Read does. An
// RST behind data is not counted. It fails the next write to the
// connection, which most handlers owe each message they read; one that
// owes none asks for ConfirmWaits.
//
// A connection that hides its descriptor (fault-injected, net.Pipe) is
// driven by a loop of Reads calling the same handler.
//
// The price is that the handler runs inside RawConn.Read, which holds the
// descriptor's read lock: a Read of conn there would wait for itself, and
// so would net.Conn.Close, from any goroutine, until the handler returns.
// Hence Read, which never touches conn during a wake, and Close, which
// never waits for one.
type WakeReader struct {
	conn net.Conn
	rc   syscall.RawConn // nil when conn hides its descriptor
	h    wakeHandler
	onFD func(fd uintptr) bool // wake, bound once so that Run allocates nothing
	// oob is where recvmsg puts the queued-bytes count, when inq: the
	// socket took TCP_INQ, which the first wake (asked) asks of it.
	oob        [cmsgInqLen]byte
	asked, inq bool

	rest   []byte // of the last read, what Read has yet to return
	inWake bool
	err    error // what ended a Run from inside wake

	state atomic.Int32
	// confirms: waits behind data are looked into (ConfirmWaits), by
	// backstop, which is set while armed.
	confirms bool
	armed    atomic.Bool
	backstop *time.Timer
}

// wakeBackstop bounds how long an RST that reached the socket behind data
// can go unseen by a reader nobody writes for. A busy connection pays one
// timer and one peek per wakeBackstop for it.
const wakeBackstop = 100 * time.Millisecond

// ConfirmWaits, called before the first Run, has every wait that follows
// data looked into once, wakeBackstop later (confirm), and ended if the
// connection turns out to be dead. It is for a handler that does not
// write to the connection for every message it reads from it.
func (w *WakeReader) ConfirmWaits() { w.confirms = true }

// States of a WakeReader whose descriptor is in reach: Close must know
// whether a ServeWake is running, and a ServeWake whether Close has been.
const (
	wakeIdle    = iota
	wakeServing // a ServeWake is running
	wakeClosed  // Close closed conn
	wakeHanded  // Close found a ServeWake running: Run closes conn
)

var errWakeSpent = errors.New("netx: read beyond what the wake brought")

// TCP_INQ is both the socket option and the type of the control message
// (TCP_CM_INQ) that answers it: a cmsghdr, 16 bytes on the 64-bit ports,
// and an int32, padded to 24.
const (
	tcpInq     = 36
	cmsgInqLen = 24
)

// wakeReads counts the reads made by wake, by descriptor modulo its
// length and a cache line apart: a reader's count stays with the
// processor its goroutine runs on.
var wakeReads [8]struct {
	n atomic.Uint64
	_ [56]byte
}

// WakeReads returns how many reads WakeReaders have made of descriptors
// in their reach. They are recvmsg(2), which /proc/self/io's syscr does
// not count.
func WakeReads() (n uint64) {
	for i := range wakeReads {
		n += wakeReads[i].n.Load()
	}
	return n
}

// Init makes w the reader of conn, served by h.
func (w *WakeReader) Init(conn net.Conn, h wakeHandler) {
	*w = WakeReader{conn: conn, h: h}
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			w.rc, w.onFD = rc, w.wake
		}
	}
}

// Run serves wakes until ServeWake says done, which is nil, or the
// connection fails: io.EOF at the peer's close, and otherwise what
// conn.Read would have returned — a timeout when the read deadline
// passes, before a wake or during the wait for one, net.ErrClosed once
// the connection is closed.
func (w *WakeReader) Run() error {
	if w.rc == nil {
		return w.runReads()
	}
	w.err = nil
	err := w.rc.Read(w.onFD)
	if w.state.Load() == wakeHanded {
		w.conn.Close()
	}
	if err != nil {
		return err
	}
	return w.err
}

// wake is RawConn.Read's callback: false waits for the next edge.
func (w *WakeReader) wake(fd uintptr) (done bool) {
	if !w.asked {
		w.asked = true
		w.inq = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpInq, 1) == nil
	}
	for {
		buf, oob := w.h.ReadBuf(), w.oob[:0]
		if w.inq {
			oob = w.oob[:]
		}
		n, oobn, _, _, err := syscall.Recvmsg(int(fd), buf, oob, 0)
		if err == syscall.EINTR {
			continue
		}
		wakeReads[fd%uintptr(len(wakeReads))].n.Add(1)
		switch {
		case err == syscall.EAGAIN:
			// At entry this is news, the connection is quiet; later it is
			// an edge that a read before this one had already answered.
			return w.serve(nil)
		case err != nil:
			w.err = &net.OpError{Op: "read", Net: w.conn.LocalAddr().Network(), Source: w.conn.LocalAddr(),
				Addr: w.conn.RemoteAddr(), Err: os.NewSyscallError("read", err)}
			return true
		case n == 0:
			w.err = io.EOF
			return true
		}
		if w.serve(buf[:n]) {
			return true
		}
		if w.quiet(oobn) {
			if w.confirms && !w.armed.Load() && w.armed.CompareAndSwap(false, true) {
				if w.backstop == nil {
					w.backstop = time.AfterFunc(wakeBackstop, w.confirm)
				} else {
					w.backstop.Reset(wakeBackstop)
				}
			}
			return false
		}
	}
}

// confirm is the backstop: it asks the socket what a read would find, and
// if that is the connection's end it makes the socket say so once more,
// to a wake that may be waiting behind data. Whatever else it finds, data
// or nothing, came or will come with an edge of its own; on a connection
// that has been closed it finds no descriptor.
func (w *WakeReader) confirm() {
	w.armed.Store(false)
	w.rc.Control(func(fd uintptr) {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		if n == 0 || n < 0 && err != syscall.EAGAIN && err != syscall.EINTR {
			syscall.Shutdown(int(fd), syscall.SHUT_RD) // wakes who waits to read
		}
	})
}

// quiet reports whether the kernel said, in the oobn bytes of control
// message that came with a read, that nothing is queued behind it.
func (w *WakeReader) quiet(oobn int) bool {
	if oobn < cmsgInqLen {
		return false
	}
	level, typ := binary.NativeEndian.Uint32(w.oob[8:]), binary.NativeEndian.Uint32(w.oob[12:])
	return level == syscall.IPPROTO_TCP && typ == tcpInq && binary.NativeEndian.Uint32(w.oob[16:]) == 0
}

func (w *WakeReader) serve(b []byte) (done bool) {
	if !w.state.CompareAndSwap(wakeIdle, wakeServing) {
		w.err = net.ErrClosed
		return true
	}
	w.rest, w.inWake = b, true
	done = w.h.ServeWake(len(b))
	w.inWake = false
	if !w.state.CompareAndSwap(wakeServing, wakeIdle) {
		w.err = net.ErrClosed
		return true
	}
	return done
}

// runReads is Run for a hidden descriptor, which cannot be asked without
// waiting whether it has something to read and is taken to be quiet.
func (w *WakeReader) runReads() error {
	if w.serve(nil) {
		return w.err
	}
	for {
		buf := w.h.ReadBuf()
		n, err := w.conn.Read(buf)
		if n > 0 && w.serve(buf[:n]) {
			return w.err
		}
		if err != nil {
			return err
		}
	}
}

// Read returns what the last wake brought and no Read has returned yet,
// and after that reads the connection — between Runs, for the message
// that a wake did not hold whole. During a wake it fails where it would
// have to wait.
func (w *WakeReader) Read(p []byte) (int, error) {
	if len(w.rest) > 0 {
		n := copy(p, w.rest)
		w.rest = w.rest[n:]
		return n, nil
	}
	if w.inWake {
		return 0, errWakeSpent
	}
	return w.conn.Read(p)
}

// Close closes the connection, from any goroutine, without waiting for a
// ServeWake: one that is running finds both directions shut down, and the
// descriptor is closed when it returns.
func (w *WakeReader) Close() error {
	if w.rc == nil {
		return w.conn.Close()
	}
	for {
		switch w.state.Load() {
		case wakeIdle:
			if w.state.CompareAndSwap(wakeIdle, wakeClosed) {
				return w.conn.Close()
			}
		case wakeServing:
			if w.state.CompareAndSwap(wakeServing, wakeHanded) {
				return w.rc.Control(func(fd uintptr) { syscall.Shutdown(int(fd), syscall.SHUT_RDWR) })
			}
		default:
			return net.ErrClosed
		}
	}
}
