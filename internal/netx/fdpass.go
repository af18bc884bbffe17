// Package netx provides the low-level socket plumbing that Socket Takeover
// (§4.1 of the paper) is built on:
//
//   - passing open file descriptors between processes over a UNIX domain
//     socket with sendmsg(2)/SCM_RIGHTS, the exact kernel mechanism the
//     paper describes ("these FDs behave as though they have been created
//     with dup(2)" on the receiving side);
//   - creating TCP listeners and UDP packet sockets with SO_REUSEPORT so
//     multiple server threads accept and process packets independently;
//   - reconstructing net.Listener / net.PacketConn values from received
//     FDs.
//
// The FD-passing path uses real syscalls and therefore behaves identically
// whether the two endpoints are separate processes (production topology) or
// two instances inside one test process connected by a socketpair — the
// kernel neither knows nor cares.
package netx

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// soReusePort is SO_REUSEPORT on Linux. The syscall package does not export
// it on all Go versions, so it is pinned here; the value is part of the
// kernel ABI and stable.
const soReusePort = 0xf

// maxFDsPerMessage bounds how many descriptors a single control message
// carries. Linux caps SCM_RIGHTS at SCM_MAX_FD (253); we stay comfortably
// below it and chunk larger sets at a higher layer.
const maxFDsPerMessage = 128

// fdHookFunc intercepts FD-passing operations for deterministic fault
// injection (internal/faults chaos tests): op is "write" or "read"; for
// writes, data and fds are the outgoing message. Returning a non-nil
// error fails the operation before any syscall runs — simulating a
// sendmsg/recvmsg failure mid-handoff without a real peer crash.
type fdHookFunc func(op string, data []byte, fds []int) error

var fdHook atomic.Pointer[fdHookFunc]

// SetFDHook installs (or, with nil, removes) the process-wide FD hook.
// Safe for concurrent use; intended for tests only.
func SetFDHook(h fdHookFunc) {
	if h == nil {
		fdHook.Store(nil)
		return
	}
	fdHook.Store(&h)
}

func runFDHook(op string, data []byte, fds []int) error {
	if hp := fdHook.Load(); hp != nil {
		return (*hp)(op, data, fds)
	}
	return nil
}

// WriteFDs sends data plus the given file descriptors over the UNIX socket
// as a single message with an SCM_RIGHTS control message. len(fds) must be
// at most maxFDsPerMessage.
func WriteFDs(conn *net.UnixConn, data []byte, fds []int) error {
	if len(fds) > maxFDsPerMessage {
		return fmt.Errorf("netx: %d fds exceeds per-message limit %d", len(fds), maxFDsPerMessage)
	}
	if err := runFDHook("write", data, fds); err != nil {
		return fmt.Errorf("netx: sendmsg: %w", err)
	}
	var oob []byte
	if len(fds) > 0 {
		oob = syscall.UnixRights(fds...)
	}
	n, oobn, err := conn.WriteMsgUnix(data, oob, nil)
	if err != nil {
		return fmt.Errorf("netx: sendmsg: %w", err)
	}
	if n != len(data) || oobn != len(oob) {
		return fmt.Errorf("netx: short sendmsg: data %d/%d oob %d/%d", n, len(data), oobn, len(oob))
	}
	return nil
}

// ReadFDs reads one message from the UNIX socket, returning the data bytes
// and any file descriptors received via SCM_RIGHTS. The received FDs have
// CLOEXEC set. If the message carries no control data, fds is nil. A
// message that carried more descriptors than the control buffer holds
// (MSG_CTRUNC: the kernel closed the rest) is an error, and the ones that
// did arrive are closed.
func ReadFDs(conn *net.UnixConn, buf []byte) (data []byte, fds []int, err error) {
	if err := runFDHook("read", nil, nil); err != nil {
		return nil, nil, fmt.Errorf("netx: recvmsg: %w", err)
	}
	oob := make([]byte, syscall.CmsgSpace(4*maxFDsPerMessage))
	n, oobn, flags, _, err := conn.ReadMsgUnix(buf, oob)
	if err != nil {
		return nil, nil, fmt.Errorf("netx: recvmsg: %w", err)
	}
	data = buf[:n]
	if oobn == 0 {
		return data, nil, nil
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil {
		return nil, nil, fmt.Errorf("netx: parse control message: %w", err)
	}
	for _, m := range msgs {
		got, err := syscall.ParseUnixRights(&m)
		if err != nil {
			// Not an SCM_RIGHTS message; skip it.
			continue
		}
		fds = append(fds, got...)
	}
	if flags&syscall.MSG_CTRUNC != 0 {
		for _, fd := range fds {
			syscall.Close(fd)
		}
		return nil, nil, fmt.Errorf("netx: control message truncated after %d fds", len(fds))
	}
	for _, fd := range fds {
		syscall.CloseOnExec(fd)
	}
	return data, fds, nil
}

// OpenFDCount returns the number of file descriptors the process holds
// open, by counting /proc/self/fd. It is the ground truth the FD-
// accounting tests compare before/after an aborted hand-off: every dup
// the takeover path makes — sender-side extraction, SCM_RIGHTS delivery,
// receiver-side reconstruction — must be matched by a close on both the
// commit and the abort edges, or the leak shows up here.
func OpenFDCount() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, fmt.Errorf("netx: reading /proc/self/fd: %w", err)
	}
	return len(ents), nil
}

// SocketPair returns both ends of a connected AF_UNIX SOCK_STREAM pair as
// *net.UnixConn. It is how tests wire an old and a new "instance"
// together without touching the filesystem.
func SocketPair() (a, b *net.UnixConn, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("netx: socketpair: %w", err)
	}
	toConn := func(fd int, name string) (*net.UnixConn, error) {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // net.FileConn dups the fd
		c, err := net.FileConn(f)
		if err != nil {
			return nil, err
		}
		uc, ok := c.(*net.UnixConn)
		if !ok {
			c.Close()
			return nil, fmt.Errorf("netx: socketpair end is %T, not *net.UnixConn", c)
		}
		return uc, nil
	}
	a, err = toConn(fds[0], "socketpair-a")
	if err != nil {
		syscall.Close(fds[1])
		return nil, nil, err
	}
	b, err = toConn(fds[1], "socketpair-b")
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// ListenerFD extracts a duplicated file descriptor from a TCP listener.
// The caller owns the returned FD and must close it.
func ListenerFD(ln *net.TCPListener) (int, error) {
	return dupSocketFD(ln, "listener")
}

// PacketConnFD extracts a duplicated file descriptor from a UDP socket.
// The caller owns the returned FD and must close it.
func PacketConnFD(pc *net.UDPConn) (int, error) {
	return dupSocketFD(pc, "packetconn")
}

// dupSocketFD duplicates a socket's fd via SyscallConn — NOT via
// File()/Fd(). os.File.Fd() restores blocking mode on the descriptor, and
// because O_NONBLOCK lives in the open file description shared by every
// dup (including the original listener and any copy already handed to
// another process), that flips the live listener into blocking mode: its
// accept threads then sit in accept(2) where Close cannot interrupt them,
// and an aborted hand-off would wedge the old instance's drain path
// forever. Control() runs with the fd pinned and touches no flags.
func dupSocketFD(c syscall.Conn, kind string) (int, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return -1, fmt.Errorf("netx: %s SyscallConn: %w", kind, err)
	}
	dup := -1
	var dupErr error
	if err := rc.Control(func(fd uintptr) {
		dup, dupErr = syscall.Dup(int(fd))
		if dupErr == nil {
			syscall.CloseOnExec(dup)
		}
	}); err != nil {
		return -1, fmt.Errorf("netx: %s control: %w", kind, err)
	}
	if dupErr != nil {
		return -1, fmt.Errorf("netx: dup: %w", dupErr)
	}
	return dup, nil
}

// ListenerFromFD reconstructs a *net.TCPListener from a received FD. The FD
// is duplicated by net.FileListener; the input fd is closed before
// returning (ownership transfers in).
func ListenerFromFD(fd int, name string) (*net.TCPListener, error) {
	f := os.NewFile(uintptr(fd), name)
	defer f.Close()
	ln, err := net.FileListener(f)
	if err != nil {
		return nil, fmt.Errorf("netx: FileListener: %w", err)
	}
	tln, ok := ln.(*net.TCPListener)
	if !ok {
		ln.Close()
		return nil, fmt.Errorf("netx: fd %d is a %T, not *net.TCPListener", fd, ln)
	}
	return tln, nil
}

// PacketConnFromFD reconstructs a *net.UDPConn from a received FD. The
// input fd is closed before returning (ownership transfers in).
func PacketConnFromFD(fd int, name string) (*net.UDPConn, error) {
	f := os.NewFile(uintptr(fd), name)
	defer f.Close()
	pc, err := net.FilePacketConn(f)
	if err != nil {
		return nil, fmt.Errorf("netx: FilePacketConn: %w", err)
	}
	upc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("netx: fd %d is a %T, not *net.UDPConn", fd, pc)
	}
	return upc, nil
}

// soCookie is SO_COOKIE on Linux: a getsockopt that returns the kernel's
// unique, immutable 64-bit identity for the socket. Not exported by the
// syscall package; the value is part of the kernel ABI and stable.
const soCookie = 57

// SocketCookie returns the kernel's SO_COOKIE identity for a socket. Two
// descriptors referring to the same open socket — the original listener
// and any dup passed over SCM_RIGHTS — report the same cookie, so the
// takeover tests use it to prove that a re-armed listener (drain-undo) is
// the very kernel socket the clients were already connecting to, not a
// fresh bind.
func SocketCookie(c syscall.Conn) (uint64, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, fmt.Errorf("netx: SyscallConn: %w", err)
	}
	var cookie uint64
	var getErr error
	if err := rc.Control(func(fd uintptr) {
		cookie, getErr = socketCookieFD(int(fd))
	}); err != nil {
		return 0, fmt.Errorf("netx: control: %w", err)
	}
	return cookie, getErr
}

// socketCookieFD is SocketCookie for a raw descriptor.
func socketCookieFD(fd int) (uint64, error) {
	var cookie uint64
	sz := uint32(8)
	_, _, errno := syscall.Syscall6(syscall.SYS_GETSOCKOPT,
		uintptr(fd), uintptr(syscall.SOL_SOCKET), uintptr(soCookie),
		uintptr(unsafe.Pointer(&cookie)), uintptr(unsafe.Pointer(&sz)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("netx: getsockopt SO_COOKIE: %w", errno)
	}
	return cookie, nil
}

// reusePortControl is a net.ListenConfig Control hook that sets
// SO_REUSEADDR and SO_REUSEPORT before bind.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var ctrlErr error
	err := c.Control(func(fd uintptr) {
		if err := syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
			ctrlErr = err
			return
		}
		ctrlErr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	})
	if err != nil {
		return err
	}
	return ctrlErr
}

// ListenTCPReusePort opens a TCP listener with SO_REUSEPORT set, so several
// listeners (in one or many processes) can bind the same VIP address.
func ListenTCPReusePort(addr string) (*net.TCPListener, error) {
	lc := net.ListenConfig{Control: reusePortControl}
	ln, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netx: listen tcp reuseport %s: %w", addr, err)
	}
	return ln.(*net.TCPListener), nil
}

// ListenUDPReusePort opens a UDP socket with SO_REUSEPORT set. This is the
// configuration whose kernel socket-ring flux during a release causes the
// mis-routing shown in Fig. 2d; Socket Takeover avoids the flux by passing
// the FD so the ring never changes.
func ListenUDPReusePort(addr string) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: reusePortControl}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netx: listen udp reuseport %s: %w", addr, err)
	}
	return pc.(*net.UDPConn), nil
}
