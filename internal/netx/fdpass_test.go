package netx

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestSocketPairRoundTrip(t *testing.T) {
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	msg := []byte("hello")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestWriteFDsTooMany(t *testing.T) {
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	fds := make([]int, 129)
	if err := WriteFDs(a, []byte("x"), fds); err == nil {
		t.Fatal("expected error for >128 fds")
	}
}

func TestReadFDsNoControlData(t *testing.T) {
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	if err := WriteFDs(a, []byte("plain"), nil); err != nil {
		t.Fatal(err)
	}
	data, fds, err := ReadFDs(b, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "plain" || fds != nil {
		t.Fatalf("data=%q fds=%v", data, fds)
	}
}

// TestReadFDsTruncatedIsAnError sends more descriptors in one message than
// ReadFDs' control buffer holds: the kernel truncates the set (MSG_CTRUNC),
// and ReadFDs must say so and close what did arrive, not hand back a
// partial set as if it were whole.
func TestReadFDsTruncatedIsAnError(t *testing.T) {
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	base, err := OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	fds := make([]int, 200)
	for i := range fds {
		if fds[i], err = syscall.Dup(0); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = a.WriteMsgUnix([]byte("x"), syscall.UnixRights(fds...), nil)
	for _, fd := range fds {
		syscall.Close(fd)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadFDs(b, make([]byte, 16)); err == nil {
		t.Fatalf("ReadFDs returned %d of 200 fds and no error", len(got))
	}
	if n, err := OpenFDCount(); err != nil || n != base {
		t.Fatalf("open fds %d, want %d (%v)", n, base, err)
	}
}

// TestPassTCPListenerFD passes a live TCP listener's FD across a socketpair
// and accepts a connection on the reconstructed listener — the essence of
// Socket Takeover.
func TestPassTCPListenerFD(t *testing.T) {
	ln, err := ListenTCPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	fd, err := ListenerFD(ln)
	if err != nil {
		t.Fatal(err)
	}
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	if err := WriteFDs(a, []byte("takeover"), []int{fd}); err != nil {
		t.Fatal(err)
	}
	data, fds, err := ReadFDs(b, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "takeover" || len(fds) != 1 {
		t.Fatalf("data=%q fds=%v", data, fds)
	}
	ln2, err := ListenerFromFD(fds[0], "received")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()

	// "Old instance" closes its original FD copy; the dup from the message
	// keeps the socket alive — the paper's core claim: the listening socket
	// is never closed.
	ln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ln2.Accept()
		if err != nil {
			done <- err
			return
		}
		c.Close()
		done <- nil
	}()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial after original listener closed: %v", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("accept on reconstructed listener: %v", err)
	}
}

// TestPassUDPFD passes a UDP socket FD and receives a datagram through the
// reconstructed conn.
func TestPassUDPFD(t *testing.T) {
	pc, err := ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	addr := pc.LocalAddr().String()

	fd, err := PacketConnFD(pc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	if err := WriteFDs(a, []byte("udp"), []int{fd}); err != nil {
		t.Fatal(err)
	}
	_, fds, err := ReadFDs(b, make([]byte, 16))
	if err != nil || len(fds) != 1 {
		t.Fatalf("fds=%v err=%v", fds, err)
	}
	pc2, err := PacketConnFromFD(fds[0], "received-udp")
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	pc.Close() // old instance's handle gone; socket must stay alive

	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	pc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _, err := pc2.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("read on reconstructed udp socket: %v", err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("got %q", buf[:n])
	}
}

// TestPassMultipleFDs sends several listener FDs in one message, as the
// takeover protocol does for all VIP sockets at once.
func TestPassMultipleFDs(t *testing.T) {
	const n = 5
	var lns []*net.TCPListener
	var fds []int
	for i := 0; i < n; i++ {
		ln, err := ListenTCPReusePort("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		fd, err := ListenerFD(ln)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	a, b := socketPair(t)
	defer a.Close()
	defer b.Close()
	if err := WriteFDs(a, []byte("batch"), fds); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadFDs(b, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d fds, want %d", len(got), n)
	}
	for i, fd := range got {
		ln2, err := ListenerFromFD(fd, "recv")
		if err != nil {
			t.Fatalf("fd %d: %v", i, err)
		}
		if ln2.Addr().String() != lns[i].Addr().String() {
			t.Fatalf("fd %d bound to %s, want %s (order must be preserved)", i, ln2.Addr(), lns[i].Addr())
		}
		ln2.Close()
	}
}

// TestReusePortCoexistence verifies that two listeners can bind the same
// address with SO_REUSEPORT — the configuration Proxygen uses for UDP VIPs.
func TestReusePortCoexistence(t *testing.T) {
	ln1, err := ListenTCPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	ln2, err := ListenTCPReusePort(ln1.Addr().String())
	if err != nil {
		t.Fatalf("second reuseport bind failed: %v", err)
	}
	ln2.Close()

	pc1, err := ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc1.Close()
	pc2, err := ListenUDPReusePort(pc1.LocalAddr().String())
	if err != nil {
		t.Fatalf("second udp reuseport bind failed: %v", err)
	}
	pc2.Close()
}

// TestSharedAcceptQueue documents the shared-file-table behaviour the paper
// relies on: after FD passing, old and new listeners drain the SAME accept
// queue, so every connection is served by exactly one of them.
func TestSharedAcceptQueue(t *testing.T) {
	ln, err := ListenTCPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fd, err := ListenerFD(ln)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := ListenerFromFD(fd, "dup")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()

	const total = 20
	accepted := make(chan string, total*2)
	acceptLoop := func(l *net.TCPListener, tag string) {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
			accepted <- tag
		}
	}
	go acceptLoop(ln, "old")
	go acceptLoop(ln2, "new")

	for i := 0; i < total; i++ {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Close()
	}
	counts := map[string]int{}
	for i := 0; i < total; i++ {
		select {
		case tag := <-accepted:
			counts[tag]++
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d/%d connections accepted; counts=%v", i, total, counts)
		}
	}
	if counts["old"]+counts["new"] != total {
		t.Fatalf("counts=%v", counts)
	}
}

// TestListenerFDKeepsNonblocking pins the property behind the wedged-drain
// fix: extracting an fd for SCM_RIGHTS transfer must not flip the original
// listener's open file description into blocking mode (os.File.Fd() does
// exactly that, and O_NONBLOCK is shared across dups). A blocking listener
// cannot be Closed while an Accept is in flight — an aborted hand-off
// would then wedge the old instance's drain forever.
func TestListenerFDKeepsNonblocking(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tl := ln.(*net.TCPListener)

	fd, err := ListenerFD(tl)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)

	rc, err := tl.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var flags int
	var flagsErr error
	rc.Control(func(fd uintptr) {
		flags, flagsErr = unixFcntl(int(fd), syscall.F_GETFL, 0)
	})
	if flagsErr != nil {
		t.Fatal(flagsErr)
	}
	if flags&syscall.O_NONBLOCK == 0 {
		t.Fatal("ListenerFD flipped the original listener into blocking mode")
	}

	// The behavioural consequence: Close must interrupt a pending Accept
	// promptly instead of waiting for a connection that never comes.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		c, err := tl.Accept()
		if err == nil {
			c.Close()
		}
	}()
	time.Sleep(20 * time.Millisecond) // let Accept park
	closed := make(chan struct{})
	go func() { tl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind a pending Accept — listener is in blocking mode")
	}
	select {
	case <-acceptDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Accept never returned after Close")
	}
}

func unixFcntl(fd, cmd, arg int) (int, error) {
	r, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg))
	if e != 0 {
		return 0, e
	}
	return int(r), nil
}
