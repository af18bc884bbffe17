package takeover

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestPeerOfAnotherUIDRefused: the takeover path is left at mode 0600,
// and a peer whose SO_PEERCRED names another uid is answered with an
// ABORT that carries no descriptor, counted as a failed hand-off, while
// the sender keeps its sockets and goes on serving the path.
func TestPeerOfAnotherUIDRefused(t *testing.T) {
	a, _ := pair(t)
	if uid, err := peerUID(a); err != nil || uid != os.Getuid() {
		t.Fatalf("peerUID of a socketpair = %d, %v; want this process's %d", uid, err, os.Getuid())
	}

	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	path := filepath.Join(t.TempDir(), "takeover.sock")
	handoffErr := make(chan error, 1)
	srv := &Server{Set: set, OnHandoffError: func(err error) { handoffErr <- err }}
	if err := srv.Listen(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("takeover path mode = %v, %v; want 0600", fi.Mode().Perm(), err)
	}
	realUID := peerUID
	peerUID = func(*net.UnixConn) (int, error) { return os.Getuid() + 1, nil }
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
		peerUID = realUID
	}()

	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.(*net.UnixConn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var got []byte
	buf, oob := make([]byte, 4096), make([]byte, 4096)
	for {
		n, oobn, _, _, err := conn.ReadMsgUnix(buf, oob)
		if oobn != 0 {
			t.Fatalf("a refused peer was sent %d bytes of control data (descriptors)", oobn)
		}
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) || n == 0 {
			break
		}
		if err != nil {
			t.Fatalf("reading the refusal: %v", err)
		}
	}
	if len(got) < 5 || got[0] != msgAbort {
		t.Fatalf("refused peer got %q, want one ABORT frame", got)
	}
	select {
	case err := <-handoffErr:
		if !strings.Contains(err.Error(), "refused") {
			t.Fatalf("hand-off error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the refusal was not reported as a failed hand-off")
	}
	again, err := net.Dial("unix", path)
	if err != nil {
		t.Fatalf("the sender stopped serving its path after the refusal: %v", err)
	}
	again.Close()
}
