package takeover

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zdr/internal/netx"
)

// countOpenFDs walks /proc/self/fd — the lsof-style accounting the §5.1
// orphan-prevention tests are built on. The walk itself opens one fd (the
// directory), which readDir excludes by construction... it cannot, so
// callers compare two counts taken the same way and the bias cancels.
func countOpenFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("reading /proc/self/fd: %v", err)
	}
	return len(ents)
}

// waitFDCount polls until the open-FD count settles at want (closes of
// netpoll-registered sockets are asynchronous to the Close call).
func waitFDCount(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	got := countOpenFDs(t)
	for got != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = countOpenFDs(t)
	}
	return got
}

// TestReceiverCrashMidHandoff is the §5.1 abort scenario at the protocol
// layer: the receiver dies between the manifest frame (FDs already sent)
// and the ACK. The sender must (a) return an error, (b) leave the old
// instance fully in charge — its sockets still accept — and (c) close
// every dup'd FD it made for the transfer (no leaked dups).
func TestReceiverCrashMidHandoff(t *testing.T) {
	set := mustListen(t,
		VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	before := countOpenFDs(t)

	a, b := pair(t)
	received := make(chan []int, 1)
	go func() {
		// Fake receiver: read the manifest frame — at this point the
		// kernel has installed the dup'd FDs in our file table, the
		// moment the paper's crash window opens — then die without ACK.
		_, _, fds, _ := readFrame(b)
		b.Close()
		received <- fds
	}()

	if _, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, nil); err == nil {
		t.Fatal("handoff succeeded with a receiver that died before ACK")
	}
	a.Close()
	// The "crashed" receiver's kernel cleanup: its process exit would
	// close its copies; emulate that here since both ends share a file
	// table in-process.
	closeFDs(<-received)

	// (b) The old instance never lost its sockets: the TCP VIP accepts.
	acceptCh := make(chan error, 1)
	go func() {
		c, err := set.TCP("web").Accept()
		if err == nil {
			c.Close()
		}
		acceptCh <- err
	}()
	probe, err := net.DialTimeout("tcp", set.TCP("web").Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("old instance's VIP stopped accepting after the aborted handoff: %v", err)
	}
	probe.Close()
	if err := <-acceptCh; err != nil {
		t.Fatalf("accept after aborted handoff: %v", err)
	}

	// (c) FD accounting: sender dups and receiver copies are all gone.
	if got := waitFDCount(t, before); got != before {
		t.Fatalf("fd leak: %d open before handoff, %d after abort", before, got)
	}
}

// TestServerSurvivesReceiverCrash runs the same crash through the real
// takeover Server: the abort must fire OnHandoffError, must NOT fire
// OnDrainStart, and the server must keep serving so a retried deploy
// completes the takeover afterwards.
func TestServerSurvivesReceiverCrash(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	path := filepath.Join(t.TempDir(), "to.sock")

	aborted := make(chan error, 1)
	drained := make(chan struct{}, 1)
	srv := &Server{
		Set:              set,
		handshakeTimeout: 2 * time.Second,
		OnDrainStart:     func(Result) { drained <- struct{}{} },
		OnHandoffError: func(err error) {
			select {
			case aborted <- err:
			default:
			}
		},
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(path) }()
	defer srv.Close()
	waitForSocketFile(t, path)

	before := countOpenFDs(t)

	// Fake receiver: connect, take the manifest + FDs, die without ACK.
	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	uc := c.(*net.UnixConn)
	_, _, fds, err := readFrame(uc)
	if err != nil {
		t.Fatalf("fake receiver reading manifest: %v", err)
	}
	closeFDs(fds)
	uc.Close()

	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("OnHandoffError fired with nil error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("sender never noticed the receiver crash")
	}
	select {
	case <-drained:
		t.Fatal("aborted handoff started draining the old instance")
	default:
	}
	if got := waitFDCount(t, before); got != before {
		t.Fatalf("fd leak after abort: %d open before, %d after", before, got)
	}

	// A retried deploy now completes against the same, still-armed server.
	got, res, err := Connect(path, ReceiveOptions{timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("retried takeover after abort: %v", err)
	}
	defer got.Close()
	if res.OrphanedFDs != 0 || got.Len() != 1 {
		t.Fatalf("retried takeover adopted %d vips with %d orphans", got.Len(), res.OrphanedFDs)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("successful retry did not start the drain")
	}
	if err := <-done; err != nil {
		t.Fatalf("server exit: %v", err)
	}
}

// TestHandoffSendmsgFailureMidChunk uses the netx FD hook to fail the
// SECOND continuation frame of a large transfer: the sender errors and
// closes its dups; the receiver detects the short FD set, closes every
// FD it already adopted (orphan prevention), and nacks.
func TestHandoffSendmsgFailureMidChunk(t *testing.T) {
	vips := make([]VIP, 0, 96)
	for i := 0; i < 96; i++ {
		vips = append(vips, VIP{Name: vipName(i), Network: NetworkTCP, Addr: "127.0.0.1:0"})
	}
	set := mustListen(t, vips...)
	before := countOpenFDs(t)

	writes := 0
	netx.SetFDHook(func(op string, data []byte, fds []int) error {
		if op != "write" || len(fds) == 0 {
			return nil
		}
		writes++
		if writes == 2 {
			return errors.New("injected sendmsg failure")
		}
		return nil
	})
	defer netx.SetFDHook(nil)

	a, b := pair(t)
	recvErr := make(chan error, 1)
	go func() {
		_, _, err := receive(b, ReceiveOptions{timeout: 2 * time.Second})
		recvErr <- err
	}()
	_, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, nil)
	if err == nil {
		t.Fatal("handoff succeeded despite a failed fd chunk")
	}
	if !strings.Contains(err.Error(), "injected sendmsg failure") && !errors.Is(err, errRejected) {
		t.Fatalf("unexpected sender error: %v", err)
	}
	a.Close()
	if err := <-recvErr; err == nil {
		t.Fatal("receiver adopted a short fd set")
	}
	b.Close()
	netx.SetFDHook(nil)

	if got := waitFDCount(t, before); got != before {
		t.Fatalf("fd leak after mid-chunk failure: %d before, %d after", before, got)
	}
}

func vipName(i int) string {
	return "vip-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func waitForSocketFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("takeover socket %s never appeared", path)
}
