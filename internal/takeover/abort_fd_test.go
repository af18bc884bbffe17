package takeover

// FD-lifecycle audit for the two-phase abort edges. Every descriptor the
// hand-off creates — the sender's dups, the kernel's SCM_RIGHTS copies,
// the receiver's reconstructed listeners — must be closed exactly once on
// every pre-commit abort path, measured against /proc/self/fd ground
// truth (netx.OpenFDCount). A leak leaves a live socket whose accept
// queue nobody drains (§5.1); a double-close races fd reuse and can kill
// an unrelated connection.

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"zdr/internal/netx"
)

// assertOldSetServes dials the sender's TCP VIP: after any abort the old
// instance must still be fully in charge.
func assertOldSetServes(t *testing.T, set *ListenerSet, name string) {
	t.Helper()
	acceptCh := make(chan error, 1)
	go func() {
		c, err := set.TCP(name).Accept()
		if err == nil {
			c.Close()
		}
		acceptCh <- err
	}()
	probe, err := net.DialTimeout("tcp", set.TCP(name).Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("old instance's VIP stopped accepting after the abort: %v", err)
	}
	probe.Close()
	if err := <-acceptCh; err != nil {
		t.Fatalf("accept after abort: %v", err)
	}
}

// TestAbortFDAuditArmFailure audits the edge the two-phase protocol
// exists for: the receiver adopts the FDs but fails to arm. The receiver
// must close every adopted socket and nack; the sender must classify the
// nack as a rejection (not start draining); and the process FD count must
// return to its pre-handoff baseline with zero orphans double-closed.
func TestAbortFDAuditArmFailure(t *testing.T) {
	set := mustListen(t,
		VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}

	a, b := pair(t)
	sendErr := make(chan error, 1)
	go func() {
		_, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, nil)
		sendErr <- err
	}()

	disarmed := false
	got, res, err := receive(b, ReceiveOptions{
		timeout: 2 * time.Second,
		Arm: func(s *ListenerSet, r *Result) error {
			if s.Len() != 2 {
				t.Errorf("Arm saw %d sockets, want 2", s.Len())
			}
			return errors.New("injected arm failure")
		},
		Disarm: func(s *ListenerSet) { disarmed = true; s.Close() },
	})
	if err == nil {
		t.Fatal("receiver completed a hand-off whose Arm failed")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("arm failure not classified as pre-commit abort: %v", err)
	}
	if got != nil || res != nil {
		t.Fatalf("aborted receive returned set=%v res=%v", got, res)
	}
	if disarmed {
		t.Fatal("Disarm ran for a failed Arm (arm must unwind itself)")
	}

	serr := <-sendErr
	if serr == nil {
		t.Fatal("sender committed against a receiver that never armed")
	}
	if !errors.Is(serr, errRejected) {
		t.Fatalf("sender error = %v, want ErrRejected", serr)
	}
	a.Close()
	b.Close()

	if got, _ := netx.OpenFDCount(); waitFDCount(t, before) != before {
		t.Fatalf("fd leak on arm-failure abort: %d before, %d after", before, got)
	}
	assertOldSetServes(t, set, "web")
	set.Close()
}

// TestAbortFDAuditPrepareAckLost audits the receiver-crash-shaped edge:
// the receiver arms, but its PREPARE-ACK never reaches the sender (the
// injected sendmsg failure stands in for a crash at the worst instant).
// The receiver must run Disarm — it was armed — and the audit must find
// every FD returned: the receiver's adopted listeners closed by Disarm,
// the sender's dups closed on its abort path.
func TestAbortFDAuditPrepareAckLost(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}

	netx.SetFDHook(func(op string, data []byte, fds []int) error {
		if op == "write" && len(data) > 0 && data[0] == msgPrepareAck {
			return errors.New("injected prepare-ack loss")
		}
		return nil
	})
	defer netx.SetFDHook(nil)

	a, b := pair(t)
	sendErr := make(chan error, 1)
	go func() {
		_, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, nil)
		sendErr <- err
		a.Close()
	}()

	disarmed := false
	_, _, err = receive(b, ReceiveOptions{
		timeout: 2 * time.Second,
		Arm:     func(*ListenerSet, *Result) error { return nil },
		Disarm:  func(s *ListenerSet) { disarmed = true; s.Close() },
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("lost prepare-ack not classified as abort: %v", err)
	}
	if !disarmed {
		t.Fatal("receiver armed but Disarm never ran")
	}
	b.Close()
	if err := <-sendErr; err == nil {
		t.Fatal("sender committed without ever seeing a prepare-ack")
	}
	netx.SetFDHook(nil)

	if got := waitFDCount(t, before); got != before {
		t.Fatalf("fd leak on lost prepare-ack: %d before, %d after", before, got)
	}
	assertOldSetServes(t, set, "web")
	set.Close()
}

// TestAbortFDAuditCommitLost audits the last abortable instant: the
// receiver is armed and acked, but the sender's COMMIT delivery fails.
// The sender must roll back (error, no drain); the receiver, seeing the
// connection die instead of a COMMIT, must disarm. Zero FDs may survive
// on either side.
func TestAbortFDAuditCommitLost(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}

	netx.SetFDHook(func(op string, data []byte, fds []int) error {
		if op == "write" && len(data) > 0 && data[0] == msgCommit {
			return errors.New("injected commit loss")
		}
		return nil
	})
	defer netx.SetFDHook(nil)

	a, b := pair(t)
	sendErr := make(chan error, 1)
	go func() {
		_, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, nil)
		sendErr <- err
		// The real sender (Server.ListenAndServe) closes the connection on
		// any hand-off error; that close is what tells a waiting receiver
		// the commit is never coming.
		a.Close()
	}()

	disarmed := false
	_, _, err = receive(b, ReceiveOptions{
		timeout: 2 * time.Second,
		Arm:     func(*ListenerSet, *Result) error { return nil },
		Disarm:  func(s *ListenerSet) { disarmed = true; s.Close() },
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("lost commit not classified as abort: %v", err)
	}
	if !strings.Contains(err.Error(), "waiting for commit") {
		t.Fatalf("receiver failed outside the commit wait: %v", err)
	}
	if !disarmed {
		t.Fatal("receiver armed but Disarm never ran after the lost commit")
	}
	b.Close()

	serr := <-sendErr
	if serr == nil {
		t.Fatal("sender reported success for an undelivered commit")
	}
	if !strings.Contains(serr.Error(), "delivering commit") {
		t.Fatalf("sender failed outside commit delivery: %v", serr)
	}
	netx.SetFDHook(nil)

	if got := waitFDCount(t, before); got != before {
		t.Fatalf("fd leak on lost commit: %d before, %d after", before, got)
	}
	assertOldSetServes(t, set, "web")
	set.Close()
}
