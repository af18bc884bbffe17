package takeover

// Drain-undo coverage: the post-commit lease between the sender's
// retained FD dups and the receiver's READY frame. These tests pin the
// two contracts the lease adds on top of PREPARE-ACK/COMMIT:
//
//   1. A committed hand-off whose receiver never confirms serving is
//      UNDONE — the sender re-arms the very same kernel sockets from its
//      retained dups (verified by SO_COOKIE identity) and resumes,
//      classified ErrUndone on the receiver so orchestrators may retry.
//   2. Every descriptor the recovery window creates is accounted for:
//      retained dups are closed after READY, consumed (not leaked) by a
//      successful undo, measured against /proc/self/fd ground truth.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"zdr/internal/netx"
	"zdr/internal/obs"
)

// cookieOf returns the kernel socket cookie of a TCP listener — the
// identity that proves a re-armed listener is the same socket, not a
// fresh bind on the same address.
func cookieOf(t *testing.T, ln *net.TCPListener) uint64 {
	t.Helper()
	c, err := netx.SocketCookie(ln)
	if err != nil {
		t.Fatalf("socket cookie: %v", err)
	}
	return c
}

// TestDrainUndoHappyPath drives the full lease on a socketpair: the
// sender retains dups past COMMIT, the receiver's readiness gate runs,
// READY releases the lease, and the drain-start confirmation completes
// the epilogue. Afterwards the retained set is closed to the FD baseline.
func TestDrainUndoHappyPath(t *testing.T) {
	set := mustListen(t,
		VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)
	tracer := obs.NewTracer("undo-test")

	sendErr := make(chan error, 1)
	go func() {
		_, err := (&Server{Set: set, handshakeTimeout: 2 * time.Second}).handoff(a, tracer.StartSpan(obs.SpanTakeoverServe, obs.SpanContext{}))
		sendErr <- err
	}()

	gateRan := false
	got, _, err := receive(b, ReceiveOptions{
		timeout: 2 * time.Second,
		Ready: func(s *ListenerSet, r *Result) error {
			gateRan = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("v3 receive: %v", err)
	}
	defer got.Close()
	if !gateRan {
		t.Fatal("readiness gate never ran on a v3 hand-off")
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("v3 sender: %v", err)
	}
	retained := ""
	for _, r := range tracer.Finished() {
		if r.Name == obs.SpanTakeoverPrepare {
			retained = r.Attrs["retained_fds"]
		}
	}
	if retained != "2" {
		t.Fatalf("sender retained %q fds past commit, want 2", retained)
	}
	// Lease released: the dups are closed and the FD ledger balances
	// (the receiver's adopted set and the original set are still open —
	// only the hand-off's own copies must be gone).
	a.Close()
	b.Close()
	set.Close()
	got.Close()
	// before counted the 2 original sockets; with original, adopted and
	// retained copies all closed, the ledger lands exactly 2 below it.
	if n := waitFDCount(t, before-2); n != before-2 {
		t.Fatalf("fd ledger after happy-path v3: %d, want %d", n, before-2)
	}
}

// TestDrainUndoReadyGateStepsDown is the tentpole's core failure edge in
// unit form: the receiver commits, then its readiness gate fails. The
// receiver must disarm and classify ErrUndone; the sender's lease breaks
// and the re-arm must restore accepting listeners that are the SAME
// kernel sockets (SO_COOKIE identity), with a client connection queued
// during the recovery window accepted, not reset.
func TestDrainUndoReadyGateStepsDown(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	origCookie := cookieOf(t, set.TCP("web"))
	addr := set.TCP("web").Addr().String()
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)

	sendErr := make(chan error, 1)
	undone := make(chan *ListenerSet, 1)
	go func() {
		_, err := (&Server{
			Set:              set,
			handshakeTimeout: 2 * time.Second,
			OnUndo:           func(rearmed *ListenerSet, _ error) { undone <- rearmed },
		}).handoff(a, nil)
		sendErr <- err
	}()

	disarmed := false
	_, _, rerr := receive(b, ReceiveOptions{
		timeout: 2 * time.Second,
		Arm:     func(*ListenerSet, *Result) error { return nil },
		Disarm:  func(s *ListenerSet) { disarmed = true; s.Close() },
		Ready: func(*ListenerSet, *Result) error {
			return errors.New("healthz never went green")
		},
	})
	if !errors.Is(rerr, ErrUndone) {
		t.Fatalf("failed readiness gate classified %v, want ErrUndone", rerr)
	}
	if errors.Is(rerr, ErrAborted) {
		t.Fatal("post-commit undo must not masquerade as a pre-commit abort")
	}
	if !disarmed {
		t.Fatal("receiver stepped down without running Disarm")
	}

	// The old instance stopped accepting at commit; a client arriving in
	// the recovery window sits in the kernel backlog of the still-open
	// socket.
	dialErr := make(chan error, 1)
	go func() {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			c.Close()
		}
		dialErr <- err
	}()

	// The lease breaks: the sender's READY wait fails against the dead
	// session, and it re-arms from its retained dups.
	b.Close()
	if err := <-sendErr; !errors.Is(err, ErrUndone) {
		t.Fatalf("sender against a stepped-down receiver: %v, want ErrUndone", err)
	}
	a.Close()
	rearmed := <-undone
	defer rearmed.Close()
	if cookieOf(t, rearmed.TCP("web")) != origCookie {
		t.Fatal("re-armed listener is not the original kernel socket")
	}
	conn, err := rearmed.TCP("web").Accept()
	if err != nil {
		t.Fatalf("accept on re-armed listener: %v", err)
	}
	conn.Close()
	if err := <-dialErr; err != nil {
		t.Fatalf("client queued during the recovery window was reset: %v", err)
	}

	// Ledger: original set + re-armed dups are the only live sockets.
	set.Close()
	rearmed.Close()
	if n := waitFDCount(t, before-1); n != before-1 {
		t.Fatalf("fd ledger after undo: %d, want %d", n, before-1)
	}
}

// TestServerLeaseBreakUndo runs the whole machine: a Server with OnUndo
// set against Connect with a failing readiness gate. The server
// must re-arm, report the undo through OnUndo/OnHandoffError, record a
// takeover.undo span carrying the retained-FD count, and keep serving
// hand-offs so the very next attempt (healthy gate) succeeds.
func TestServerLeaseBreakUndo(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	origCookie := cookieOf(t, set.TCP("web"))
	path := filepath.Join(t.TempDir(), "takeover.sock")
	tracer := obs.NewTracer("undo-test")

	var (
		mu         sync.Mutex
		undoCause  error
		undoCookie uint64
		handErrs   []error
		drains     int
	)
	srv := &Server{
		Set:    set,
		Tracer: tracer,
		OnDrainStart: func(Result) {
			mu.Lock()
			drains++
			mu.Unlock()
		},
		OnUndo: func(rearmed *ListenerSet, cause error) {
			mu.Lock()
			undoCause = cause
			undoCookie, _ = netx.SocketCookie(rearmed.TCP("web"))
			mu.Unlock()
			rearmed.Close()
		},
		OnHandoffError: func(err error) {
			mu.Lock()
			handErrs = append(handErrs, err)
			mu.Unlock()
		},
	}
	if err := srv.Listen(path); err != nil {
		t.Fatal(err)
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve() }()
	defer srv.Close()

	// Attempt 1: receiver commits, then refuses to confirm serving.
	_, _, err := Connect(path, ReceiveOptions{
		timeout: 2 * time.Second,
		Ready:   func(*ListenerSet, *Result) error { return errors.New("injected unready receiver") },
	})
	if !errors.Is(err, ErrUndone) {
		t.Fatalf("connect against unready gate classified %v, want ErrUndone", err)
	}

	// Attempt 2: a fresh, healthy receiver. The un-drained server must
	// still be accepting hand-offs on the same path.
	got, _, err := Connect(path, ReceiveOptions{
		timeout: 2 * time.Second,
		Ready:   func(*ListenerSet, *Result) error { return nil },
	})
	if err != nil {
		t.Fatalf("retry after undo: %v", err)
	}
	defer got.Close()
	if err := <-srvDone; err != nil {
		t.Fatalf("server exit: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if drains != 2 {
		t.Fatalf("OnDrainStart ran %d time(s), want 2 (undone + final)", drains)
	}
	if undoCause == nil {
		t.Fatal("OnUndo never ran")
	}
	if undoCookie != origCookie {
		t.Fatalf("OnUndo re-armed cookie %d, want original %d", undoCookie, origCookie)
	}
	if len(handErrs) != 1 || !errors.Is(handErrs[0], ErrUndone) {
		t.Fatalf("OnHandoffError calls = %v, want exactly one ErrUndone", handErrs)
	}

	var undoSpans, readySpans int
	for _, r := range tracer.Finished() {
		switch r.Name {
		case obs.SpanTakeoverUndo:
			undoSpans++
			if r.Attrs["retained_fds"] != strconv.Itoa(1) {
				t.Fatalf("takeover.undo retained_fds = %q, want \"1\"", r.Attrs["retained_fds"])
			}
			if r.Attrs["cause"] == "" {
				t.Fatal("takeover.undo span has no cause attr")
			}
		case obs.SpanTakeoverReady:
			readySpans++
		}
	}
	if undoSpans != 1 {
		t.Fatalf("takeover.undo spans = %d, want 1", undoSpans)
	}
	if readySpans < 2 {
		t.Fatalf("takeover.ready spans = %d, want >= 2 (both sides, both attempts)", readySpans)
	}
}

// TestServerReadyTimeoutUndo covers the wedged-receiver instant: commit
// lands, the receiver neither confirms nor dies. The sender's lease
// expires (ReadyTimeout) and the hand-off is undone exactly as for a
// crash; the wedged receiver's late READY meets a closed session and
// classifies ErrUndone on its side too.
func TestServerReadyTimeoutUndo(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	path := filepath.Join(t.TempDir(), "takeover.sock")

	undone := make(chan error, 1)
	srv := &Server{
		Set:          set,
		ReadyTimeout: 150 * time.Millisecond,
		OnUndo: func(rearmed *ListenerSet, cause error) {
			rearmed.Close()
			undone <- cause
		},
	}
	if err := srv.Listen(path); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	_, _, err := Connect(path, ReceiveOptions{
		timeout: 2 * time.Second,
		Ready: func(*ListenerSet, *Result) error {
			time.Sleep(600 * time.Millisecond) // wedge past the lease
			return nil
		},
	})
	if !errors.Is(err, ErrUndone) {
		t.Fatalf("wedged receiver classified %v, want ErrUndone", err)
	}
	select {
	case cause := <-undone:
		if cause == nil {
			t.Fatal("undo with nil cause")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender never undid the wedged hand-off")
	}
}

// TestErrorTaxonomy pins the DESIGN.md §7 error lattice with errors.Is:
// the four sentinel classes are mutually exclusive and survive the %w
// chains the package builds.
func TestErrorTaxonomy(t *testing.T) {
	undone := undoneErr(io.EOF)
	aborted := abortErr(io.EOF)
	cases := []struct {
		name string
		err  error
		is   []error
		not  []error
	}{
		{"undone", undone, []error{ErrUndone, io.EOF}, []error{ErrAborted, errRejected, errBadMagic}},
		{"aborted", aborted, []error{ErrAborted, io.EOF}, []error{ErrUndone, errRejected, errBadMagic}},
		{"undone-idempotent", undoneErr(undone), []error{ErrUndone}, []error{ErrAborted}},
		{"aborted-idempotent", abortErr(aborted), []error{ErrAborted}, []error{ErrUndone}},
		{"rejected", fmt.Errorf("%w: nacked", errRejected), []error{errRejected}, []error{ErrAborted, ErrUndone}},
		{"bad-magic", errBadMagic, []error{errBadMagic}, []error{ErrAborted, ErrUndone, errRejected}},
	}
	for _, tc := range cases {
		for _, want := range tc.is {
			if !errors.Is(tc.err, want) {
				t.Errorf("%s: errors.Is(%v, %v) = false, want true", tc.name, tc.err, want)
			}
		}
		for _, not := range tc.not {
			if errors.Is(tc.err, not) {
				t.Errorf("%s: errors.Is(%v, %v) = true, want false", tc.name, tc.err, not)
			}
		}
	}
	if undoneErr(nil) != nil || abortErr(nil) != nil {
		t.Fatal("classifiers must pass nil through")
	}
}

// TestRetainedSetLifecycle pins the retainedSet contract: nil-safety,
// idempotent Close, single-consumption Rearm, and the full-count check
// that refuses a partial re-arm.
func TestRetainedSetLifecycle(t *testing.T) {
	var nilSet *retainedSet
	if nilSet.Len() != 0 || nilSet.VIPs() != nil || nilSet.Close() != nil {
		t.Fatal("nil RetainedSet accessors must be safe no-ops")
	}
	if _, err := nilSet.rearm(); err == nil {
		t.Fatal("nil Rearm succeeded")
	}

	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	fds, err := set.fds()
	if err != nil {
		t.Fatal(err)
	}
	r := newRetainedSet(set.VIPs(), fds)
	if r.Len() != 1 || r.VIPs()[0].Name != "web" {
		t.Fatalf("retained set = len %d vips %v", r.Len(), r.VIPs())
	}
	rearmed, err := r.rearm()
	if err != nil {
		t.Fatalf("rearm: %v", err)
	}
	rearmed.Close()
	if r.Len() != 0 {
		t.Fatal("Rearm did not consume the set")
	}
	if _, err := r.rearm(); err == nil {
		t.Fatal("second Rearm succeeded on a consumed set")
	}
	if err := r.Close(); err != nil || r.Close() != nil {
		t.Fatal("Close after Rearm must be an idempotent no-op")
	}

	// Partial set: more VIPs than FDs must refuse to re-arm and close
	// everything rather than resume with a hole in the VIP coverage.
	fds2, err := set.fds()
	if err != nil {
		t.Fatal(err)
	}
	short := newRetainedSet(append(set.VIPs(), VIP{Name: "ghost", Network: NetworkTCP, Addr: "127.0.0.1:0"}), fds2)
	if _, err := short.rearm(); err == nil {
		t.Fatal("partial re-arm succeeded")
	}
}
