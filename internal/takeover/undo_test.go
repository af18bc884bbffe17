package takeover

// Drain-undo (ProtoDrainUndo) coverage: the post-commit lease between the
// sender's retained FD dups and the receiver's READY frame. These tests
// pin the three contracts the revision adds on top of two-phase:
//
//   1. A committed hand-off whose receiver never confirms serving is
//      UNDONE — the sender re-arms the very same kernel sockets from its
//      retained dups (verified by SO_COOKIE identity) and resumes,
//      classified ErrUndone on the receiver so orchestrators may retry.
//   2. The lease frames are invisible to pre-v3 peers: mixed-version
//      hand-offs negotiate down to plain two-phase and the wire after
//      COMMIT stays byte-identical to the old protocol.
//   3. Every descriptor the recovery window creates is accounted for:
//      retained dups are closed after READY, consumed (not leaked) by a
//      successful undo, measured against /proc/self/fd ground truth.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"zdr/internal/faults"
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

// TestDrainUndoHappyPath drives the full v3 lease by hand on a
// socketpair: the sender retains dups past COMMIT, the receiver's
// readiness gate runs, READY releases the lease, and the drain-start
// confirmation completes the epilogue. Afterwards the retained set closes
// to the FD baseline.
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

	type sendOut struct {
		res *Result
		err error
	}
	sendCh := make(chan sendOut, 1)
	go func() {
		res, err := Handoff(a, set, HandoffOptions{Timeout: 2 * time.Second, Proto: ProtoDrainUndo})
		if err == nil {
			// A bare v3 sender owns the lease: await READY, then release
			// it with the drain-start confirmation (what
			// Server.ListenAndServe does automatically).
			if lerr := awaitReady(a, 2*time.Second); lerr != nil {
				err = lerr
			} else if lerr := writeFrame(a, msgDrainStarted, nil, nil); lerr != nil {
				err = lerr
			}
		}
		sendCh <- sendOut{res, err}
	}()

	gateRan := false
	got, res, err := Receive(b, ReceiveOptions{
		Timeout: 2 * time.Second,
		Ready: func(s *ListenerSet, r *Result) error {
			gateRan = true
			if !r.Committed {
				t.Error("Ready gate ran before commit")
			}
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
	if res.Proto != ProtoDrainUndo || !res.Ready || !res.DrainConfirmed {
		t.Fatalf("res = proto %d ready %v drainConfirmed %v, want v3/true/true",
			res.Proto, res.Ready, res.DrainConfirmed)
	}

	out := <-sendCh
	if out.err != nil {
		t.Fatalf("v3 sender: %v", out.err)
	}
	if out.res.Retained == nil {
		t.Fatal("v3 sender retained nothing past commit")
	}
	if n := out.res.Retained.Len(); n != 2 {
		t.Fatalf("retained %d fds, want 2", n)
	}
	// Lease released: the dups close and the FD ledger balances (the
	// receiver's adopted set and the original set are still open — only
	// the hand-off's own copies must be gone).
	out.res.Retained.Close()
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
// and Rearm must restore accepting listeners that are the SAME kernel
// sockets (SO_COOKIE identity), with a client connection queued during
// the recovery window accepted, not reset.
func TestDrainUndoReadyGateStepsDown(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	origCookie := cookieOf(t, set.TCP("web"))
	addr := set.TCP("web").Addr().String()
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)

	type sendOut struct {
		res *Result
		err error
	}
	sendCh := make(chan sendOut, 1)
	go func() {
		res, err := Handoff(a, set, HandoffOptions{Timeout: 2 * time.Second, Proto: ProtoDrainUndo})
		sendCh <- sendOut{res, err}
	}()

	disarmed := false
	_, _, rerr := Receive(b, ReceiveOptions{
		Timeout: 2 * time.Second,
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
	b.Close()

	out := <-sendCh
	if out.err != nil {
		t.Fatalf("sender: %v", out.err)
	}
	if out.res.Retained == nil {
		t.Fatal("sender retained nothing to undo from")
	}
	// The lease breaks: the sender's await fails against the dead session.
	if lerr := awaitReady(a, time.Second); lerr == nil {
		t.Fatal("awaitReady succeeded against a stepped-down receiver")
	}
	a.Close()

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

	rearmed, err := out.res.Retained.Rearm()
	if err != nil {
		t.Fatalf("rearm: %v", err)
	}
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

// TestServerLeaseBreakUndo runs the whole machine: a Server offering v3
// (OnUndo set) against Connect with a failing readiness gate. The server
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
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.ListenAndServe(path) }()
	defer srv.Close()

	// Attempt 1: receiver commits, then refuses to confirm serving.
	_, _, err := Connect(path, ConnectOptions{ReceiveOptions: ReceiveOptions{
		Timeout: 2 * time.Second,
		Ready:   func(*ListenerSet, *Result) error { return errors.New("injected unready receiver") },
	}})
	if !errors.Is(err, ErrUndone) {
		t.Fatalf("connect against unready gate classified %v, want ErrUndone", err)
	}

	// Attempt 2: a fresh, healthy receiver. The un-drained server must
	// still be accepting hand-offs on the same path.
	got, res, err := Connect(path, ConnectOptions{ReceiveOptions: ReceiveOptions{
		Timeout: 2 * time.Second,
		Ready:   func(*ListenerSet, *Result) error { return nil },
	}})
	if err != nil {
		t.Fatalf("retry after undo: %v", err)
	}
	defer got.Close()
	if res.Proto != ProtoDrainUndo || !res.Ready || !res.DrainConfirmed {
		t.Fatalf("retry res = proto %d ready %v drain %v", res.Proto, res.Ready, res.DrainConfirmed)
	}
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
	go srv.ListenAndServe(path)
	defer srv.Close()

	_, _, err := Connect(path, ConnectOptions{ReceiveOptions: ReceiveOptions{
		Timeout: 2 * time.Second,
		Ready: func(*ListenerSet, *Result) error {
			time.Sleep(600 * time.Millisecond) // wedge past the lease
			return nil
		},
	}})
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

// legacyAckV2 is the pre-drain-undo confirmation: OK/Adopted/Trace and
// crucially NO proto field — a real v2 binary answers a v3 offer with
// this exact shape, and the sender must read the absence as "this peer
// will never run the lease epilogue".
type legacyAckV2 struct {
	OK      bool   `json:"ok"`
	Adopted int    `json:"adopted"`
	Err     string `json:"err,omitempty"`
	Trace   string `json:"trace,omitempty"`
}

// legacyReceiveV2 replicates the pre-v3 two-phase receiver byte for byte:
// manifest+FDs, PREPARE-ACK without a proto field, COMMIT await, return.
// It neither writes READY nor waits for the drain-start confirmation.
func legacyReceiveV2(conn *net.UnixConn, timeout time.Duration) (*ListenerSet, error) {
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	kind, payload, fds, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if kind != msgManifest {
		closeFDs(fds)
		return nil, fmt.Errorf("legacy v2 receiver: expected manifest, got frame kind %d", kind)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		closeFDs(fds)
		return nil, err
	}
	if m.Magic != magic || m.Version != version {
		closeFDs(fds)
		return nil, errors.New("legacy v2 receiver: bad manifest")
	}
	set, _, err := adoptFDs(m.VIPs, fds)
	if err != nil {
		set.Close()
		return nil, err
	}
	ackPayload, err := json.Marshal(legacyAckV2{OK: true, Adopted: set.Len()})
	if err != nil {
		set.Close()
		return nil, err
	}
	if m.Proto == 0 {
		// v1 sender: single ack is the whole exchange.
		if err := writeFrame(conn, msgAck, ackPayload, nil); err != nil {
			set.Close()
			return nil, err
		}
		return set, nil
	}
	if err := writeFrame(conn, msgPrepareAck, ackPayload, nil); err != nil {
		set.Close()
		return nil, err
	}
	kind, _, stray, err := readFrame(conn)
	closeFDs(stray)
	if err != nil {
		set.Close()
		return nil, err
	}
	if kind != msgCommit {
		set.Close()
		return nil, fmt.Errorf("legacy v2 receiver: expected commit, got frame kind %d", kind)
	}
	return set, nil
}

// TestV3SenderToV2Receiver pins the downgrade: a ProtoDrainUndo offer
// against a frozen v2 receiver double must negotiate down to plain
// two-phase — no retained FDs, no lease — and the sender must write
// nothing after COMMIT that a v2 binary would not expect (no READY wait
// means no drain-start probe either on the bare sender).
func TestV3SenderToV2Receiver(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, b := pair(t)

	type recvOut struct {
		set *ListenerSet
		err error
	}
	recvCh := make(chan recvOut, 1)
	go func() {
		s, err := legacyReceiveV2(b, 2*time.Second)
		recvCh <- recvOut{s, err}
	}()

	res, err := Handoff(a, set, HandoffOptions{Timeout: 2 * time.Second, Proto: ProtoDrainUndo})
	if err != nil {
		t.Fatalf("v3 sender against v2 receiver: %v", err)
	}
	if res.Proto != ProtoTwoPhase {
		t.Fatalf("negotiated proto = %d, want %d (downgraded two-phase)", res.Proto, ProtoTwoPhase)
	}
	if res.Retained != nil {
		t.Fatal("sender retained FDs for a peer that will never release the lease")
	}

	out := <-recvCh
	if out.err != nil {
		t.Fatalf("legacy v2 receiver: %v", out.err)
	}
	defer out.set.Close()
	// Nothing after COMMIT: a READY-expecting sender would now be reading,
	// and a confused one might write lease frames the v2 peer cannot parse.
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if n, _ := b.Read(buf); n != 0 {
		t.Fatalf("v3 sender wrote %d byte(s) after commit to a v2 peer (frame kind %d)", n, buf[0])
	}
	assertListenerServes(t, out.set, "web")
}

// TestV2SenderToV3Receiver pins the other direction: a v2 sender (no v3
// offer) against the newest receiver. The receiver must not run its
// readiness gate, must not write READY, and must report the negotiated
// two-phase revision.
func TestV2SenderToV3Receiver(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, b := pair(t)

	sendCh := make(chan *Result, 1)
	sendErr := make(chan error, 1)
	go func() {
		// Proto: ProtoTwoPhase is wire-identical to the previous release's
		// sender: manifest proto=2, commit, no lease.
		res, err := Handoff(a, set, HandoffOptions{Timeout: 2 * time.Second, Proto: ProtoTwoPhase})
		sendCh <- res
		sendErr <- err
	}()

	got, res, err := Receive(b, ReceiveOptions{
		Timeout: 2 * time.Second,
		Ready: func(*ListenerSet, *Result) error {
			t.Error("readiness gate ran against a v2 sender")
			return nil
		},
	})
	if err != nil {
		t.Fatalf("v3 receiver against v2 sender: %v", err)
	}
	defer got.Close()
	if res.Proto != ProtoTwoPhase || res.Ready {
		t.Fatalf("res = proto %d ready %v, want two-phase, no READY", res.Proto, res.Ready)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("v2 sender: %v", err)
	}
	if sres := <-sendCh; sres.Retained != nil {
		t.Fatal("two-phase sender retained FDs")
	}
	// The receiver must not have written a READY frame the v2 sender
	// would misparse.
	a.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if n, _ := a.Read(buf); n != 0 {
		t.Fatalf("v3 receiver wrote %d byte(s) a v2 sender never reads (frame kind %d)", n, buf[0])
	}
}

// TestErrorTaxonomy pins the DESIGN.md §7 error lattice with errors.Is:
// the four sentinel classes are mutually exclusive and survive both the
// %w chains the package builds and the faults.Permanent wrapper Connect
// applies.
func TestErrorTaxonomy(t *testing.T) {
	undone := undoneErr(io.EOF)
	aborted := abortErr(io.EOF)
	cases := []struct {
		name string
		err  error
		is   []error
		not  []error
	}{
		{"undone", undone, []error{ErrUndone, io.EOF}, []error{ErrAborted, ErrRejected, ErrBadMagic}},
		{"aborted", aborted, []error{ErrAborted, io.EOF}, []error{ErrUndone, ErrRejected, ErrBadMagic}},
		{"undone-idempotent", undoneErr(undone), []error{ErrUndone}, []error{ErrAborted}},
		{"aborted-idempotent", abortErr(aborted), []error{ErrAborted}, []error{ErrUndone}},
		{"rejected", fmt.Errorf("%w: nacked", ErrRejected), []error{ErrRejected}, []error{ErrAborted, ErrUndone}},
		{"bad-magic", ErrBadMagic, []error{ErrBadMagic}, []error{ErrAborted, ErrUndone, ErrRejected}},
		// Connect wraps protocol failures in faults.Permanent before the
		// backoff unwraps them; classification must survive the round trip.
		{"undone-through-permanent", faults.Permanent(undone), []error{ErrUndone}, []error{ErrAborted}},
		{"aborted-through-permanent", faults.Permanent(aborted), []error{ErrAborted}, []error{ErrUndone}},
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

// TestRetainedSetLifecycle pins the RetainedSet contract: nil-safety,
// idempotent Close, single-consumption Rearm, and the full-count check
// that refuses a partial re-arm.
func TestRetainedSetLifecycle(t *testing.T) {
	var nilSet *RetainedSet
	if nilSet.Len() != 0 || nilSet.VIPs() != nil || nilSet.Close() != nil {
		t.Fatal("nil RetainedSet accessors must be safe no-ops")
	}
	if _, err := nilSet.Rearm(); err == nil {
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
	rearmed, err := r.Rearm()
	if err != nil {
		t.Fatalf("rearm: %v", err)
	}
	rearmed.Close()
	if r.Len() != 0 {
		t.Fatal("Rearm did not consume the set")
	}
	if _, err := r.Rearm(); err == nil {
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
	if _, err := short.Rearm(); err == nil {
		t.Fatal("partial re-arm succeeded")
	}
}
