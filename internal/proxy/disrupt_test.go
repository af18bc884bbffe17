package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/takeover"
)

// startLedgeredPair starts one Origin and one Edge, each with its own
// disruption ledger, over a single app server.
func startLedgeredPair(t *testing.T, edgeCfg Config) (*Proxy, *Proxy, *disrupt.Ledger, *disrupt.Ledger) {
	t.Helper()
	as := appserver.New(appserver.Config{Name: "as-0", Mode: appserver.ModePPR}, nil)
	appAddr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)

	oLed := disrupt.New("origin-0", 256)
	o := New(Config{
		Name:       "origin-0",
		Role:       RoleOrigin,
		AppServers: []string{appAddr},
		Ledger:     oLed,
		Generation: 1,
	}, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	eLed := disrupt.New("edge-0", 256)
	edgeCfg.Name = "edge-0"
	edgeCfg.Role = RoleEdge
	edgeCfg.Origins = []string{o.Addr(VIPTunnel)}
	edgeCfg.Ledger = eLed
	edgeCfg.Generation = 1
	e := New(edgeCfg, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, o, eLed, oLed
}

// TestLedgerRecordsServingPath checks the happy path: accepted
// connections land in both ledgers and the hot-path latency histograms
// record each request.
func TestLedgerRecordsServingPath(t *testing.T) {
	e, o, eLed, oLed := startLedgeredPair(t, Config{})
	for i := 0; i < 3; i++ {
		resp := doRequest(t, e.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	er := eLed.Report()
	if er.ByKind["accept"] < 1 {
		t.Fatalf("edge ledger missing accepts: %v", er.ByKind)
	}
	if er.Terminal != 0 || er.Unattributed != 0 {
		t.Fatalf("clean run recorded failures: %+v", er)
	}
	if phase, gen := eLed.Phase(); phase != "serving" || gen != 1 {
		t.Fatalf("phase = %s/%d", phase, gen)
	}
	if or := oLed.Report(); or.ByKind["accept"] < 1 {
		t.Fatalf("origin ledger missing accepts: %v", or.ByKind)
	}

	// A request's latency is observed once its response has been written,
	// and the response is one write: the client can have all of it before
	// the observation lands.
	for _, h := range []struct {
		p    *Proxy
		name string
	}{{e, "edge.http.latency"}, {o, "origin.http.latency"}, {e, "edge.tunnel.latency"}} {
		name := h.name
		deadline := time.Now().Add(2 * time.Second)
		for {
			s, ok := h.p.Metrics().Snapshot().AtomicHistograms[name]
			if ok && s.Count == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s count = %d (ok=%v), want 3", name, s.Count, ok)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestLedgerAttributesTerminalFailures drives a request into an Edge
// with no reachable Origin and checks the 503 is attributed.
func TestLedgerAttributesTerminalFailures(t *testing.T) {
	led := disrupt.New("edge-dead", 64)
	e := New(Config{
		Name:        "edge-dead",
		Role:        RoleEdge,
		Origins:     []string{"127.0.0.1:1"}, // nothing listens here
		Ledger:      led,
		Generation:  2,
		dialTimeout: 200 * time.Millisecond,
	}, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	resp := doRequest(t, e.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	r := led.Report()
	if r.Terminal != 1 || r.Unattributed != 0 {
		t.Fatalf("terminal=%d unattributed=%d: %+v", r.Terminal, r.Unattributed, r)
	}
	if len(r.Cells) != 1 || r.Cells[0].Cause != "edge:no-origin" ||
		r.Cells[0].Phase != "serving" || r.Cells[0].Generation != 2 {
		t.Fatalf("attribution cells: %+v", r.Cells)
	}
}

// TestUpstreamResetAnswers502: an Origin that resets a request's stream
// before answering — as one does for a stream its accept queue has no
// room for — gets the client a 502 at once, not a 504 at the response
// timeout, and the ledger calls it a reset. The Origin here is a bare
// tunnel session that resets every stream it accepts.
func TestUpstreamResetAnswers502(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sess := h2t.NewSession(c, false) // ends when the Edge closes its tunnel
			go func() {
				for {
					st, err := sess.Accept()
					if err != nil {
						return
					}
					st.Reset()
				}
			}()
		}
	}()
	led := disrupt.New("edge-rst", 64)
	e := New(Config{Name: "edge-rst", Role: RoleEdge, Origins: []string{ln.Addr().String()}, Ledger: led}, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	t0 := time.Now()
	resp := doRequest(t, e.Addr(VIPWeb), http1.NewRequest("GET", "/api/feed", nil, 0))
	if took := time.Since(t0); resp.StatusCode != 502 || took > time.Second {
		t.Fatalf("status %d after %v, want 502 within 1s", resp.StatusCode, took)
	}
	r := led.Report()
	if r.ByKind["reset"] != 1 || r.ByKind["timeout"] != 0 || causeCount(led, "edge:upstream") != 1 {
		t.Fatalf("ledger: %v, cells %+v; want one reset attributed to edge:upstream", r.ByKind, r.Cells)
	}
}

// TestLedgerDrainPhaseStamping pins the phase transitions the ledger
// sees across a drain.
func TestLedgerDrainPhaseStamping(t *testing.T) {
	led := disrupt.New("origin-drain", 64)
	o := New(Config{
		Name:       "origin-drain",
		Role:       RoleOrigin,
		Ledger:     led,
		Generation: 3,
	}, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	if phase, gen := led.Phase(); phase != "serving" || gen != 3 {
		t.Fatalf("initial phase = %s/%d", phase, gen)
	}
	o.StartDraining()
	if phase, _ := led.Phase(); phase != "draining" {
		t.Fatalf("post-drain phase = %s", phase)
	}
	if r := led.Report(); r.ByKind["drain"] != 1 {
		t.Fatalf("drain events: %v", r.ByKind)
	}
}

// TestReleasePhaseAgrees drives an Origin from serving into
// committed-awaiting-ready (a receiver holds its readiness gate), back to
// serving through an undo, into committed-awaiting-ready again, and past
// the receiver's READY into draining. At every step the ledger stamp, the
// LOAD answer on a probe connection opened while serving, and ReleaseState
// report the same phase and generation. With a ledger the LOAD answer
// reads its stamp; without one it reads the proxy's own phase, so the
// release runs both ways. It runs once more with a ledger shared with the
// receivers, which after READY is the serving generation's: there the
// stamp and the LOAD answer say serving, generation 2, as the receiver's
// ReleaseState does, while the Origin's own says draining.
func TestReleasePhaseAgrees(t *testing.T) {
	t.Run("ledger", func(t *testing.T) { releasePhaseAgrees(t, disrupt.New("origin-phase", 64), false) })
	t.Run("shared-ledger", func(t *testing.T) { releasePhaseAgrees(t, disrupt.New("origin-phase", 64), true) })
	t.Run("no-ledger", func(t *testing.T) { releasePhaseAgrees(t, nil, false) })
}

func releasePhaseAgrees(t *testing.T, led *disrupt.Ledger, shared bool) {
	o := New(Config{Name: "origin-phase", Role: RoleOrigin, Ledger: led, Generation: 1}, nil)
	if err := o.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	path := filepath.Join(t.TempDir(), "origin-phase.sock")
	if err := o.ServeTakeover(path); err != nil {
		t.Fatal(err)
	}
	probe, err := net.DialTimeout("tcp", o.Addr(VIPHealth), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })
	br := bufio.NewReader(probe)
	load := func() (string, int) {
		t.Helper()
		fmt.Fprint(probe, "LOAD\n")
		probe.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("LOAD: %v", err)
		}
		s, err := katran.ParseLoadLine(line)
		if err != nil {
			t.Fatal(err)
		}
		return s.Phase, s.Generation
	}
	// The hand-off's callbacks run on the takeover server's goroutine, so
	// each step is awaited rather than read once. state is the proxy whose
	// ReleaseState is the ledger's.
	expect := func(step, want string, gen int, state *Proxy) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			stamp, stampGen := want, gen // a proxy without a ledger stamps nothing
			if led != nil {
				stamp, stampGen = led.Phase()
			}
			answer, answerGen := load()
			phase := state.ReleaseState().Slots[0].Phase
			if stamp == want && answer == want && phase == want && stampGen == gen && answerGen == gen {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: ledger %q/%d, LOAD %q/%d, ReleaseState %q; want %q/%d",
					step, stamp, stampGen, answer, answerGen, phase, want, gen)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	expect("before the release", katran.PhaseServing, 1, o)

	// handOff starts a hand-off to a next generation and returns once the
	// receiver is in its readiness gate, which lets go on the verdict.
	var nextLedger *disrupt.Ledger
	if shared {
		nextLedger = led
	}
	handOff := func() (next *Proxy, verdict chan<- error, handoff <-chan error) {
		gated, v, h := make(chan struct{}), make(chan error), make(chan error, 1)
		next = New(Config{Name: "origin-next", Role: RoleOrigin, Generation: 2, Ledger: nextLedger, ReadyGate: func() error {
			close(gated)
			return <-v
		}}, nil)
		t.Cleanup(next.Close)
		go func() {
			_, err := next.TakeoverFrom(path)
			h <- err
		}()
		<-gated
		return next, v, h
	}
	_, verdict, handoff := handOff()
	expect("receiver in its readiness gate", katran.PhaseCommitted, 1, o)
	verdict <- errors.New("receiver held back")
	if err := <-handoff; !errors.Is(err, takeover.ErrUndone) {
		t.Fatalf("hand-off error %v, want an undo", err)
	}
	expect("after the undo", katran.PhaseServing, 1, o)

	next, verdict, handoff := handOff()
	expect("receiver in its readiness gate again", katran.PhaseCommitted, 1, o)
	verdict <- nil
	if err := <-handoff; err != nil {
		t.Fatalf("hand-off: %v", err)
	}
	if !shared {
		expect("after READY", katran.PhaseDraining, 1, o)
		return
	}
	expect("after READY, the ledger the receiver's", katran.PhaseServing, 2, next)
	if phase := o.ReleaseState().Slots[0].Phase; phase != katran.PhaseDraining {
		t.Fatalf("after READY the Origin's ReleaseState says %q, want %q", phase, katran.PhaseDraining)
	}
}

// TestLedgerChaosAttribution is the chaos-suite reconciliation: every
// fault the injector fires must appear in the ledger as one Fault event
// whose cause names the injected op — injected and observed disruption
// reconcile exactly, with nothing unattributed.
func TestLedgerChaosAttribution(t *testing.T) {
	inj := faults.NewInjector(faults.Scenario{
		Seed:        7,
		AbortRate:   0.3,
		AbortMinOps: 1,
	})
	e, _, eLed, _ := startLedgeredPair(t, Config{AcceptFaults: inj})

	for i := 0; i < 40; i++ {
		conn, err := net.DialTimeout("tcp", e.Addr(VIPWeb), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /api/feed HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
		buf := make([]byte, 4096)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		conn.Read(buf) // success or injected abort — both fine
		conn.Close()
	}
	// Join in-flight handlers so late faults are recorded before we
	// reconcile.
	e.Close()

	injected := int64(inj.InjectedTotal())
	if injected == 0 {
		t.Fatal("scenario injected nothing; test is vacuous")
	}
	r := eLed.Report()
	if r.ByKind["fault"] != injected {
		t.Fatalf("ledger fault events = %d, injector fired %d", r.ByKind["fault"], injected)
	}
	if r.Unattributed != 0 {
		t.Fatalf("unattributed terminal events: %d", r.Unattributed)
	}
	var faultCells int64
	for _, c := range r.Cells {
		if strings.HasPrefix(c.Cause, "injected:") {
			faultCells += c.Count
		}
	}
	if faultCells != injected {
		t.Fatalf("fault cells account for %d of %d injected faults: %+v", faultCells, injected, r.Cells)
	}
}
