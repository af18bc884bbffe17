package katran

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loadServer is a test backend speaking both health-VIP protocols: one
// "HC\n" answer per fresh connection and any number of "LOAD\n" answers
// on a persistent connection.
type loadServer struct {
	ln      net.Listener
	sample  func() LoadSample
	healthy atomic.Bool
	conns   atomic.Int64 // accepted connections (persistence assertions)

	mu   sync.Mutex
	open []net.Conn
}

func startLoadServer(t *testing.T, sample func() LoadSample) *loadServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &loadServer{ln: ln, sample: sample}
	ls.healthy.Store(true)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ls.conns.Add(1)
			ls.mu.Lock()
			ls.open = append(ls.open, conn)
			ls.mu.Unlock()
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					switch line {
					case "HC\n":
						if ls.healthy.Load() {
							fmt.Fprint(conn, "OK\n")
						} else {
							fmt.Fprint(conn, "DRAIN\n")
						}
					case "LOAD\n":
						fmt.Fprint(conn, EncodeLoadLine(ls.sample()))
					default:
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ls
}

func (ls *loadServer) addr() string { return ls.ln.Addr().String() }

// closeOpenConns severs every established connection (simulating a
// partition or restart) while keeping the listener up.
func (ls *loadServer) closeOpenConns() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, c := range ls.open {
		c.Close()
	}
	ls.open = nil
}

func TestLoadLineRoundTrip(t *testing.T) {
	in := LoadSample{RIF: 42, Latency: 1500 * time.Microsecond, Phase: PhaseDraining, Generation: 7}
	line := EncodeLoadLine(in)
	if !strings.HasPrefix(line, "LOAD ") || !strings.HasSuffix(line, "\n") {
		t.Fatalf("bad wire line %q", line)
	}
	out, err := ParseLoadLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	if !out.Draining() {
		t.Fatal("phase=draining must report Draining()")
	}

	// Unknown fields are ignored; missing phase defaults to serving.
	s, err := ParseLoadLine("LOAD rif=3 future_field=x\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.RIF != 3 || s.Phase != PhaseServing || s.Draining() {
		t.Fatalf("forward-compat parse: %+v", s)
	}

	if _, err := ParseLoadLine("OK\n"); err == nil {
		t.Fatal("non-LOAD line must not parse")
	}
	if _, err := ParseLoadLine("LOAD rif=banana\n"); err == nil {
		t.Fatal("bad rif must not parse")
	}
}

func TestSetHealthUnknownBackend(t *testing.T) {
	lb := New("lb", Config{}, nil)
	defer lb.Close()
	lb.AddBackend(Backend{Name: "real", Addr: "x"}, true)

	if err := lb.SetHealth("typo", false); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("SetHealth(unknown) = %v, want ErrUnknownBackend", err)
	}
	if got := lb.Metrics().CounterValue("katran.health.unknown_backend"); got != 1 {
		t.Fatalf("unknown_backend counter = %d, want 1", got)
	}
	if err := lb.SetHealth("real", false); err != nil {
		t.Fatalf("SetHealth(known) = %v", err)
	}
	if len(lb.HealthyBackends()) != 0 {
		t.Fatal("known backend should have been evicted")
	}
}

// recordingPolicy captures lifecycle hook invocations.
type recordingPolicy struct {
	PolicyMaglev
	mu     sync.Mutex
	events []string
}

func (r *recordingPolicy) record(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recordingPolicy) BackendUp(b Backend) { r.record("up:" + b.Name) }
func (r *recordingPolicy) BackendDown(n string) {
	r.record("down:" + n)
}
func (r *recordingPolicy) AdvanceGeneration(epoch uint32, drainOld bool) {
	r.record(fmt.Sprintf("gen:%d:%v", epoch, drainOld))
}
func (r *recordingPolicy) Close() { r.record("close") }

func TestPolicyLifecycleHooks(t *testing.T) {
	rec := &recordingPolicy{}
	lb := New("lb", Config{FlowTableSize: 64, Policy: rec}, nil)
	lb.AddBackend(Backend{Name: "a", Addr: "x"}, true)
	lb.AddBackend(Backend{Name: "b", Addr: "y"}, false) // unhealthy: no hook
	lb.SetHealth("b", true)
	lb.SetHealth("b", false)
	lb.AdvanceGeneration(true)
	lb.RemoveBackend("a")
	lb.Close()

	want := []string{"up:a", "up:b", "down:b", "gen:2:true", "down:a", "close"}
	rec.mu.Lock()
	got := strings.Join(rec.events, ",")
	rec.mu.Unlock()
	if got != strings.Join(want, ",") {
		t.Fatalf("lifecycle events = %s, want %s", got, strings.Join(want, ","))
	}
}

func TestNewPolicyFactory(t *testing.T) {
	if p := NewPolicy("", PrequalConfig{}, nil); p.Name() != "maglev" {
		t.Fatalf("default policy = %s", p.Name())
	}
	if p := NewPolicy("maglev", PrequalConfig{}, nil); p.Name() != "maglev" {
		t.Fatalf("maglev policy = %s", p.Name())
	}
	if p := NewPolicy("banana", PrequalConfig{}, nil); p.Name() != "maglev" {
		t.Fatalf("unknown names must degrade to maglev, got %s", p.Name())
	}
	p := NewPolicy("prequal", PrequalConfig{}, nil)
	if p.Name() != "prequal" {
		t.Fatalf("prequal policy = %s", p.Name())
	}
	p.Close()
}

// TestPolicyMaglevMatchesPlacement pins the refactor invariant: the
// default policy reproduces the pre-Policy steering exactly — fresh picks
// are the Maglev pick over the current view.
func TestPolicyMaglevMatchesPlacement(t *testing.T) {
	lb := New("lb", Config{}, nil)
	defer lb.Close()
	for _, n := range []string{"a", "b", "c"} {
		lb.AddBackend(Backend{Name: n, Addr: n + ":80"}, true)
	}
	view := lb.View()
	for flow := uint64(0); flow < 256; flow++ {
		b, err := lb.Steer(flow)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := view.PickMaglev(flow)
		if !ok || b.Name != want.Name {
			t.Fatalf("flow %d: steer=%s maglev=%s", flow, b.Name, want.Name)
		}
	}
	if lb.Metrics().CounterValue("katran.steer.policy_pick") == 0 {
		t.Fatal("fresh picks must count on katran.steer.policy_pick")
	}
}

func TestHCProberLoadPersistentChannel(t *testing.T) {
	var phase atomic.Value
	phase.Store(PhaseServing)
	ls := startLoadServer(t, func() LoadSample {
		return LoadSample{RIF: 5, Latency: time.Millisecond, Phase: phase.Load().(string), Generation: 3}
	})
	p := &HCProber{}
	defer p.Close()

	for i := 0; i < 5; i++ {
		s, err := p.Load(ls.addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if s.RIF != 5 || s.Generation != 3 {
			t.Fatalf("load sample %+v", s)
		}
	}
	if got := ls.conns.Load(); got != 1 {
		t.Fatalf("5 load probes used %d connections, want 1 persistent channel", got)
	}

	// The persistent channel is the drain-advertisement path: a phase
	// flip is heard on the very next probe, no reconnect needed.
	phase.Store(PhaseDraining)
	s, err := p.Load(ls.addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatalf("phase flip not heard: %+v", s)
	}

	// A severed channel reconnects within the same call.
	ls.closeOpenConns()
	if _, err := p.Load(ls.addr(), time.Second); err != nil {
		t.Fatalf("reconnect after severed channel: %v", err)
	}
	if got := ls.conns.Load(); got != 2 {
		t.Fatalf("reconnect used %d total connections, want 2", got)
	}

	// Health probes stay one-shot: each uses a fresh connection.
	ls.healthy.Store(true)
	before := ls.conns.Load()
	if err := p.Probe(ls.addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Probe(ls.addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ls.conns.Load() - before; got != 2 {
		t.Fatalf("2 health probes used %d connections, want 2 fresh", got)
	}
}
