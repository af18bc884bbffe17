package katran

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Release phases a backend can advertise in a load-probe answer. They
// mirror the proxy's release state machine (and the disruption ledger's
// phase stamps): a backend in PhaseDraining or PhaseCommitted has a
// release in flight, and drain-aware policies deprioritize it so new
// flows bleed away before the drain timer bites.
const (
	PhaseServing   = "serving"
	PhaseDraining  = "draining"
	PhaseCommitted = "committed-awaiting-ready"
)

// LoadSample is one load-probe answer: the Prequal signal pair
// (requests in flight + latency) plus the ZDR twist — the backend's
// release phase and generation, so steering can bleed new flows off a
// draining generation before the drain timer bites.
type LoadSample struct {
	// RIF is the backend's requests-in-flight at answer time.
	RIF int
	// Latency is the backend's recent request-latency estimate (its
	// data-plane median, not the probe's RTT).
	Latency time.Duration
	// Phase is the backend's release phase (PhaseServing, PhaseDraining,
	// PhaseCommitted).
	Phase string
	// Generation is the backend's release generation.
	Generation int
}

// Draining reports whether the sample advertises a release in flight —
// the backend is draining or committed-awaiting-ready.
func (s LoadSample) Draining() bool {
	return s.Phase == PhaseDraining || s.Phase == PhaseCommitted
}

// EncodeLoadLine renders a LoadSample as one line of the load-probe
// wire protocol (the answer to a "LOAD\n" request on the health VIP):
//
//	LOAD rif=<n> lat_us=<µs> phase=<phase> gen=<n>\n
func EncodeLoadLine(s LoadSample) string {
	phase := s.Phase
	if phase == "" {
		phase = PhaseServing
	}
	return fmt.Sprintf("LOAD rif=%d lat_us=%d phase=%s gen=%d\n",
		s.RIF, s.Latency.Microseconds(), phase, s.Generation)
}

// ParseLoadLine parses one load-probe answer line. Unknown fields are
// ignored so the format can grow without breaking older probers.
func ParseLoadLine(line string) (LoadSample, error) {
	line = strings.TrimSuffix(line, "\n")
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "LOAD" {
		return LoadSample{}, fmt.Errorf("katran: not a load answer: %q", line)
	}
	s := LoadSample{Phase: PhaseServing}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "rif":
			n, err := strconv.Atoi(v)
			if err != nil {
				return LoadSample{}, fmt.Errorf("katran: bad rif %q", v)
			}
			s.RIF = n
		case "lat_us":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return LoadSample{}, fmt.Errorf("katran: bad lat_us %q", v)
			}
			s.Latency = time.Duration(n) * time.Microsecond
		case "phase":
			s.Phase = v
		case "gen":
			n, err := strconv.Atoi(v)
			if err != nil {
				return LoadSample{}, fmt.Errorf("katran: bad gen %q", v)
			}
			s.Generation = n
		}
	}
	return s, nil
}

// Prober is the probe transport shared by health probing and load
// probing: one implementation (and one fault-injection point) carries
// both the §2.3 health-check protocol and the Prequal load-probe
// protocol.
type Prober interface {
	// Probe performs one health probe; nil error means healthy.
	Probe(addr string, timeout time.Duration) error
	// Load performs one load probe, returning the backend's advertised
	// load signal and release phase.
	Load(addr string, timeout time.Duration) (LoadSample, error)
}

// HCProber is the default Prober: it speaks the one-line health-check
// protocol ("HC\n" → "OK\n") and the load-probe protocol ("LOAD\n" →
// "LOAD rif=... lat_us=... phase=... gen=...\n") that the Proxygen
// health listener implements.
//
// Health probes use a fresh connection per probe, exactly as Katran's
// prober does. Load probes ride one persistent connection per backend —
// the pool-of-probes transport — which also carries the ZDR drain
// advertisement: a draining instance stops accepting new connections
// but keeps serving established ones, so the persistent probe channel
// hears "phase=draining" the instant the release starts, long before a
// fresh-connection health probe would be refused.
type HCProber struct {
	// Dial overrides the dialer (default net.DialTimeout). This is the
	// single fault-injection point for both probe protocols: wire it to
	// a faults.Injector.Dial to chaos-test probing.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	mu    sync.Mutex
	conns map[string]*probeConn
}

// probeConn is one persistent load-probe channel.
type probeConn struct {
	c  net.Conn
	br *bufio.Reader
}

func (p *HCProber) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if p.Dial != nil {
		return p.Dial("tcp", addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// Probe implements the health-check side: "HC\n" → "OK\n". A draining
// instance answers "DRAIN", which counts as unhealthy — the §2.3
// mechanism for removing an instance from the routing ring.
func (p *HCProber) Probe(addr string, timeout time.Duration) error {
	conn, err := p.dial(addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte("HC\n")); err != nil {
		return err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return err
	}
	if line != "OK\n" {
		return fmt.Errorf("katran: unhealthy answer %q", line)
	}
	return nil
}

// Load implements the load-probe side over the persistent per-backend
// channel, reconnecting (once per call) when the channel is dead.
func (p *HCProber) Load(addr string, timeout time.Duration) (LoadSample, error) {
	p.mu.Lock()
	if p.conns == nil {
		p.conns = make(map[string]*probeConn)
	}
	pc := p.conns[addr]
	p.mu.Unlock()

	if pc != nil {
		if s, err := p.loadOn(pc, timeout); err == nil {
			return s, nil
		}
		// Dead channel: drop it and fall through to one fresh dial.
		p.dropConn(addr, pc)
	}
	conn, err := p.dial(addr, timeout)
	if err != nil {
		return LoadSample{}, err
	}
	pc = &probeConn{c: conn, br: bufio.NewReader(conn)}
	s, err := p.loadOn(pc, timeout)
	if err != nil {
		conn.Close()
		return LoadSample{}, err
	}
	p.mu.Lock()
	if old, ok := p.conns[addr]; ok && old != pc {
		old.c.Close() // raced with a concurrent reconnect; keep ours
	}
	p.conns[addr] = pc
	p.mu.Unlock()
	return s, nil
}

func (p *HCProber) loadOn(pc *probeConn, timeout time.Duration) (LoadSample, error) {
	pc.c.SetDeadline(time.Now().Add(timeout))
	if _, err := pc.c.Write([]byte("LOAD\n")); err != nil {
		return LoadSample{}, err
	}
	line, err := pc.br.ReadString('\n')
	if err != nil {
		return LoadSample{}, err
	}
	return ParseLoadLine(line)
}

func (p *HCProber) dropConn(addr string, pc *probeConn) {
	p.mu.Lock()
	if cur, ok := p.conns[addr]; ok && cur == pc {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	pc.c.Close()
}

// Close closes every persistent load-probe channel.
func (p *HCProber) Close() error {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, pc := range conns {
		pc.c.Close()
	}
	return nil
}
