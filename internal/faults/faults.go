// Package faults is a deterministic, seed-driven fault-injection layer
// for chaos-testing the release path (§5 "Operational Experience": the
// interesting behavior of a zero-downtime release only shows up when the
// network misbehaves mid-handoff).
//
// A Scenario describes fault *rates*; Scenario.Plan materialises, purely
// from (Seed, connection index), the exact schedule of faults one
// connection will experience — which delay before which read, which
// write is split, which operation aborts the transport. The PRNG is the
// same splitmix64 used by internal/workload, so a given Scenario
// reproduces byte-identical schedules on every run and platform: a chaos
// failure found in CI is replayable locally from nothing but the seed.
//
// An Injector hands out wrapped net.Conn / net.Listener / net.PacketConn
// values and a Dial helper. All Injector methods are nil-receiver safe:
// a nil *Injector is a no-op pass-through, so production paths carry an
// optional injector without branching.
package faults

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/workload"
)

// Op identifies one fault class.
type Op uint8

const (
	// OpNone leaves the operation untouched.
	OpNone Op = iota
	// OpDelay sleeps before a write (or a dial) proceeds.
	OpDelay
	// OpPartialWrite splits one write into several small underlying
	// writes, stressing reader-side reassembly of framed protocols. The
	// io.Writer contract is preserved: the full buffer is written unless
	// the transport itself errors.
	OpPartialWrite
	// OpStallRead sleeps before a read proceeds.
	OpStallRead
	// OpAbort closes the transport abruptly (SO_LINGER=0 on TCP, i.e. an
	// RST rather than an orderly FIN) and fails the operation.
	OpAbort
	// OpDropPacket silently discards a datagram (PacketConn only).
	OpDropPacket
	// OpFailDial fails a dial before any connection is made.
	OpFailDial
	// OpDropRPC fails one control-plane call (Injector.RPC) outright —
	// the operator↔node analogue of a lost request.
	OpDropRPC
	// OpDelayRPC delays one control-plane call before it proceeds.
	OpDelayRPC

	opCount
)

// String names the op for schedule dumps and test output.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpDelay:
		return "delay"
	case OpPartialWrite:
		return "partial-write"
	case OpStallRead:
		return "stall-read"
	case OpAbort:
		return "abort"
	case OpDropPacket:
		return "drop-packet"
	case OpFailDial:
		return "fail-dial"
	case OpDropRPC:
		return "drop-rpc"
	case OpDelayRPC:
		return "delay-rpc"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Step is one scheduled fault applied to the n-th read or write of a
// connection.
type Step struct {
	Op    Op
	Delay time.Duration // OpDelay / OpStallRead: how long to sleep
	Chunk int           // OpPartialWrite: max bytes per underlying write
}

// Scenario describes a reproducible fault schedule. All *Rate fields are
// probabilities in [0, 1] applied independently per operation (or per
// dial / per packet). The zero Scenario injects nothing.
type Scenario struct {
	// Seed drives every random choice. Two Scenarios with equal fields
	// produce byte-identical plans.
	Seed uint64

	// Dial-path faults.
	DialFailRate  float64       // probability a dial fails outright
	DialDelayRate float64       // probability a dial is delayed
	DialDelayMax  time.Duration // upper bound for an injected dial delay

	// Stream-connection faults, scheduled per read/write operation.
	WriteDelayRate   float64       // probability a write is delayed
	WriteDelayMax    time.Duration // upper bound for a write delay
	PartialWriteRate float64       // probability a write is split up
	ReadStallRate    float64       // probability a read is stalled
	ReadStallMax     time.Duration // upper bound for a read stall
	AbortRate        float64       // probability an op aborts the conn
	AbortMinOps      int           // ops exempt from abort at the head of a conn (lets handshakes complete)

	// Bandwidth shaping: when BandwidthBytesPerSec > 0, every wrapped
	// stream connection's writes pass through a per-connection token
	// bucket of that sustained rate, with BandwidthBurstBytes of burst
	// capacity (default: 100 ms worth of the rate). Shaping composes with
	// the scheduled faults above — WriteDelayRate/WriteDelayMax remain
	// the per-operation jitter knobs — and, unlike them, is continuous
	// rather than sampled, so it models a slow link instead of a glitch.
	BandwidthBytesPerSec float64
	BandwidthBurstBytes  int

	// Control-plane faults, applied per Injector.RPC call (the
	// operator↔node channel, distinct from the data-plane conns above).
	// Fleet chaos tests use these to degrade — and, together with
	// Injector.SetPartitioned, sever — the control plane mid-batch.
	RPCDropRate  float64       // probability a control call fails outright
	RPCDelayRate float64       // probability a control call is delayed
	RPCDelayMax  time.Duration // upper bound for an injected RPC delay

	// Datagram faults.
	DropRate float64 // probability a datagram is dropped (each direction)

	// MaxOps bounds the per-connection schedule length; operations past
	// the schedule run clean. Defaults to 64.
	MaxOps int
}

// DefaultMaxOps is the schedule length used when Scenario.MaxOps is 0.
const DefaultMaxOps = 64

// Plan is the fully materialised fault schedule for one connection:
// Reads[i] / Writes[i] apply to the connection's i-th read / write,
// Drops[i] to its i-th datagram in each direction.
type Plan struct {
	Conn      uint64 // connection index the plan was derived for
	DialFail  bool
	DialDelay time.Duration
	RPCDrop   bool          // the call this plan is consumed by fails
	RPCDelay  time.Duration // delay before the call proceeds
	Reads     []Step
	Writes    []Step
	Drops     []bool
}

// String renders the plan canonically; the determinism acceptance test
// compares these dumps byte-for-byte across runs.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conn %d dialfail=%v dialdelay=%s\n", p.Conn, p.DialFail, p.DialDelay)
	if p.RPCDrop || p.RPCDelay > 0 {
		fmt.Fprintf(&b, "  rpc drop=%v delay=%s\n", p.RPCDrop, p.RPCDelay)
	}
	for i, s := range p.Reads {
		if s.Op != OpNone {
			fmt.Fprintf(&b, "  r[%d] %s delay=%s\n", i, s.Op, s.Delay)
		}
	}
	for i, s := range p.Writes {
		if s.Op != OpNone {
			fmt.Fprintf(&b, "  w[%d] %s delay=%s chunk=%d\n", i, s.Op, s.Delay, s.Chunk)
		}
	}
	for i, d := range p.Drops {
		if d {
			fmt.Fprintf(&b, "  p[%d] drop\n", i)
		}
	}
	return b.String()
}

// mix folds a connection index into the scenario seed, splitmix64-style,
// so per-connection streams are independent but fully determined.
func mix(seed, conn uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(conn+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randDur(rng *workload.RNG, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Float64() * float64(max))
}

// Plan derives the schedule for the conn-th connection. It is a pure
// function of (Scenario, conn).
func (s Scenario) Plan(conn uint64) Plan {
	rng := workload.NewRNG(mix(s.Seed, conn))
	maxOps := s.MaxOps
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	pl := Plan{Conn: conn}
	pl.DialFail = s.DialFailRate > 0 && rng.Float64() < s.DialFailRate
	if s.DialDelayRate > 0 && rng.Float64() < s.DialDelayRate {
		pl.DialDelay = randDur(rng, s.DialDelayMax)
	}
	pl.RPCDrop = s.RPCDropRate > 0 && rng.Float64() < s.RPCDropRate
	if s.RPCDelayRate > 0 && rng.Float64() < s.RPCDelayRate {
		pl.RPCDelay = randDur(rng, s.RPCDelayMax)
	}
	if s.ReadStallRate > 0 || s.AbortRate > 0 {
		pl.Reads = make([]Step, maxOps)
		for i := range pl.Reads {
			switch {
			case s.AbortRate > 0 && i >= s.AbortMinOps && rng.Float64() < s.AbortRate:
				pl.Reads[i] = Step{Op: OpAbort}
			case s.ReadStallRate > 0 && rng.Float64() < s.ReadStallRate:
				pl.Reads[i] = Step{Op: OpStallRead, Delay: randDur(rng, s.ReadStallMax)}
			}
		}
	}
	if s.WriteDelayRate > 0 || s.PartialWriteRate > 0 || s.AbortRate > 0 {
		pl.Writes = make([]Step, maxOps)
		for i := range pl.Writes {
			switch {
			case s.AbortRate > 0 && i >= s.AbortMinOps && rng.Float64() < s.AbortRate:
				pl.Writes[i] = Step{Op: OpAbort}
			case s.PartialWriteRate > 0 && rng.Float64() < s.PartialWriteRate:
				pl.Writes[i] = Step{Op: OpPartialWrite, Chunk: 1 + rng.Intn(512)}
			case s.WriteDelayRate > 0 && rng.Float64() < s.WriteDelayRate:
				pl.Writes[i] = Step{Op: OpDelay, Delay: randDur(rng, s.WriteDelayMax)}
			}
		}
	}
	if s.DropRate > 0 {
		pl.Drops = make([]bool, maxOps)
		for i := range pl.Drops {
			pl.Drops[i] = rng.Float64() < s.DropRate
		}
	}
	return pl
}

// ErrInjected is the sentinel wrapped by every injector-produced error,
// so tests and retry loops can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected")

// Injector assigns consecutive connection indices to the connections it
// wraps and applies each one's Plan. A nil *Injector is a valid no-op.
type Injector struct {
	sc          Scenario
	next        atomic.Uint64
	counts      [opCount]atomic.Uint64
	partitioned atomic.Bool
	observer    atomic.Pointer[func(Op)]
	// writeCalls counts Write calls on the stream connections wrapped.
	writeCalls atomic.Uint64
}

// NewInjector creates an injector for sc.
func NewInjector(sc Scenario) *Injector { return &Injector{sc: sc} }

// Scenario returns the injector's scenario (zero Scenario when nil).
func (in *Injector) Scenario() Scenario {
	if in == nil {
		return Scenario{}
	}
	return in.sc
}

// Injected reports how many faults of class op have fired so far.
func (in *Injector) Injected(op Op) uint64 {
	if in == nil || int(op) >= len(in.counts) {
		return 0
	}
	return in.counts[op].Load()
}

// InjectedTotal reports the total number of faults fired so far.
func (in *Injector) InjectedTotal() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for i := range in.counts {
		t += in.counts[i].Load()
	}
	return t
}

// WriteCalls reports how many times Write has been called on the stream
// connections this injector wrapped: the number of writes the program
// issued, whatever a scheduled fault then made of each. With the zero
// Scenario the injector is a pure counter, which is what the
// writes-per-message tests use it for.
func (in *Injector) WriteCalls() uint64 {
	if in == nil {
		return 0
	}
	return in.writeCalls.Load()
}

func (in *Injector) count(op Op) {
	if int(op) < len(in.counts) {
		in.counts[op].Add(1)
	}
	if fn := in.observer.Load(); fn != nil {
		(*fn)(op)
	}
}

// SetObserver registers fn to be invoked once per injected fault, with
// the op that fired, at the moment the injector counts it. The chaos
// suite uses this to mirror every injected fault into a disruption
// ledger so injected and observed failures can be reconciled exactly.
// One observer at a time; fn must be cheap and non-blocking (it runs on
// the faulted connection's goroutine). Nil-receiver safe.
func (in *Injector) SetObserver(fn func(Op)) {
	if in == nil {
		return
	}
	if fn == nil {
		in.observer.Store(nil)
		return
	}
	in.observer.Store(&fn)
}

// nextPlan consumes the next connection index.
func (in *Injector) nextPlan() Plan { return in.sc.Plan(in.next.Add(1) - 1) }

// Conn wraps c with the next connection's fault schedule. Nil injector
// (or nil conn) passes through.
func (in *Injector) Conn(c net.Conn) net.Conn {
	if in == nil || c == nil {
		return c
	}
	return &conn{Conn: c, in: in, pl: in.nextPlan(), sh: in.newShaper()}
}

func (in *Injector) newShaper() *shaper {
	return newShaper(in.sc.BandwidthBytesPerSec, in.sc.BandwidthBurstBytes)
}

// Listener wraps l so every accepted connection is fault-wrapped. Nil
// injector passes through.
func (in *Injector) Listener(l net.Listener) net.Listener {
	if in == nil || l == nil {
		return l
	}
	return &listener{Listener: l, in: in}
}

// PacketConn wraps pc with the next connection's drop schedule. Nil
// injector passes through.
func (in *Injector) PacketConn(pc net.PacketConn) net.PacketConn {
	if in == nil || pc == nil {
		return pc
	}
	return &packetConn{PacketConn: pc, in: in, pl: in.nextPlan()}
}

// SetPartitioned severs (true) or heals (false) the control plane: while
// severed, every RPC call fails immediately, modelling a full network
// partition between the operator and its nodes. Orthogonal to the
// scheduled RPCDropRate/RPCDelayRate faults, which model a lossy — not
// absent — channel. Nil-receiver safe (no-op).
func (in *Injector) SetPartitioned(v bool) {
	if in != nil {
		in.partitioned.Store(v)
	}
}

// Partitioned reports whether the control plane is currently severed.
func (in *Injector) Partitioned() bool {
	return in != nil && in.partitioned.Load()
}

// RPC applies the next scheduled control-plane fault to one
// operator↔node call: it sleeps any scheduled delay, then returns an
// ErrInjected-wrapped error if the call is scheduled to drop (or the
// injector is partitioned). A nil error means the call may proceed. op
// names the call in the error for test output. Nil injector never
// injects.
func (in *Injector) RPC(op string) error {
	if in == nil {
		return nil
	}
	if in.partitioned.Load() {
		in.count(OpDropRPC)
		return fmt.Errorf("%w rpc %s dropped (partitioned)", ErrInjected, op)
	}
	if in.sc.RPCDropRate <= 0 && in.sc.RPCDelayRate <= 0 {
		return nil
	}
	pl := in.nextPlan()
	if pl.RPCDelay > 0 {
		in.count(OpDelayRPC)
		time.Sleep(pl.RPCDelay)
	}
	if pl.RPCDrop {
		in.count(OpDropRPC)
		return fmt.Errorf("%w rpc %s dropped (conn %d)", ErrInjected, op, pl.Conn)
	}
	return nil
}

// Dial dials like net.DialTimeout through the injector: the next
// connection's plan decides whether the dial is delayed or fails, and
// the returned conn carries the rest of that plan. A nil injector is
// exactly net.DialTimeout.
func (in *Injector) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	if in == nil {
		return net.DialTimeout(network, addr, timeout)
	}
	pl := in.nextPlan()
	if pl.DialDelay > 0 {
		in.count(OpDelay)
		time.Sleep(pl.DialDelay)
	}
	if pl.DialFail {
		in.count(OpFailDial)
		return nil, &net.OpError{Op: "dial", Net: network, Err: fmt.Errorf("%w dial failure (conn %d)", ErrInjected, pl.Conn)}
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, in: in, pl: pl, sh: in.newShaper()}, nil
}

// listener fault-wraps accepted connections.
type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// shaper is a token bucket limiting sustained write throughput. Tokens
// are bytes; a write spends its size and sleeps off any debt, so large
// writes simply owe proportionally longer — sustained rate stays exact
// regardless of write sizing.
type shaper struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket capacity, bytes
	tokens float64
	last   time.Time
}

// newShaper returns nil (no shaping) when rate <= 0. burst <= 0 defaults
// to 100 ms worth of the rate.
func newShaper(rate float64, burst int) *shaper {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = rate / 10
	}
	if b < 1 {
		b = 1
	}
	return &shaper{rate: rate, burst: b, tokens: b, last: time.Now()}
}

// take spends n tokens, sleeping until the bucket (refilled at rate, capped
// at burst) covers the debt. Nil-receiver safe.
func (s *shaper) take(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	now := time.Now()
	s.tokens += now.Sub(s.last).Seconds() * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.last = now
	s.tokens -= float64(n)
	var wait time.Duration
	if s.tokens < 0 {
		wait = time.Duration(-s.tokens / s.rate * float64(time.Second))
	}
	s.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// conn applies a Plan's read/write schedules to a stream connection.
type conn struct {
	net.Conn
	in *Injector
	pl Plan
	sh *shaper

	rmu  sync.Mutex
	ridx int
	wmu  sync.Mutex
	widx int

	aborted atomic.Bool
}

// abort tears the transport down un-gracefully: linger 0 turns the close
// into a TCP RST, the abrupt-close class of §5 incidents.
func (c *conn) abort() {
	if c.aborted.Swap(true) {
		return
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

func (c *conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	var st Step
	if c.ridx < len(c.pl.Reads) {
		st = c.pl.Reads[c.ridx]
		c.ridx++
	}
	c.rmu.Unlock()
	switch st.Op {
	case OpStallRead:
		c.in.count(OpStallRead)
		time.Sleep(st.Delay)
	case OpAbort:
		c.in.count(OpAbort)
		c.abort()
		return 0, fmt.Errorf("%w abort on read (conn %d)", ErrInjected, c.pl.Conn)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	c.in.writeCalls.Add(1)
	c.sh.take(len(p))
	c.wmu.Lock()
	var st Step
	if c.widx < len(c.pl.Writes) {
		st = c.pl.Writes[c.widx]
		c.widx++
	}
	c.wmu.Unlock()
	switch st.Op {
	case OpDelay:
		c.in.count(OpDelay)
		time.Sleep(st.Delay)
	case OpAbort:
		c.in.count(OpAbort)
		c.abort()
		return 0, fmt.Errorf("%w abort on write (conn %d)", ErrInjected, c.pl.Conn)
	case OpPartialWrite:
		c.in.count(OpPartialWrite)
		chunk := st.Chunk
		if chunk <= 0 {
			chunk = 1
		}
		total := 0
		for len(p) > 0 {
			n := chunk
			if n > len(p) {
				n = len(p)
			}
			m, err := c.Conn.Write(p[:n])
			total += m
			if err != nil {
				return total, err
			}
			p = p[n:]
		}
		return total, nil
	}
	return c.Conn.Write(p)
}

// packetConn applies a Plan's drop schedule to datagrams. Drops on the
// write side report success (the datagram vanished in the network);
// drops on the read side skip to the next datagram.
type packetConn struct {
	net.PacketConn
	in *Injector
	pl Plan

	rmu  sync.Mutex
	ridx int
	wmu  sync.Mutex
	widx int
}

func (pc *packetConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := pc.PacketConn.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		pc.rmu.Lock()
		drop := false
		if pc.ridx < len(pc.pl.Drops) {
			drop = pc.pl.Drops[pc.ridx]
			pc.ridx++
		}
		pc.rmu.Unlock()
		if drop {
			pc.in.count(OpDropPacket)
			continue
		}
		return n, addr, nil
	}
}

func (pc *packetConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	pc.wmu.Lock()
	drop := false
	if pc.widx < len(pc.pl.Drops) {
		drop = pc.pl.Drops[pc.widx]
		pc.widx++
	}
	pc.wmu.Unlock()
	if drop {
		pc.in.count(OpDropPacket)
		return len(p), nil
	}
	return pc.PacketConn.WriteTo(p, addr)
}
