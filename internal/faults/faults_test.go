package faults

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// chaoticScenario exercises every schedule dimension.
func chaoticScenario(seed uint64) Scenario {
	return Scenario{
		Seed:             seed,
		DialFailRate:     0.2,
		DialDelayRate:    0.3,
		DialDelayMax:     5 * time.Millisecond,
		WriteDelayRate:   0.25,
		WriteDelayMax:    3 * time.Millisecond,
		PartialWriteRate: 0.25,
		ReadStallRate:    0.25,
		ReadStallMax:     3 * time.Millisecond,
		AbortRate:        0.05,
		AbortMinOps:      2,
		DropRate:         0.3,
		MaxOps:           32,
	}
}

// TestScenarioDeterminism is the acceptance criterion: the same Scenario
// seed reproduces byte-identical fault schedules across two independent
// runs.
func TestScenarioDeterminism(t *testing.T) {
	dump := func(sc Scenario) string {
		var b strings.Builder
		for conn := uint64(0); conn < 200; conn++ {
			b.WriteString(sc.plan(conn).String())
		}
		return b.String()
	}
	a := dump(chaoticScenario(42))
	b := dump(chaoticScenario(42))
	if a != b {
		t.Fatal("same seed produced different schedules")
	}
	if c := dump(chaoticScenario(43)); c == a {
		t.Fatal("different seeds produced identical schedules")
	}
	// The dump must actually contain faults of every stream class, or
	// the comparison proves nothing.
	for _, want := range []string{"dialfail=true", "stall-read", "partial-write", "abort", "drop", "delay"} {
		if !strings.Contains(a, want) {
			t.Fatalf("schedule dump has no %q fault:\n%s", want, a[:min(len(a), 2000)])
		}
	}
}

// TestInjectorPlanSequence: an injector assigns consecutive connection
// indices, so two injectors with the same scenario wrap identical
// schedules in identical order.
func TestInjectorPlanSequence(t *testing.T) {
	a, b := NewInjector(chaoticScenario(7)), NewInjector(chaoticScenario(7))
	for i := 0; i < 50; i++ {
		if pa, pb := a.nextPlan(), b.nextPlan(); pa.String() != pb.String() {
			t.Fatalf("plan %d diverged", i)
		}
	}
}

// TestNilInjectorPassThrough: all methods are nil-receiver safe no-ops.
func TestNilInjectorPassThrough(t *testing.T) {
	var in *Injector
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := in.Listener(ln); got != ln {
		t.Fatal("nil injector wrapped a listener")
	}
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := in.Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := c.(*conn); wrapped {
		t.Fatal("nil injector wrapped a dialed conn")
	}
	c.Close()
	if in.Injected(OpAbort) != 0 || in.InjectedTotal() != 0 {
		t.Fatal("nil injector counted faults")
	}
}

// TestPartialWritePreservesBytes: a split write still delivers every
// byte, in order (the io.Writer contract holds).
func TestPartialWritePreservesBytes(t *testing.T) {
	in := NewInjector(Scenario{Seed: 1, PartialWriteRate: 1, MaxOps: 8})
	client, server := net.Pipe()
	defer server.Close()
	fc := in.Conn(client)
	payload := bytes.Repeat([]byte("zero-downtime-release "), 200)
	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1024)
		for len(got) < len(payload) {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	if n, err := fc.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	<-done
	if !bytes.Equal(got, payload) {
		t.Fatal("split write corrupted the byte stream")
	}
	if in.Injected(OpPartialWrite) == 0 {
		t.Fatal("no partial write recorded")
	}
}

// TestAbortIsRSTStyle: an abort closes the transport hard; the peer sees
// an error (reset or EOF), and the local op fails with ErrInjected.
func TestAbortIsRSTStyle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer c.Close()
		// The kernel reports a reset once, to whichever call meets it
		// first, and a clean end to the calls after: when the RST beats
		// this write, the write is what sees it and the read below gets
		// a plain EOF.
		if _, err := c.Write([]byte("hello")); err != nil {
			peerErr <- err
			return
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = io.ReadAll(c)
		peerErr <- err
	}()
	in := NewInjector(Scenario{Seed: 3, AbortRate: 1, MaxOps: 4})
	c, err := in.Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read error = %v, want ErrInjected", err)
	}
	if err := <-peerErr; err == nil {
		t.Fatal("peer saw a clean EOF-less stream after an abort")
	}
	if in.Injected(OpAbort) == 0 {
		t.Fatal("no abort recorded")
	}
}

// TestDialFail: a scheduled dial failure fires without touching the
// network, wrapped in ErrInjected.
func TestDialFail(t *testing.T) {
	in := NewInjector(Scenario{Seed: 11, DialFailRate: 1})
	if _, err := in.Dial("tcp", "127.0.0.1:1", time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial error = %v, want ErrInjected", err)
	}
	if in.Injected(OpFailDial) != 1 {
		t.Fatal("dial failure not counted")
	}
}

// TestPacketDrops: write-side drops swallow datagrams; the loss is
// bounded by the schedule, never an error.
func TestPacketDrops(t *testing.T) {
	serverPC, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverPC.Close()
	clientPC, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientPC.Close()

	var received atomic.Int64
	go func() {
		buf := make([]byte, 64)
		for {
			if _, _, err := serverPC.ReadFrom(buf); err != nil {
				return
			}
			received.Add(1)
		}
	}()

	in := NewInjector(Scenario{Seed: 5, DropRate: 0.5, MaxOps: 40})
	fpc := in.PacketConn(clientPC)
	for i := 0; i < 40; i++ {
		if _, err := fpc.WriteTo([]byte("ping"), serverPC.LocalAddr()); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	dropped := int64(in.Injected(OpDropPacket))
	if dropped == 0 || dropped == 40 {
		t.Fatalf("dropped %d of 40, want strictly partial loss", dropped)
	}
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() < 40-dropped && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := received.Load(); got != 40-dropped {
		t.Fatalf("received %d, want %d (40 sent, %d dropped)", got, 40-dropped, dropped)
	}
}

// TestBackoffDelayShape: delays grow geometrically, cap at Max, and are
// deterministic per (Backoff, attempt).
func TestBackoffDelayShape(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	j := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, jitter: 0.5, seed: 9}
	for i := 0; i < 6; i++ {
		d1, d2 := j.Delay(i), j.Delay(i)
		if d1 != d2 {
			t.Fatalf("jittered Delay(%d) not deterministic: %v vs %v", i, d1, d2)
		}
		base := Backoff{Base: j.Base, Max: j.Max, Factor: j.Factor}.Delay(i)
		lo, hi := base*3/4, base*5/4
		if d1 < lo || d1 > hi {
			t.Fatalf("jittered Delay(%d) = %v outside [%v, %v]", i, d1, lo, hi)
		}
	}
}

// TestBackoffRetry: retries until success; Permanent short-circuits; ctx
// cancellation interrupts the sleep.
func TestBackoffRetry(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 10}
	calls := 0
	err := b.Retry(context.Background(), func() error {
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("Retry = %v after %d calls", err, calls)
	}

	calls = 0
	sentinel := errors.New("protocol violation")
	err = b.Retry(context.Background(), func() error {
		calls++
		return Permanent(sentinel)
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("Permanent: err=%v calls=%d", err, calls)
	}

	calls = 0
	exhausted := b.Retry(context.Background(), func() error {
		calls++
		return errors.New("always")
	})
	if exhausted == nil || calls != 10 {
		t.Fatalf("exhaustion: err=%v calls=%d", exhausted, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	slow := Backoff{Base: time.Minute, Attempts: 5}
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err = slow.Retry(ctx, func() error { return errors.New("fail") })
	if err == nil {
		t.Fatal("cancelled Retry returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Retry ignored context cancellation")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
