package netx

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/racetest"
)

// wakeEcho is a handler that writes back what each wake brought and keeps
// the books the tests read: wakes by their size, bytes, and whether the
// connection was found quiet at entry.
type wakeEcho struct {
	conn  net.Conn
	buf   []byte
	sizes []int // guarded by mu
	quiet int
	mu    sync.Mutex
	// stopAt ends the Run once that many bytes have been echoed (0: never).
	stopAt, echoed int
	// hold, if not nil, is received from inside ServeWake before the echo.
	hold chan struct{}
	in   atomic.Int32 // 1 while a ServeWake waits on hold
}

func (e *wakeEcho) ReadBuf() []byte { return e.buf }

func (e *wakeEcho) ServeWake(n int) bool {
	e.mu.Lock()
	if n == 0 {
		e.quiet++
	} else {
		e.sizes = append(e.sizes, n)
	}
	e.mu.Unlock()
	if n == 0 {
		return false
	}
	if e.hold != nil {
		e.in.Store(1)
		<-e.hold
		e.in.Store(0)
	}
	e.conn.Write(e.buf[:n])
	e.echoed += n
	return e.stopAt > 0 && e.echoed >= e.stopAt
}

func (e *wakeEcho) quietWakes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quiet
}

func (e *wakeEcho) wakes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.sizes...)
}

// TestWakeReaderNoLostWake: a peer whose next ping leaves the moment the
// echo of the last arrives writes into the reader's serve→wait
// transition, every time. No round trip may stall, at any GOMAXPROCS; and
// a ping costs the reader one read.
func TestWakeReaderNoLostWake(t *testing.T) {
	rounds := 34000 // × 3 settings: over a hundred thousand ping-pongs
	if testing.Short() {
		rounds = 2000
	}
	for _, procs := range []int{1, 2, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		client, server := tcpConnPair(t)
		e := &wakeEcho{conn: server, buf: make([]byte, 256), stopAt: 8 * rounds}
		var w WakeReader
		w.Init(server, e)
		done := make(chan error, 1)
		before := WakeReads()
		go func() { done <- w.Run() }()
		ping, pong := []byte("ping-pong"[:8]), make([]byte, 8)
		for i := 0; i < rounds; i++ {
			client.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := client.Write(ping); err != nil {
				t.Fatalf("GOMAXPROCS %d, round %d: %v", procs, i, err)
			}
			if _, err := io.ReadFull(client, pong); err != nil || !bytes.Equal(ping, pong) {
				t.Fatalf("GOMAXPROCS %d, round %d stalled or came back wrong: %q, %v", procs, i, pong, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("GOMAXPROCS %d: Run: %v", procs, err)
		}
		// One read a ping, and the one at entry that found nothing.
		if reads := WakeReads() - before; reads > uint64(rounds)+1 {
			t.Errorf("GOMAXPROCS %d: %d reads for %d pings", procs, reads, rounds)
		}
	}
}

// TestWakeReaderReadsAgainOnlyBehindMore counts reads: one that leaves
// bytes queued is followed by another at once, one that took all there
// was — short of its room or exactly filling it — by the wait.
func TestWakeReaderReadsAgainOnlyBehindMore(t *testing.T) {
	client, server := tcpConnPair(t)
	e := &wakeEcho{conn: server, buf: make([]byte, 64)}
	var w WakeReader
	w.Init(server, e)
	go w.Run()
	for e.quietWakes() == 0 { // the read at entry, which finds nothing
		time.Sleep(time.Millisecond)
	}
	back := make([]byte, 256)
	for _, tc := range []struct {
		send  int
		wakes []int
	}{
		{10, []int{10}},
		{64, []int{64}},
		{100, []int{64, 36}},
		{128, []int{64, 64}},
	} {
		e.mu.Lock()
		e.sizes = nil
		e.mu.Unlock()
		before := WakeReads()
		client.Write(make([]byte, tc.send))
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(client, back[:tc.send]); err != nil {
			t.Fatal(err)
		}
		// The echo is written inside the wake: give the reader the
		// moment it takes to get from there to its wait.
		time.Sleep(20 * time.Millisecond)
		if got := e.wakes(); !equalInts(got, tc.wakes) {
			t.Errorf("%d bytes arrived as wakes %v, want %v", tc.send, got, tc.wakes)
		}
		if reads := WakeReads() - before; reads != uint64(len(tc.wakes)) {
			t.Errorf("%d bytes cost %d reads, want %d", tc.send, reads, len(tc.wakes))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWakeReaderWithoutInqReadsToEAGAIN: a socket that does not take
// TCP_INQ is read until it has nothing more, as conn.Read reads it.
func TestWakeReaderWithoutInqReadsToEAGAIN(t *testing.T) {
	client, server := socketPair(t)
	defer client.Close()
	defer server.Close()
	e := &wakeEcho{conn: server, buf: make([]byte, 64), stopAt: 10}
	var w WakeReader
	w.Init(server, e)
	before := WakeReads()
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	for e.quietWakes() == 0 { // the read at entry, which finds nothing
		time.Sleep(time.Millisecond)
	}
	client.Write(make([]byte, 4))
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// At entry, the four bytes, and the read behind them that says EAGAIN.
	if reads := WakeReads() - before; reads != 3 {
		t.Errorf("%d reads, want 3", reads)
	}
	client.Write(make([]byte, 6))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.inq {
		t.Fatal("a unix socket took TCP_INQ")
	}
}

// TestWakeReaderEndsOfAWait: what ends a parked wait, promptly and with
// the error conn.Read would have returned — the read deadline (the app
// server's drain kick), the connection's Close (terminate) from another
// goroutine, by either name, and the peer's FIN — and that none of it
// costs a descriptor.
func TestWakeReaderEndsOfAWait(t *testing.T) {
	baseline, err := OpenFDCount()
	if err != nil {
		t.Skip(err)
	}
	cases := []struct {
		name string
		end  func(w *WakeReader, client, server *net.TCPConn)
		is   func(error) bool
	}{
		{"SetReadDeadline(now)", func(_ *WakeReader, _, server *net.TCPConn) { server.SetReadDeadline(time.Now()) },
			func(err error) bool {
				var ne net.Error
				return errors.As(err, &ne) && ne.Timeout() && errors.Is(err, os.ErrDeadlineExceeded)
			}},
		{"conn.Close", func(_ *WakeReader, _, server *net.TCPConn) { server.Close() },
			func(err error) bool { return errors.Is(err, net.ErrClosed) }},
		{"WakeReader.Close", func(w *WakeReader, _, _ *net.TCPConn) { w.Close() },
			func(err error) bool { return errors.Is(err, net.ErrClosed) }},
		{"peer's FIN", func(_ *WakeReader, client, _ *net.TCPConn) { client.Close() },
			func(err error) bool { return err == io.EOF }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := tcpConnPair(t)
			e := &wakeEcho{conn: server, buf: make([]byte, 64)}
			var w WakeReader
			w.Init(server, e)
			done := make(chan error, 1)
			go func() { done <- w.Run() }()
			// Park it behind a served message, not only behind the entry.
			client.Write([]byte("one"))
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(client, make([]byte, 3)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			t0 := time.Now()
			tc.end(&w, client, server)
			select {
			case err := <-done:
				if !tc.is(err) {
					t.Fatalf("Run returned %v (%T)", err, err)
				}
				if d := time.Since(t0); d > wakeBackstop/2 {
					t.Errorf("the wait ended after %v", d)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the wait did not end")
			}
			if tc.name == "SetReadDeadline(now)" {
				// The wait can be resumed: nothing was consumed.
				server.SetReadDeadline(time.Time{})
				e.stopAt = e.echoed + 3
				go func() { done <- w.Run() }()
				client.Write([]byte("two"))
				if _, err := io.ReadFull(client, make([]byte, 3)); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatalf("resumed Run: %v", err)
				}
			}
			client.Close()
			w.Close()
		})
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n, _ := OpenFDCount()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open, %d before", n, baseline)
		}
	}
}

// TestWakeReaderCloseDoesNotWaitForAServe: Close from another goroutine
// returns while a ServeWake is blocked — net.Conn.Close would wait for it,
// it runs under the descriptor's read lock — the peer sees the connection
// end at once, and the descriptor is closed when the serve returns.
func TestWakeReaderCloseDoesNotWaitForAServe(t *testing.T) {
	baseline, err := OpenFDCount()
	if err != nil {
		t.Skip(err)
	}
	client, server := tcpConnPair(t)
	e := &wakeEcho{conn: server, buf: make([]byte, 64), hold: make(chan struct{})}
	var w WakeReader
	w.Init(server, e)
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	client.Write([]byte("held"))
	for e.in.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited for the ServeWake")
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the peer of a closed connection read %v, want EOF", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Run returned (%v) with its ServeWake still blocked", err)
	default:
	}
	close(e.hold)
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Run returned %v, want net.ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second Close: %v", err)
	}
	client.Close()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n, _ := OpenFDCount(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open, %d before: Run did not close the connection", n, baseline)
		}
	}
}

// TestWakeReaderSeesTheEndBehindData: the peer's last bytes and its FIN,
// or its RST, are both there before the reader looks — one edge, or none
// at all since Run's reset came after them. The FIN is reported by the
// read that took the data (TCP_INQ) and costs no wait; the RST is not,
// and is found by the backstop of a reader that asked for one.
func TestWakeReaderSeesTheEndBehindData(t *testing.T) {
	for _, rst := range []bool{false, true} {
		client, server := tcpConnPair(t)
		h := &wakeSink{buf: make([]byte, 64)}
		var w WakeReader
		w.Init(server, h)
		w.ConfirmWaits()
		client.Write([]byte("last words"))
		if rst {
			client.SetLinger(0)
		}
		client.Close()
		time.Sleep(20 * time.Millisecond) // both have crossed loopback
		t0 := time.Now()
		done := make(chan error, 1)
		go func() { done <- w.Run() }()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, net.ErrClosed) {
				t.Fatalf("rst=%v: Run returned %v", rst, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rst=%v: the end behind the data was never seen", rst)
		}
		if h.got != "last words" {
			t.Errorf("rst=%v: served %q", rst, h.got)
		}
		if d := time.Since(t0); !rst && d > wakeBackstop/2 {
			t.Errorf("a FIN behind data took %v to see", d)
		}
	}
}

// wakeSink keeps what its wakes bring.
type wakeSink struct {
	buf []byte
	got string
}

func (h *wakeSink) ReadBuf() []byte { return h.buf }
func (h *wakeSink) ServeWake(n int) bool {
	h.got += string(h.buf[:n])
	return false
}

// pipeHandler reads what a wake brought through the WakeReader, as a
// handler that parses with a bufio.Reader does.
type pipeHandler struct {
	w      *WakeReader
	buf    []byte
	wakes  []int
	got    []byte
	beyond error // what a Read past the wake's bytes returned, inside the wake
}

func (h *pipeHandler) ReadBuf() []byte { return h.buf }
func (h *pipeHandler) ServeWake(n int) bool {
	h.wakes = append(h.wakes, n)
	if n == 0 {
		return false
	}
	p := make([]byte, 3)
	for {
		k, err := h.w.Read(p)
		h.got = append(h.got, p[:k]...)
		if err != nil {
			h.beyond = err
			break
		}
	}
	return len(h.got) >= 10
}

// TestWakeReaderHiddenDescriptor: a connection with no descriptor in
// reach is driven by Reads calling the same handler: quiet at entry by
// assumption, then a wake per Read; Read hands out a wake's bytes, inside
// the wake nothing more, and after the Run the connection itself.
func TestWakeReaderHiddenDescriptor(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	h := &pipeHandler{buf: make([]byte, 8)}
	var w WakeReader
	h.w = &w
	w.Init(server, h)
	if w.rc != nil {
		t.Fatal("net.Pipe has a descriptor")
	}
	go func() {
		client.Write([]byte("abcde"))
		client.Write([]byte("fghij"))
		client.Write([]byte("klm"))
	}()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !equalInts(h.wakes, []int{0, 5, 5}) || string(h.got) != "abcdefghij" || h.beyond != errWakeSpent {
		t.Fatalf("wakes %v, got %q, a Read past a wake's bytes: %v", h.wakes, h.got, h.beyond)
	}
	p := make([]byte, 8)
	if n, err := w.Read(p); err != nil || string(p[:n]) != "klm" {
		t.Fatalf("Read after the Run: %q, %v", p[:n], err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("Close left the pipe open")
	}
}

// TestWakeReaderRunAllocatesNothing: a served message costs no
// allocation — the callback is bound once, at Init.
func TestWakeReaderRunAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	client, server := tcpConnPair(t)
	e := &wakeEcho{conn: server, buf: make([]byte, 64)}
	e.sizes = make([]int, 0, 4096)
	var w WakeReader
	w.Init(server, e)
	pong := make([]byte, 4)
	round := func() {
		e.stopAt = e.echoed + 4
		client.Write([]byte("ping"))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		io.ReadFull(client, pong)
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("%v allocations per Run", avg)
	}
}
