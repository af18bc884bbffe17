package netx

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zdr/internal/faults"
	"zdr/internal/racetest"
)

// tcpConnPair returns two ends of a loopback TCP connection.
func tcpConnPair(t testing.TB) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		client.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client.(*net.TCPConn), r.c.(*net.TCPConn)
}

// relayChain builds client → relay → sink and returns the client-side
// conn to write into, the sink-side conn to read from, and the relay's
// two inner TCP conns handed to the pump under test.
func relayChain(t *testing.T) (in *net.TCPConn, out *net.TCPConn, src *net.TCPConn, dst *net.TCPConn) {
	t.Helper()
	in, src = tcpConnPair(t)
	dst, out = tcpConnPair(t)
	return in, out, src, dst
}

func TestRelaySpliceTCPToTCP(t *testing.T) {
	in, out, src, dst := relayChain(t)
	before := ReadRelayStats()

	payload := bytes.Repeat([]byte("zero-downtime"), 1<<15) // ~416 KiB
	var wg sync.WaitGroup
	wg.Add(1)
	var relayN int64
	var relayErr error
	go func() {
		defer wg.Done()
		relayN, relayErr = Relay(dst, src)
		dst.CloseWrite()
	}()
	go func() {
		in.Write(payload)
		in.CloseWrite()
	}()
	got, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if relayErr != nil {
		t.Fatalf("relay error: %v", relayErr)
	}
	if relayN != int64(len(payload)) || !bytes.Equal(got, payload) {
		t.Fatalf("relayed %d bytes (want %d), payload match=%v", relayN, len(payload), bytes.Equal(got, payload))
	}
	after := ReadRelayStats()
	if d := after.SpliceBytes - before.SpliceBytes; d < int64(len(payload)) {
		t.Errorf("splice_bytes grew by %d, want >= %d (zero-copy path not taken)", d, len(payload))
	}
}

func TestRelayWrappedConnTakesCopyPath(t *testing.T) {
	in, out, src, dst := relayChain(t)
	before := ReadRelayStats()

	// An observing wrapper — the faults package's shape: embeds the
	// net.Conn interface, so it is neither *net.TCPConn nor syscall.Conn.
	var seen int64
	wsrc := &observedConn{Conn: src, n: &seen}

	payload := bytes.Repeat([]byte("observable"), 4096)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Relay(dst, wsrc)
		dst.CloseWrite()
	}()
	go func() {
		in.Write(payload)
		in.CloseWrite()
	}()
	got, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted on copy path")
	}
	if seen != int64(len(payload)) {
		t.Errorf("wrapper observed %d bytes, want %d — copy path must pass every byte through the wrapper", seen, len(payload))
	}
	after := ReadRelayStats()
	if d := after.CopyBytes - before.CopyBytes; d < int64(len(payload)) {
		t.Errorf("copy_bytes grew by %d, want >= %d", d, len(payload))
	}
	if after.SpliceBytes != before.SpliceBytes {
		t.Errorf("splice_bytes moved for a wrapped conn: %d -> %d", before.SpliceBytes, after.SpliceBytes)
	}
}

type observedConn struct {
	net.Conn
	n *int64
}

func (o *observedConn) Read(p []byte) (int, error) {
	n, err := o.Conn.Read(p)
	*o.n += int64(n)
	return n, err
}

// writeCountedTCP is a wrapper that embeds the concrete *net.TCPConn, as
// a capture tee might: ReadFrom is promoted with everything else, and a
// copy that asked for it would go round the Write that counts.
type writeCountedTCP struct {
	*net.TCPConn
	n int64
}

func (w *writeCountedTCP) Write(p []byte) (int, error) {
	n, err := w.TCPConn.Write(p)
	w.n += int64(n)
	return n, err
}

// TestRelayPassesEveryByteThroughAWrappedDst: the copy path is a plain
// Read/Write loop, so a wrapped TCP destination sees every byte in its
// Write whether the wrapper hides ReadFrom (the faults package's, which
// embeds the net.Conn interface) or promotes it — and the source being a
// bare *net.TCPConn, which has WriteTo, changes nothing.
func TestRelayPassesEveryByteThroughAWrappedDst(t *testing.T) {
	payload := bytes.Repeat([]byte("every byte"), 1<<17) // 1.25 MiB
	for _, wrapper := range []string{"faults", "promotes ReadFrom"} {
		in, out, src, dst := relayChain(t)
		inj := faults.NewInjector(faults.Scenario{})
		counted := &writeCountedTCP{TCPConn: dst}
		var wdst io.Writer = counted
		if wrapper == "faults" {
			wdst = inj.Conn(counted)
		}
		before := ReadRelayStats()
		relayed := make(chan error, 1)
		go func() {
			n, err := Relay(wdst, src)
			if err == nil && n != int64(len(payload)) {
				err = io.ErrShortWrite
			}
			dst.CloseWrite()
			relayed <- err
		}()
		go func() {
			in.Write(payload)
			in.CloseWrite()
		}()
		got, err := io.ReadAll(out)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: %d bytes arrived, %v", wrapper, len(got), err)
		}
		if err := <-relayed; err != nil {
			t.Fatalf("%s: relay: %v", wrapper, err)
		}
		if counted.n != int64(len(payload)) {
			t.Errorf("%s: the wrapper's Write saw %d of %d bytes", wrapper, counted.n, len(payload))
		}
		if calls := inj.WriteCalls(); wrapper == "faults" && calls == 0 {
			t.Errorf("%s: the injector saw no Write", wrapper)
		}
		after := ReadRelayStats()
		if d := after.CopyBytes - before.CopyBytes; d != int64(len(payload)) || after.SpliceBytes != before.SpliceBytes {
			t.Errorf("%s: copy_bytes grew by %d and splice_bytes by %d, want %d and 0", wrapper, d, after.SpliceBytes-before.SpliceBytes, len(payload))
		}
	}
}

// partWriter takes the first take bytes of every Write, all of them when
// take is negative, and returns err.
type partWriter struct {
	take int
	err  error
}

func (w partWriter) Write(p []byte) (int, error) {
	if w.take < 0 {
		return len(p), w.err
	}
	return w.take, w.err
}

// TestRelayCopyErrors: the copy path ends as io.Copy ends — a write error
// before a read error, a short write named, a source's error passed on and
// its EOF not — and counts what the destination took.
func TestRelayCopyErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name    string
		src     io.Reader
		dst     partWriter
		written int64
		err     error
	}{
		{"clean", strings.NewReader("0123456789"), partWriter{-1, nil}, 10, nil},
		{"write error", strings.NewReader("0123456789"), partWriter{4, boom}, 4, boom},
		{"short write", strings.NewReader("0123456789"), partWriter{4, nil}, 4, io.ErrShortWrite},
		{"read error", io.MultiReader(strings.NewReader("01234"), dataAndErr{"", boom}), partWriter{-1, nil}, 5, boom},
		{"data with the read error", dataAndErr{"01234", boom}, partWriter{-1, nil}, 5, boom},
		{"write error beside a read error", dataAndErr{"01234", io.ErrUnexpectedEOF}, partWriter{2, boom}, 2, boom},
	} {
		before := ReadRelayStats().CopyBytes
		n, err := Relay(c.dst, c.src)
		if n != c.written || err != c.err {
			t.Errorf("%s: Relay = %d, %v; want %d, %v", c.name, n, err, c.written, c.err)
		}
		if d := ReadRelayStats().CopyBytes - before; d != c.written {
			t.Errorf("%s: copy_bytes grew by %d, want %d", c.name, d, c.written)
		}
	}
}

// TestRelayCopyAllocations: a relay on the copy path costs its pooled
// buffer and nothing else — no shell around either end.
func TestRelayCopyAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	src := strings.NewReader("")
	var dst io.Writer = partWriter{-1, nil}
	if n := testing.AllocsPerRun(100, func() {
		src.Reset("0123456789")
		Relay(dst, src)
	}); n != 0 {
		t.Errorf("Relay on the copy path: %v allocs, want 0", n)
	}

	// From a bare TCP connection to anything else the reads are a
	// WakeReader's: what that costs, it costs once per relay and not per
	// message, and it ends as the plain loop does.
	in, tcpSrc := tcpConnPair(t)
	got := make(chan int)
	before := ReadRelayStats().CopyBytes
	done := make(chan error)
	go func() {
		_, err := Relay(writerFunc(func(p []byte) (int, error) { got <- len(p); return len(p), nil }), tcpSrc)
		done <- err
	}()
	msg := []byte("0123456789")
	if n := testing.AllocsPerRun(100, func() {
		in.Write(msg)
		<-got
	}); n != 0 {
		t.Errorf("Relay from a TCP connection: %v allocs per message, want 0", n)
	}
	in.Close()
	if err := <-done; err != nil {
		t.Errorf("Relay from a TCP connection closed by its peer: %v, want nil", err)
	}
	if d := ReadRelayStats().CopyBytes - before; d != 101*int64(len(msg)) {
		t.Errorf("copy_bytes grew by %d over 101 messages of %d bytes", d, len(msg))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// dataAndErr returns its data and its error from one Read.
type dataAndErr struct {
	data string
	err  error
}

func (r dataAndErr) Read(p []byte) (int, error) { return copy(p, r.data), r.err }

func TestSpliceLargeTransferIntegrity(t *testing.T) {
	in, out, src, dst := relayChain(t)

	const total = 8 << 20
	chunk := make([]byte, 32<<10)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	wantSum := sha256.New()
	go func() {
		left := total
		for left > 0 {
			n := len(chunk)
			if n > left {
				n = left
			}
			wantSum.Write(chunk[:n])
			if _, err := in.Write(chunk[:n]); err != nil {
				return
			}
			left -= n
		}
		in.CloseWrite()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n, handled, err := Splice(dst, src)
		if !handled {
			t.Error("splice not handled on a bare TCP pair")
		}
		if err != nil {
			t.Errorf("splice error: %v", err)
		}
		if n != total {
			t.Errorf("spliced %d bytes, want %d", n, total)
		}
		dst.CloseWrite()
	}()
	gotSum := sha256.New()
	n, err := io.Copy(gotSum, out)
	if err != nil || n != total {
		t.Fatalf("sink read %d bytes, err %v", n, err)
	}
	<-done
	if !bytes.Equal(gotSum.Sum(nil), wantSum.Sum(nil)) {
		t.Fatal("checksum mismatch after splice relay")
	}
}

func TestSpliceHonorsDeadline(t *testing.T) {
	_, _, src, dst := relayChain(t)
	src.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, handled, err := Splice(dst, src)
	if !handled {
		t.Fatal("expected splice path")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
}

func TestPipePoolDrainLeavesNoFDs(t *testing.T) {
	// Prime then drain the pool and check the fd table returns to its
	// baseline — the audit a retiring generation runs at terminal drain.
	DrainPipePool()
	base, err := OpenFDCount()
	if err != nil {
		t.Skipf("no /proc fd table: %v", err)
	}
	in, out, src, dst := relayChain(t)
	go func() {
		in.Write([]byte("prime the pool"))
		in.CloseWrite()
	}()
	go io.Copy(io.Discard, out)
	if _, handled, err := Splice(dst, src); !handled || err != nil {
		t.Fatalf("splice handled=%v err=%v", handled, err)
	}
	if n := DrainPipePool(); n == 0 {
		t.Fatal("expected at least one pooled pipe after a splice relay")
	}
	in.Close()
	out.Close()
	src.Close()
	dst.Close()
	// Conn closes release their fds asynchronously via the runtime; poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		now, err := OpenFDCount()
		if err != nil {
			t.Fatal(err)
		}
		if now <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fd count %d never returned to baseline %d", now, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
