// Package throughput measures the data plane's bulk relay: splice(2)
// relaying versus the pooled userspace copy on TCP pumps, in time and in
// syscalls per MB. bench/probe times both paths with RunTCPRelay; this
// package's tests bound the syscalls each path makes.
package throughput

import (
	"fmt"
	"io"
	"net"
	"time"

	"zdr/internal/netx"
)

// Measurement is one relay run.
type Measurement struct {
	Seconds float64
	Bytes   int64
	// syscalls counts the relay pump's kernel crossings; syscallsPerMB
	// is the same per MiB moved.
	syscalls      int64
	syscallsPerMB float64
}

// chunked writes total bytes into w in fixed chunks, then half-closes.
func pump(w *net.TCPConn, total int64) {
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for left := total; left > 0; {
		n := int64(len(chunk))
		if n > left {
			n = left
		}
		if _, err := w.Write(chunk[:n]); err != nil {
			return
		}
		left -= n
	}
	w.CloseWrite()
}

// RunTCPRelay stands up client → relay → sink on loopback, pushes
// totalBytes through the relay pump, and reports its wall time and
// relay-side syscalls. useSplice selects the kernel path (bare TCP conns through
// netx.Relay); otherwise the conns are wrapped so the selector takes the
// pooled copy, with the wrappers counting one syscall per Read/Write —
// the same accounting basis as the splice path's splice-call counter.
func RunTCPRelay(totalBytes int64, useSplice bool) (Measurement, error) {
	in, src, err := tcpPair()
	if err != nil {
		return Measurement{}, err
	}
	defer in.Close()
	defer src.Close()
	dst, out, err := tcpPair()
	if err != nil {
		return Measurement{}, err
	}
	defer dst.Close()
	defer out.Close()

	go pump(in, totalBytes)
	// Source and sink use 1 MiB buffers so the harness's own copies stay
	// off the critical path and the relay pump dominates the measurement.
	sunk := make(chan int64, 1)
	go func() {
		n, _ := io.CopyBuffer(io.Discard, struct{ io.Reader }{out}, make([]byte, 1<<20))
		sunk <- n
	}()

	var syscalls int64
	start := time.Now()
	var n int64
	if useSplice {
		before := netx.ReadRelayStats()
		n, err = netx.Relay(dst, src)
		after := netx.ReadRelayStats()
		syscalls = after.SpliceCalls - before.SpliceCalls
		if after.SpliceBytes-before.SpliceBytes < n {
			return Measurement{}, fmt.Errorf("splice path not taken (%d of %d bytes)", after.SpliceBytes-before.SpliceBytes, n)
		}
	} else {
		cr := &countingReader{r: src}
		cw := &countingWriter{w: dst}
		n, err = netx.Relay(cw, cr)
		syscalls = cr.calls + cw.calls
	}
	sec := time.Since(start).Seconds()
	dst.CloseWrite()
	if err != nil {
		return Measurement{}, err
	}
	if got := <-sunk; got != totalBytes || n != totalBytes {
		return Measurement{}, fmt.Errorf("moved %d bytes, sink saw %d, want %d", n, got, totalBytes)
	}
	return Measurement{
		Seconds:       sec,
		Bytes:         n,
		syscalls:      syscalls,
		syscallsPerMB: float64(syscalls) / (float64(n) / (1 << 20)),
	}, nil
}

func tcpPair() (*net.TCPConn, *net.TCPConn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}
	r := <-ch
	if r.err != nil {
		client.Close()
		return nil, nil, r.err
	}
	return client.(*net.TCPConn), r.c.(*net.TCPConn), nil
}

// countingReader / countingWriter hide the underlying *net.TCPConn from
// the relay selector (forcing the copy path) and tally one syscall per
// Read/Write — the copy path's kernel crossings.
type countingReader struct {
	r     io.Reader
	calls int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

type countingWriter struct {
	w     io.Writer
	calls int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return c.w.Write(p)
}
