// Package throughput measures the data plane's bulk-transfer rate and
// syscall economy — the before/after evidence for the kernel-assisted
// paths: splice(2) relaying versus the pooled userspace copy on TCP
// pumps, and recvmmsg/sendmmsg batching versus packet-at-a-time I/O on
// the quicx router. zdr-bench -throughput runs the suite and records it
// in BENCH_baseline.json; the -compare gate holds the splice speedup and
// the syscalls-per-unit costs to their baseline.
package throughput

import (
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"zdr/internal/metrics"
	"zdr/internal/netx"
	"zdr/internal/quicx"
)

// Measurement is one suite entry, JSON-shaped for BENCH_baseline.json.
type Measurement struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// TCP relay entries.
	Bytes         int64   `json:"bytes,omitempty"`
	Gbps          float64 `json:"gbps,omitempty"`
	Syscalls      int64   `json:"syscalls,omitempty"`
	SyscallsPerMB float64 `json:"syscalls_per_mb,omitempty"`
	// UDP burst entries.
	Packets        int64   `json:"packets,omitempty"`
	RecvCalls      int64   `json:"recvmmsg_calls,omitempty"`
	SendFlushes    int64   `json:"sendmmsg_flushes,omitempty"`
	SyscallsPerPkt float64 `json:"syscalls_per_pkt,omitempty"`
}

// Suite runs the four standard measurements: TCP relay with splice and
// with the pooled copy, then a quicx burst workload batched and
// unbatched. Each relay runs three trials and reports the Gbps median —
// single loopback runs are scheduler-noisy in a way the packet bursts
// are not.
func Suite(relayBytes int64, bursts, burstSize int) ([]Measurement, error) {
	var out []Measurement
	for _, m := range []struct {
		name   string
		splice bool
	}{{"tcp_relay_splice", true}, {"tcp_relay_copy", false}} {
		var trials []Measurement
		for i := 0; i < 3; i++ {
			r, err := RunTCPRelay(relayBytes, m.splice)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			trials = append(trials, r)
		}
		sort.Slice(trials, func(i, j int) bool { return trials[i].Gbps < trials[j].Gbps })
		r := trials[1]
		r.Name = m.name
		out = append(out, r)
	}
	for _, m := range []struct {
		name    string
		batched bool
	}{{"quic_burst_batched", true}, {"quic_burst_unbatched", false}} {
		r, err := RunQuicBurst(bursts, burstSize, m.batched)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		r.Name = m.name
		out = append(out, r)
	}
	return out, nil
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
// totalBytes through the relay pump, and reports Gbps plus relay-side
// syscalls. useSplice selects the kernel path (bare TCP conns through
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
		Gbps:          float64(n) * 8 / sec / 1e9,
		Syscalls:      syscalls,
		SyscallsPerMB: float64(syscalls) / (float64(n) / (1 << 20)),
	}, nil
}

// RunQuicBurst drives a quicx echo server with bursts of burstSize data
// packets and reports the router's syscalls per packet, summing receive
// calls and send flushes server-side. Each burst is in the socket buffer
// before the server reads (the reader starts, or resumes from a drain,
// only after the last send returned) and the reader is fenced off again
// before the next, so how many datagrams one recvmmsg finds is the burst
// size, not a race between the two sides' scheduling: batched, a burst
// that fits the ring costs exactly one receive call and one send flush.
func RunQuicBurst(bursts, burstSize int, batched bool) (Measurement, error) {
	vip, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return Measurement{}, err
	}
	reg := metrics.NewRegistry()
	srv := quicx.NewServer("throughput", vip, func(conn quicx.ConnID, payload []byte) []byte {
		return payload
	}, reg)
	if !batched {
		srv.DisableBatch()
	}
	defer srv.Close()

	conn, err := net.Dial("udp", vip.LocalAddr().String())
	if err != nil {
		return Measurement{}, err
	}
	defer conn.Close()

	const connID = quicx.ConnID(1)
	payload := []byte("burst-payload-0123456789")
	open := quicx.Marshal(quicx.Packet{Type: quicx.PktInitial, Conn: connID, Payload: payload})
	data := quicx.Marshal(quicx.Packet{Type: quicx.PktData, Conn: connID, Payload: payload})
	rbuf := make([]byte, 2048)

	start := time.Now()
	for b := 0; b < bursts; b++ {
		for i := 0; i < burstSize; i++ {
			pkt := data
			if b == 0 && i == 0 {
				pkt = open
			}
			if _, err := conn.Write(pkt); err != nil {
				return Measurement{}, err
			}
		}
		if b == 0 {
			srv.Start()
		} else {
			srv.UndoDrain()
		}
		// Drain the echoes before the next burst so neither socket
		// buffer overflows; tolerate stragglers via the deadline.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		for i := 0; i < burstSize; i++ {
			if _, err := conn.Read(rbuf); err != nil {
				break
			}
		}
		// The fence: the read loop has handled what it pulled, flushed,
		// counted, and exited.
		if _, err := srv.StartDraining(); err != nil {
			return Measurement{}, err
		}
	}
	sec := time.Since(start).Seconds()

	rx := reg.CounterValue("quicx.rx")
	want := int64(bursts * burstSize)
	if rx < want*9/10 {
		return Measurement{}, fmt.Errorf("server saw %d of %d packets", rx, want)
	}
	recvCalls := reg.CounterValue("quicx.batch.recvmmsg_calls")
	flushes := reg.CounterValue("quicx.batch.sendmmsg_flushes")
	return Measurement{
		Seconds:        sec,
		Packets:        rx,
		RecvCalls:      recvCalls,
		SendFlushes:    flushes,
		SyscallsPerPkt: float64(recvCalls+flushes) / float64(rx),
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
