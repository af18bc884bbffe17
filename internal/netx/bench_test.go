package netx

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"zdr/internal/racetest"
)

// relayChunks pumps n chunks of size chunk through a loopback relay. The
// writer and sink run as goroutines; the relay pump — the code under
// test — runs on the caller's, between start and stop. wrap hides both
// ends' types, which forces the pooled-copy path.
func relayChunks(tb testing.TB, n, chunk int, wrap bool, start, stop func()) {
	in, src := tcpConnPair(tb)
	dst, out := tcpConnPair(tb)
	payload := make([]byte, chunk)
	total := int64(n) * int64(chunk)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := in.Write(payload); err != nil {
				return
			}
		}
		in.CloseWrite()
	}()
	sunk := make(chan int64, 1)
	go func() {
		defer wg.Done()
		n, _ := io.Copy(io.Discard, out)
		sunk <- n
	}()

	start()
	var moved int64
	var err error
	if wrap {
		moved, err = Relay(struct{ io.Writer }{dst}, struct{ io.Reader }{src})
	} else {
		moved, err = Relay(dst, src)
	}
	stop()
	dst.CloseWrite()
	wg.Wait()
	if err != nil || moved != total || <-sunk != total {
		tb.Fatalf("relayed %d bytes (err %v), want %d", moved, err, total)
	}
}

// relayBench reports the MB/s of relayChunks over b.N chunks.
func relayBench(b *testing.B, chunk int, wrap bool) {
	b.SetBytes(int64(chunk))
	relayChunks(b, b.N, chunk, wrap, b.ResetTimer, b.StopTimer)
}

func BenchmarkRelaySplice(b *testing.B)     { relayBench(b, 64<<10, false) }
func BenchmarkRelayPooledCopy(b *testing.B) { relayBench(b, 64<<10, true) }

// batchSend stands a send ring up over a loopback pair, drained by a
// reader goroutine, and returns BenchmarkBatchSend's operation: one
// 512 B datagram queued, and every 32nd a flush.
func batchSend(tb testing.TB) func() {
	send, recv := udpPair(tb)
	bc := NewSendRing(send, BatchConfig{})
	if !bc.Batched() {
		bc.Release()
		tb.Skip("kernel batching unavailable")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			if _, _, err := recv.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	tb.Cleanup(func() {
		bc.Flush()
		bc.Release()
		recv.Close()
		<-done
	})
	dst := recv.LocalAddr()
	payload := make([]byte, 512)
	i := 0
	return func() {
		if err := bc.QueueTo(payload, dst); err != nil {
			tb.Fatal(err)
		}
		if i++; i%32 == 0 {
			if err := bc.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchSend measures the sendmmsg queue/flush path: 32-packet
// bursts to one destination.
func BenchmarkBatchSend(b *testing.B) {
	send := batchSend(b)
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestBenchmarkAllocations bounds what the benchmarks above time, every
// goroutine of theirs counted: a 64 KiB chunk relayed, spliced or copied,
// allocates nothing, and a datagram queued on the send ring at most the
// one address its reader's ReadFrom returns.
func TestBenchmarkAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	for name, wrap := range map[string]bool{"spliced": false, "copied": true} {
		const n = 1000
		var before, after runtime.MemStats
		relayChunks(t, n, 64<<10, wrap, func() { runtime.ReadMemStats(&before) }, func() { runtime.ReadMemStats(&after) })
		if per := (after.Mallocs - before.Mallocs) / n; per != 0 {
			t.Errorf("64 KiB chunk relayed, %s: %d allocs, want 0", name, per)
		}
	}
	if n := testing.AllocsPerRun(1000, batchSend(t)); n > 1 {
		t.Errorf("512 B datagram queued: %v allocs, want <= 1", n)
	}
}
