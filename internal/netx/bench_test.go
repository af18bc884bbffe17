package netx

import (
	"io"
	"sync"
	"testing"
)

// relayBench pumps b.N chunks of size chunk through a loopback relay and
// reports MB/s. The writer and sink run as goroutines; the relay pump —
// the code under test — runs on the benchmark goroutine.
func relayBench(b *testing.B, chunk int, wrap bool) {
	in, src := tcpConnPair(b)
	dst, out := tcpConnPair(b)
	payload := make([]byte, chunk)
	total := int64(b.N) * int64(chunk)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
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

	b.SetBytes(int64(chunk))
	b.ResetTimer()
	var n int64
	var err error
	if wrap {
		// Interface-typed endpoints force the pooled-copy path.
		n, err = Relay(struct{ io.Writer }{dst}, struct{ io.Reader }{src})
	} else {
		n, err = Relay(dst, src)
	}
	b.StopTimer()
	dst.CloseWrite()
	wg.Wait()
	if err != nil || n != total || <-sunk != total {
		b.Fatalf("relayed %d bytes (err %v), want %d", n, err, total)
	}
}

func BenchmarkRelaySplice(b *testing.B)     { relayBench(b, 64<<10, false) }
func BenchmarkRelayPooledCopy(b *testing.B) { relayBench(b, 64<<10, true) }

// BenchmarkBatchSend measures the sendmmsg queue/flush path: 32-packet
// bursts to one destination, drained by a reader goroutine.
func BenchmarkBatchSend(b *testing.B) {
	send, recv := udpPair(b)
	bc := NewSendRing(send, BatchConfig{})
	defer bc.Release()
	if !bc.Batched() {
		b.Skip("kernel batching unavailable")
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

	dst := recv.LocalAddr()
	payload := make([]byte, 512)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bc.QueueTo(payload, dst); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			if err := bc.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	bc.Flush()
	b.StopTimer()
	recv.Close()
	<-done
}
