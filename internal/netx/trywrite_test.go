package netx

import (
	"bytes"
	"io"
	"testing"
	"time"

	"zdr/internal/racetest"
)

// TestTryWriterNeverWaits: a TryWrite puts on the socket what it takes at
// once and comes back — with less than it was given, then with nothing,
// once a peer that does not read has let the buffers fill; the bytes it
// says it wrote are the bytes the peer reads, in order; after Close it
// writes nothing and does not fail the caller.
func TestTryWriterNeverWaits(t *testing.T) {
	client, server := tcpConnPair(t)
	server.SetWriteBuffer(4 << 10)
	client.SetReadBuffer(4 << 10)
	w := NewTryWriter(server)
	var sent []byte
	block := make([]byte, 16<<10)
	for i, full := 0, 0; full < 3; i++ { // three refusals in a row: the path is full
		for j := range block {
			block[j] = byte(i + j)
		}
		done := make(chan int, 1)
		go func() { done <- w.TryWrite(block) }()
		select {
		case n := <-done:
			sent = append(sent, block[:n]...)
			if full++; n > 0 {
				full = 0
			}
		case <-time.After(5 * time.Second):
			t.Fatal("TryWrite waited for a socket with no room")
		}
	}
	if w.Written() != int64(len(sent)) || len(sent) == 0 {
		t.Fatalf("Written() = %d, the calls returned %d", w.Written(), len(sent))
	}
	got := make([]byte, len(sent))
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, sent) {
		t.Fatalf("the peer read something else than the %d bytes written (%v)", len(sent), err)
	}
	server.Close()
	if n := w.TryWrite(block); n != 0 || w.Written() != int64(len(sent)) {
		t.Fatalf("TryWrite on a closed connection wrote %d", n)
	}
}

// TestTryWriteAllocatesNothing: the callback is bound once.
func TestTryWriteAllocatesNothing(t *testing.T) {
	racetest.SkipAllocs(t)
	client, server := tcpConnPair(t)
	go io.Copy(io.Discard, client)
	w, msg := NewTryWriter(server), make([]byte, 128)
	if avg := testing.AllocsPerRun(200, func() { w.TryWrite(msg) }); avg != 0 {
		t.Fatalf("%v allocations per TryWrite", avg)
	}
}
