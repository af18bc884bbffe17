package h2t

import (
	"bytes"
	"io"
	"net"
	"testing"

	"zdr/internal/racetest"
)

// frameWrite stands a session pair up over an in-memory pipe, with a
// reader that discards what arrives, and returns BenchmarkFrameRoundTrip's
// operation: one 4 KiB DATA frame written on an open stream — the
// tunnel's per-frame cost (header encode, payload read, receive-buffer
// delivery) on both sides.
func frameWrite(tb testing.TB) func() {
	cc, sc := net.Pipe()
	client := NewSession(cc, true)
	server := NewSession(sc, false)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		st, err := server.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, st)
	}()
	st, err := client.OpenStreamWith(Fields{{"proto", "bench"}}, nil, false)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		st.CloseWrite()
		<-drained
		client.Close()
		server.Close()
	})
	payload := bytes.Repeat([]byte{0xab}, 4096)
	return func() {
		if _, err := st.Write(payload); err != nil {
			tb.Fatal(err)
		}
	}
}

// headerRoundTrip is BenchmarkHeaderEncodeDecode's operation: the HEADERS
// open path (a handful of routing fields) as a session does it, the block
// encoded behind what the write buffer holds and decoded into room the
// stream has.
func headerRoundTrip(tb testing.TB) func() {
	hdr := Fields{{":method", "POST"}, {":path", "/upload"}, {"content-length", "1048576"}}
	var wbuf []byte
	var room [fieldsRoom]Field
	return func() {
		if _, err := fieldsSize(hdr); err != nil {
			tb.Fatal(err)
		}
		wbuf = appendFields(wbuf[:0], hdr)
		if _, err := decodeFields(room[:0], wbuf); err != nil {
			tb.Fatal(err)
		}
	}
}

// streamEcho stands a session pair up over an in-memory pipe, its server
// echoing each stream from a goroutine of its own, and returns
// BenchmarkStreamEcho's operation: a stream opened, 1 KiB sent and
// half-closed, and the echo read to its end.
func streamEcho(tb testing.TB) func() {
	cc, sc := net.Pipe()
	client := NewSession(cc, true)
	server := NewSession(sc, false)
	tb.Cleanup(func() {
		client.Close()
		server.Close()
	})
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				buf, _ := io.ReadAll(st)
				st.Write(buf)
				st.CloseWrite()
			}(st)
		}
	}()
	payload := bytes.Repeat([]byte("b"), 1024)
	return func() {
		st, err := client.OpenStreamWith(nil, nil, false)
		if err != nil {
			tb.Fatal(err)
		}
		st.Write(payload)
		st.CloseWrite()
		if _, err := io.ReadAll(st); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	write := frameWrite(b)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

func BenchmarkHeaderEncodeDecode(b *testing.B) {
	roundTrip := headerRoundTrip(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

func BenchmarkStreamEcho(b *testing.B) {
	echo := streamEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo()
	}
}

// TestBenchmarkAllocations bounds what the benchmarks above time. A
// header block's round trip costs its decoded string, exactly; a DATA
// frame at most one allocation and an echoed stream at most ten, the
// other side's goroutines counted.
func TestBenchmarkAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(1000, headerRoundTrip(t)); n != 1 {
		t.Errorf("header block encoded and decoded: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, frameWrite(t)); n > 1 {
		t.Errorf("4 KiB DATA frame: %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, streamEcho(t)); n > 10 {
		t.Errorf("1 KiB stream echoed: %v allocs, want <= 10", n)
	} else {
		t.Logf("1 KiB stream echoed: %v allocs", n)
	}
}
