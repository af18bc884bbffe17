package http1

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"zdr/internal/racetest"
)

// chunkedCopy is BenchmarkChunkedCopy's operation: one 64 KiB body
// through the chunked encoder and decoder in 8 KiB chunks — the PPR
// body-forwarding pattern (proxy→app-server uploads stream exactly this
// way).
func chunkedCopy(tb testing.TB) func() {
	src := bytes.Repeat([]byte{0x5a}, 64<<10)
	chunk := make([]byte, 8<<10)
	var wire bytes.Buffer
	wire.Grow(80 << 10)
	br := bufio.NewReader(nil)
	return func() {
		wire.Reset()
		cw := NewChunkedWriter(&wire)
		for off := 0; off < len(src); off += len(chunk) {
			if _, err := cw.Write(src[off : off+len(chunk)]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			tb.Fatal(err)
		}
		br.Reset(&wire)
		cr := NewChunkedReader(br)
		for {
			_, err := cr.Read(chunk)
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// chunkedRoundTrip is BenchmarkChunkedRoundTrip's operation: a 4 KiB
// body chunked into a fresh buffer and read back through a fresh reader.
func chunkedRoundTrip(testing.TB) func() {
	body := bytes.Repeat([]byte("y"), 4096)
	return func() {
		var buf bytes.Buffer
		cw := NewChunkedWriter(&buf)
		cw.Write(body)
		cw.Close()
		cr := NewChunkedReader(bufio.NewReader(&buf))
		io.Copy(io.Discard, cr)
	}
}

// readFullBody is the operation of BenchmarkReadFullBodySized (sized) and
// BenchmarkReadFullBody: the PPR capture path consuming a 256 KiB partial
// body, with the response's Content-Length as the size hint, so that the
// body is read straight into a single exactly-sized allocation, or
// without one.
func readFullBody(tb testing.TB, sized bool) func() {
	body := bytes.Repeat([]byte{0x11}, 256<<10)
	return func() {
		var got []byte
		var err error
		if sized {
			got, err = ReadFullBodySized(bytes.NewReader(body), int64(len(body)))
		} else {
			got, err = ReadFullBody(bytes.NewReader(body))
		}
		if err != nil {
			tb.Fatal(err)
		}
		if len(got) != len(body) {
			tb.Fatalf("read %d of %d", len(got), len(body))
		}
	}
}

// writeRequestContentLength is BenchmarkWriteRequestContentLength's
// operation: a 4 KiB POST with a Content-Length built and written.
func writeRequestContentLength(testing.TB) func() {
	body := bytes.Repeat([]byte("x"), 4096)
	return func() {
		req := NewRequest("POST", "/upload", bytes.NewReader(body), int64(len(body)))
		WriteRequest(io.Discard, req)
	}
}

func BenchmarkChunkedCopy(b *testing.B) {
	op := chunkedCopy(b)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkChunkedRoundTrip(b *testing.B) {
	op := chunkedRoundTrip(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkReadFullBodySized(b *testing.B) {
	op := readFullBody(b, true)
	b.SetBytes(256 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkReadFullBody(b *testing.B) {
	op := readFullBody(b, false)
	b.SetBytes(256 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// The head benchmarks are the three heads a small GET crosses, as the
// proxies and the app server read and write them. TestHeadAllocations
// bounds the two reads.

func BenchmarkReadRequestHead(b *testing.B) {
	head := []byte("GET /dyn/64 HTTP/1.1\r\nHost: bench\r\nUser-Agent: bench/1\r\nAccept: */*\r\n\r\n")
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(head)
		br.Reset(src)
		if _, err := ReadRequest(br); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponseHead(b *testing.B) {
	msg := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Served-By: app-0\r\n\r\nhello")
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(msg)
		br.Reset(src)
		resp, err := ReadResponse(br)
		if err != nil || resp.ContentLength != 5 {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResponseHead(b *testing.B) {
	payload := []byte("hello")
	body := bytes.NewReader(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		resp := NewResponse(200, body, -1)
		resp.Header.Add("Content-Length", "5")
		resp.Header.Add("X-Served-By", "app-0")
		resp.Header.Set("Via", "edge-0")
		if _, err := WriteResponse(io.Discard, resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteRequestContentLength(b *testing.B) {
	op := writeRequestContentLength(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestBenchmarkAllocations bounds, exactly, what the benchmarks above
// time besides the head reads: the chunked copy pays its writer, the
// round trip its fresh buffer's growth, reader and writer, a captured
// body its bytes and the reader around them, a written POST its head.
func TestBenchmarkAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	// BenchmarkWriteResponseHead's loop body, written out: built in a
	// closure that another function returned, the response would not
	// stay on the stack as it does in the benchmark's loop.
	payload := []byte("hello")
	body := bytes.NewReader(nil)
	writeResponseHead := func() {
		body.Reset(payload)
		resp := NewResponse(200, body, -1)
		resp.Header.Add("Content-Length", "5")
		resp.Header.Add("X-Served-By", "app-0")
		resp.Header.Set("Via", "edge-0")
		if _, err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func() // one benchmark's operation
		want float64
	}{
		{"chunked copy of 64 KiB", chunkedCopy(t), 1},
		{"chunked round trip of 4 KiB", chunkedRoundTrip(t), 7},
		{"256 KiB body read with its size", readFullBody(t, true), 2},
		{"256 KiB body read without its size", readFullBody(t, false), 2},
		{"small response built and written", writeResponseHead, 0},
		{"4 KiB POST built and written", writeRequestContentLength(t), 1},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, n, c.want)
		}
	}
}
