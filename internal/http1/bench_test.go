package http1

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// BenchmarkChunkedCopy proxies one 64 KiB body through the chunked
// encoder and decoder in 8 KiB chunks — the PPR body-forwarding pattern
// (proxy→app-server uploads stream exactly this way).
func BenchmarkChunkedCopy(b *testing.B) {
	src := bytes.Repeat([]byte{0x5a}, 64<<10)
	chunk := make([]byte, 8<<10)
	var wire bytes.Buffer
	wire.Grow(80 << 10)
	br := bufio.NewReader(nil)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		cw := NewChunkedWriter(&wire)
		for off := 0; off < len(src); off += len(chunk) {
			if _, err := cw.Write(src[off : off+len(chunk)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			b.Fatal(err)
		}
		br.Reset(&wire)
		cr := NewChunkedReader(br)
		for {
			_, err := cr.Read(chunk)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReadFullBodySized measures the PPR capture path as the proxy
// actually drives it: consuming a 256 KiB partial body with the response's
// Content-Length as the size hint, so the body is read straight into a
// single exactly-sized allocation.
func BenchmarkReadFullBodySized(b *testing.B) {
	body := bytes.Repeat([]byte{0x11}, 256<<10)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadFullBodySized(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(body) {
			b.Fatalf("read %d of %d", len(got), len(body))
		}
	}
}

// BenchmarkReadFullBody measures the same capture with no size hint.
func BenchmarkReadFullBody(b *testing.B) {
	body := bytes.Repeat([]byte{0x11}, 256<<10)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadFullBody(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(body) {
			b.Fatalf("read %d of %d", len(got), len(body))
		}
	}
}

// The head benchmarks are the three heads a small GET crosses, as the
// proxies and the app server read and write them.

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
