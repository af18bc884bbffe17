package h2t

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// BenchmarkFrameRoundTrip pushes 4 KiB DATA frames through a session pair
// over an in-memory pipe: the tunnel's per-frame cost (header encode,
// payload read, receive-buffer delivery) on both sides.
func BenchmarkFrameRoundTrip(b *testing.B) {
	cc, sc := net.Pipe()
	client := NewSession(cc, true)
	server := NewSession(sc, false)
	defer client.Close()
	defer server.Close()

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
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st.CloseWrite()
	<-drained
}

// BenchmarkHeaderEncodeDecode covers the HEADERS open path (a handful of
// routing fields) as a session does it: the block is encoded behind what
// the write buffer holds and decoded into room the stream has.
func BenchmarkHeaderEncodeDecode(b *testing.B) {
	hdr := Fields{{":method", "POST"}, {":path", "/upload"}, {"content-length", "1048576"}}
	var wbuf []byte
	var room [fieldsRoom]Field
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fieldsSize(hdr); err != nil {
			b.Fatal(err)
		}
		wbuf = appendFields(wbuf[:0], hdr)
		if _, err := decodeFields(room[:0], wbuf); err != nil {
			b.Fatal(err)
		}
	}
}
