package http1

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
)

// fieldsByName is what a Header says but for order across names, case of
// names and framing: each name, lower-cased, with its values in order.
func fieldsByName(h *Header) map[string][]string {
	out := map[string][]string{}
	for i := 0; i < h.Len(); i++ {
		name, v := h.At(i)
		if equalFold(name, "Content-Length") || equalFold(name, "Transfer-Encoding") {
			continue
		}
		lower := []byte(name)
		for j, c := range lower {
			if 'A' <= c && c <= 'Z' {
				lower[j] = c + 'a' - 'A'
			}
		}
		out[string(lower)] = append(out[string(lower)], v)
	}
	return out
}

// fuzzHead feeds data to read through a reader whose buffer is smaller
// than most heads, checks the bound on what a head may cost, and reports
// whether the head was accepted.
func fuzzHead(t *testing.T, data []byte, read func(*bufio.Reader) error) bool {
	src := &countingReader{r: bytes.NewReader(data)}
	br := bufio.NewReaderSize(src, 64)
	err := read(br)
	if limit := maxHead + br.Size(); src.n > limit {
		t.Fatalf("took %d bytes off the connection for one head, limit %d", src.n, limit)
	}
	return err == nil
}

// rewritable reports whether a message that was accepted is still within
// the parser's limits once it is written out again: the writer puts a
// space after every colon and adds the framing field.
func rewritable(h *Header, wire []byte) bool {
	others := 0
	for _, values := range fieldsByName(h) {
		others += len(values)
	}
	return others < maxFields && bytes.Index(wire, []byte("\r\n\r\n"))+4 <= maxHead
}

// FuzzReadRequest: ReadRequest never panics and never takes more than a
// bounded head off the connection, and a request it accepts, written
// back out by WriteRequest, reads as the same request: method, target,
// protocol, fields, framing and body. The seed corpus is
// testdata/fuzz/FuzzReadRequest, one file per case, named for it.
func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req *Request
		if !fuzzHead(t, data, func(br *bufio.Reader) (err error) {
			req, err = ReadRequest(br)
			return err
		}) {
			return
		}
		body, err := ReadFullBody(req.Body)
		if err != nil || req.ContentLength > int64(len(body)) {
			return // the body was cut short; there is no message to compare
		}
		again := *req
		if req.Body != nil {
			again.Body = bytes.NewReader(body)
		}
		var wire bytes.Buffer
		if _, err := WriteRequest(&wire, &again); err != nil {
			t.Fatalf("WriteRequest of an accepted request: %v", err)
		}
		if !rewritable(&req.Header, wire.Bytes()) {
			return
		}
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(wire.Bytes())))
		if err != nil {
			t.Fatalf("accepted %q\nrewritten as %q\nwhich is refused: %v", data, wire.Bytes(), err)
		}
		gotBody, err := ReadFullBody(got.Body)
		if err != nil || !bytes.Equal(gotBody, body) {
			t.Fatalf("body %q became %q (%v)", body, gotBody, err)
		}
		if got.Method != req.Method || got.Target != req.Target || got.proto != req.proto || got.ContentLength != req.ContentLength ||
			!reflect.DeepEqual(fieldsByName(&got.Header), fieldsByName(&req.Header)) {
			t.Fatalf("accepted %q as\n%+v\nrewritten as %q, which reads as\n%+v", data, req, wire.Bytes(), got)
		}
	})
}

// FuzzReadResponse is FuzzReadRequest for responses: status code and,
// when the response has one, status message in place of method and target.
func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp *Response
		if !fuzzHead(t, data, func(br *bufio.Reader) (err error) {
			resp, err = ReadResponse(br)
			return err
		}) {
			return
		}
		body, err := ReadFullBody(resp.Body)
		if err != nil || resp.ContentLength > int64(len(body)) {
			return
		}
		again := *resp
		if resp.Body != nil {
			again.Body = bytes.NewReader(body)
		}
		var wire bytes.Buffer
		if _, err := WriteResponse(&wire, &again); err != nil {
			t.Fatalf("WriteResponse of an accepted response: %v", err)
		}
		if !rewritable(&resp.Header, wire.Bytes()) {
			return
		}
		got, err := ReadResponse(bufio.NewReader(bytes.NewReader(wire.Bytes())))
		if err != nil {
			t.Fatalf("accepted %q\nrewritten as %q\nwhich is refused: %v", data, wire.Bytes(), err)
		}
		gotBody, err := ReadFullBody(got.Body)
		if err != nil || !bytes.Equal(gotBody, body) {
			t.Fatalf("body %q became %q (%v)", body, gotBody, err)
		}
		sameMessage := resp.StatusMessage == "" || got.StatusMessage == resp.StatusMessage // none is written as the code's default
		if got.StatusCode != resp.StatusCode || !sameMessage || got.proto != resp.proto || got.ContentLength != resp.ContentLength ||
			!reflect.DeepEqual(fieldsByName(&got.Header), fieldsByName(&resp.Header)) {
			t.Fatalf("accepted %q as\n%+v\nrewritten as %q, which reads as\n%+v", data, resp, wire.Bytes(), got)
		}
	})
}

// decodeChunked reads a chunked body from data through a reader whose
// buffer is smaller than a long size line, a few bytes at a time, and
// returns the payload, how many bytes of data the decoding used — what
// was read ahead and not used is not counted — and the error that ended
// it: io.EOF after the terminating chunk.
func decodeChunked(data []byte) (payload []byte, used int, cr *ChunkedReader, err error) {
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 16)
	cr = NewChunkedReader(br)
	var p [7]byte
	for err == nil {
		var n int
		n, err = cr.Read(p[:])
		payload = append(payload, p[:n]...)
	}
	return payload, len(data) - src.Len() - br.Buffered(), cr, err
}

// FuzzChunkedReader: the chunk reader never panics; a body it reads to
// its end it read exactly to its end — the bytes it used, less the last,
// are not a whole body, so what follows the terminator is the next
// message's; and the payload it returns, encoded by ChunkedWriter, reads
// back as the same payload. The seed corpus is
// testdata/fuzz/FuzzChunkedReader, one file per case, named for it.
func FuzzChunkedReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, used, cr, err := decodeChunked(data)
		if int64(len(payload)) != cr.Offset() {
			t.Fatalf("returned %d bytes, Offset() = %d", len(payload), cr.Offset())
		}
		if err != io.EOF || !cr.Done() {
			if cr.Done() {
				t.Fatalf("Done() with err = %v", err)
			}
			return // refused or cut short: there is no body to compare
		}
		if again, n, _, err := decodeChunked(data[:used]); err != io.EOF || n != used || !bytes.Equal(again, payload) {
			t.Fatalf("%q read to its end using %d bytes, which alone read as %q using %d (%v)", data, used, again, n, err)
		}
		if _, _, short, err := decodeChunked(data[:used-1]); err == io.EOF && short.Done() {
			t.Fatalf("%q read to its end using %d bytes, but ends a byte before that", data, used)
		}
		var wire bytes.Buffer
		cw := NewChunkedWriter(&wire)
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), 1+len(rest)/3)
			if _, err := cw.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if cw.BytesWritten() != int64(len(payload)) {
			t.Fatalf("BytesWritten() = %d for %d bytes", cw.BytesWritten(), len(payload))
		}
		if again, n, _, err := decodeChunked(wire.Bytes()); err != io.EOF || n != wire.Len() || !bytes.Equal(again, payload) {
			t.Fatalf("payload %q written as %q, which reads as %q using %d bytes (%v)", payload, wire.Bytes(), again, n, err)
		}
	})
}
