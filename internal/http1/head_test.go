package http1

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"zdr/internal/racetest"
)

// The wire bytes of these messages were recorded at the commit before
// Header became a field list: sorted Title-Case names, a repeated name's
// values in the order added, the one framing field in its sorted place
// whatever the Header says about framing.
func TestWireBytesGolden(t *testing.T) {
	var buf bytes.Buffer
	check := func(name, want string) {
		t.Helper()
		if got := buf.String(); got != want {
			t.Errorf("%s wire bytes\n got %q\nwant %q", name, got, want)
		}
		buf.Reset()
	}

	req := NewRequest("POST", "/upload?x=1", strings.NewReader("hello world"), 11)
	req.Header.Set("host", "example.com")
	req.Header.Add("x-b", "2")
	req.Header.Add("Accept", "*/*")
	req.Header.Add("X-B", "1")
	req.Header.Set("content-length", "999")
	req.Header.Set("x-zdr-trace", "00f0-1")
	req.Header.Set("Cookie", "a=b")
	WriteRequest(&buf, req)
	check("POST", "POST /upload?x=1 HTTP/1.1\r\nAccept: */*\r\nContent-Length: 11\r\nCookie: a=b\r\nHost: example.com\r\nX-B: 2\r\nX-B: 1\r\nX-Zdr-Trace: 00f0-1\r\n\r\nhello world")

	req = NewRequest("GET", "/", nil, 0)
	req.Header.Set("Host", "h")
	req.Header.Set("User-Agent", "ua")
	WriteRequest(&buf, req)
	check("GET", "GET / HTTP/1.1\r\nContent-Length: 0\r\nHost: h\r\nUser-Agent: ua\r\n\r\n")

	resp := NewResponse(200, strings.NewReader("chunky"), -1)
	resp.Header.Add("set-cookie", "a=1")
	resp.Header.Add("Set-Cookie", "b=2")
	resp.Header.Set("X-Served-By", "app-0")
	resp.Header.Set("Via", "edge-0")
	resp.Header.Set("Content-Length", "6")
	resp.Header.Set("zeta", "z")
	resp.Header.Set("alpha_beta-gamma", "g")
	WriteResponse(&buf, resp)
	check("chunked 200", "HTTP/1.1 200 OK\r\nAlpha_beta-Gamma: g\r\nSet-Cookie: a=1\r\nSet-Cookie: b=2\r\nTransfer-Encoding: chunked\r\nVia: edge-0\r\nX-Served-By: app-0\r\nZeta: z\r\n\r\n6\r\nchunky\r\n0\r\n\r\n")

	resp = NewResponse(379, strings.NewReader("abc"), 3)
	resp.Header.Set(EchoPseudoHeader(":method"), "POST")
	resp.Header.Set(EchoPseudoHeader(":path"), "/up")
	resp.Header.Set("Connection", "close")
	WriteResponse(&buf, resp)
	check("379", "HTTP/1.1 379 PartialPOST\r\nConnection: close\r\nContent-Length: 3\r\nPseudo-Echo-Method: POST\r\nPseudo-Echo-Path: /up\r\n\r\nabc")
}

// countingReader counts what the parser took from the connection.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestHeadBoundedWhileRead: a peer that never ends its line is refused
// once maxHead of it has been read, not after it has all been buffered.
func TestHeadBoundedWhileRead(t *testing.T) {
	for name, read := range map[string]func(*bufio.Reader) error{
		"request":  func(br *bufio.Reader) error { _, err := ReadRequest(br); return err },
		"response": func(br *bufio.Reader) error { _, err := ReadResponse(br); return err },
	} {
		src := &countingReader{r: strings.NewReader(strings.Repeat("A", 1<<20))}
		br := bufio.NewReader(src)
		if err := read(br); !errors.Is(err, errMalformed) {
			t.Errorf("%s: 1 MiB line with no end: err = %v, want ErrMalformed", name, err)
		}
		if limit := maxHead + br.Size(); src.n > limit {
			t.Errorf("%s: read %d bytes of an endless head, want at most %d", name, src.n, limit)
		}
	}
	// The bound is on the head, not on any one line, and is exact.
	head := func(n int) string {
		const first, last = "GET / HTTP/1.1\r\n", "\r\n"
		var b strings.Builder
		b.WriteString(first)
		for b.Len() < n-len(last) {
			line := "X-Pad: " + strings.Repeat("p", 1000) + "\r\n"
			if room := n - len(last) - b.Len(); room < len(line)+len("X-Pad: \r\n") {
				line = "X-Pad: " + strings.Repeat("p", room-len("X-Pad: \r\n")) + "\r\n"
			}
			b.WriteString(line)
		}
		b.WriteString(last)
		return b.String()
	}
	for _, size := range []int{16, 64, 4096} { // reader buffers smaller than, and as large as, a typical head
		if req, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(head(maxHead)), size)); err != nil || req.Header.Len() == 0 {
			t.Errorf("buffer %d: head of exactly maxHead refused: %v", size, err)
		}
		if _, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(head(maxHead+1)), size)); !errors.Is(err, errMalformed) {
			t.Errorf("buffer %d: head of maxHead+1 accepted: %v", size, err)
		}
	}
}

// TestHeadAcrossReads: the end of the head is found wherever the reads
// of the connection happen to fall, and what follows it stays unread.
func TestHeadAcrossReads(t *testing.T) {
	const msg = "POST /p HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabcNEXT"
	for _, size := range []int{16, 17, 23, 4096} {
		for step := 1; step <= len(msg); step++ {
			br := bufio.NewReaderSize(iotest{strings.NewReader(msg), step}, size)
			req, err := ReadRequest(br)
			if err != nil {
				t.Fatalf("buffer %d step %d: %v", size, step, err)
			}
			body, _ := ReadFullBody(req.Body)
			rest, _ := io.ReadAll(br)
			if req.Target != "/p" || req.Header.Get("host") != "h" || string(body) != "abc" || string(rest) != "NEXT" {
				t.Fatalf("buffer %d step %d: target %q host %q body %q rest %q", size, step, req.Target, req.Header.Get("host"), body, rest)
			}
		}
	}
	// Bare LF ends a line, and the head, as CRLF does.
	req, err := ReadRequest(bufio.NewReader(strings.NewReader("GET /lf HTTP/1.1\nHost: h\n\nrest")))
	if err != nil || req.Target != "/lf" || req.Header.Get("Host") != "h" {
		t.Fatalf("bare-LF head: %+v, %v", req, err)
	}
	// A connection that ends before its head does is the transport's error.
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\nHost: h\r\n"))); err != io.EOF {
		t.Fatalf("truncated head: err = %v, want io.EOF", err)
	}
}

// iotest hands out at most step bytes per Read.
type iotest struct {
	r    io.Reader
	step int
}

func (r iotest) Read(p []byte) (int, error) { return r.r.Read(p[:min(len(p), r.step)]) }

func TestFieldLimit(t *testing.T) {
	head := func(n int) string {
		return "GET / HTTP/1.1\r\n" + strings.Repeat("X-F: v\r\n", n) + "\r\n"
	}
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(head(maxFields))))
	if err != nil || req.Header.Len() != maxFields {
		t.Fatalf("%d fields: %v", maxFields, err)
	}
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(head(maxFields + 1)))); !errors.Is(err, errMalformed) {
		t.Fatalf("%d fields accepted: %v", maxFields+1, err)
	}
}

// TestFramingThatDisagreesIsRefused: a proxy that re-frames must not pick
// one reading of a head whose framing fields allow two.
func TestFramingThatDisagreesIsRefused(t *testing.T) {
	for _, fields := range []string{
		"Content-Length: 5\r\nContent-Length: 6\r\n",
		"Content-Length: 5\r\ncontent-length: 05\r\nContent-Length: 6\r\n",
		"Content-Length: 5\r\nTransfer-Encoding: chunked\r\n",
		"Transfer-Encoding: chunked\r\nContent-Length: 0\r\n",
		"Transfer-Encoding: gzip\r\n",
		"Transfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n",
		"Content-Length: +5\r\n",
		"Content-Length: 5, 5\r\n",
		"Content-Length:\r\n",
		" Content-Length: 5\r\n",
		"X-A: 1\r\n folded: 2\r\n",
		": no-name\r\n",
	} {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader("POST / HTTP/1.1\r\n" + fields + "\r\nhello!"))); !errors.Is(err, errMalformed) {
			t.Errorf("request with %q: err = %v, want ErrMalformed", fields, err)
		}
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\n" + fields + "\r\nhello!"))); !errors.Is(err, errMalformed) {
			t.Errorf("response with %q: err = %v, want ErrMalformed", fields, err)
		}
	}
	// Saying the same thing twice is not a disagreement.
	req, err := ReadRequest(bufio.NewReader(strings.NewReader("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello")))
	if err != nil || req.ContentLength != 5 {
		t.Fatalf("repeated equal Content-Length: %v", err)
	}
}

// TestRepeatedFieldsSurvive: a name sent twice is two fields, in order,
// on the way in and on the way out.
func TestRepeatedFieldsSurvive(t *testing.T) {
	in := "HTTP/1.1 200 OK\r\nSet-Cookie: a=1\r\nX-Other: o\r\nset-cookie: b=2\r\nContent-Length: 0\r\n\r\n"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if got := values(&resp.Header, "Set-Cookie"); len(got) != 2 || got[0] != "a=1" || got[1] != "b=2" {
		t.Fatalf("Set-Cookie values = %q", got)
	}
	var out bytes.Buffer
	WriteResponse(&out, resp)
	if want := "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nSet-Cookie: a=1\r\nSet-Cookie: b=2\r\nX-Other: o\r\n\r\n"; out.String() != want {
		t.Fatalf("rewritten as %q, want %q", out.String(), want)
	}
}

// TestReadIntoResetsTheMessage: a message read into again shows nothing
// of the one read before — fields beyond the Header's own room, length,
// body, a status message — and what was taken from that one, a copy of
// its Header included, stays as it was.
func TestReadIntoResetsTheMessage(t *testing.T) {
	twelve := "Content-Length: 5\r\nX-A: a\r\n" + strings.Repeat("X-Pad: p\r\n", 9) + "X-Last: kept\r\n"
	br := bufio.NewReader(strings.NewReader(
		"POST /first HTTP/1.1\r\n" + twelve + "\r\nhello" + "GET /second HTTP/1.0\r\nHost: b\r\n\r\n" + "BAD\r\n\r\n"))
	var req Request
	if err := readRequestInto(br, &req); err != nil || req.Header.Len() != 12 || req.ContentLength != 5 {
		t.Fatalf("first request: %+v, %v", req, err)
	}
	target, last, copied := req.Target, req.Header.Get("X-Last"), req.Header
	if body, err := ReadFullBody(req.Body); err != nil || string(body) != "hello" {
		t.Fatalf("first body %q, %v", body, err)
	}
	if err := readRequestInto(br, &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Target != "/second" || req.proto != "HTTP/1.0" || req.ContentLength != 0 || req.Body != nil ||
		req.Header.Len() != 1 || req.Header.Get("Host") != "b" || req.Header.Has("X-Last") || req.Header.Has("Content-Length") {
		t.Errorf("second request shows the first: %+v", req)
	}
	req.Header.Add("X-Mine", "m")
	if target != "/first" || last != "kept" || copied.Len() != 12 || copied.Get("X-Last") != "kept" || copied.Has("X-Mine") {
		t.Errorf("what was kept of the first request changed: %q, %q, %+v", target, last, copied)
	}
	if err := readRequestInto(br, &req); !errors.Is(err, errMalformed) {
		t.Errorf("a bad request line read into a used message: %v, want ErrMalformed", err)
	}

	br = bufio.NewReader(strings.NewReader(
		"HTTP/1.1 379 PartialPOST\r\nTransfer-Encoding: chunked\r\n" + twelve[len("Content-Length: 5\r\n"):] + "\r\n5\r\nhello\r\n0\r\n\r\n" + "HTTP/1.1 204\r\nVia: e\r\n\r\n"))
	var resp Response
	if err := ReadResponseInto(br, &resp); err != nil || !IsPartialPostReplay(&resp) || resp.Header.Len() != 12 || resp.ContentLength != -1 {
		t.Fatalf("first response: %+v, %v", resp, err)
	}
	msg, last := resp.StatusMessage, resp.Header.Get("X-Last")
	if body, err := ReadFullBody(resp.Body); err != nil || string(body) != "hello" {
		t.Fatalf("first response body %q, %v", body, err)
	}
	if err := ReadResponseInto(br, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 204 || resp.StatusMessage != "" || resp.ContentLength != 0 || resp.Body != nil ||
		resp.Header.Len() != 1 || resp.Header.Get("Via") != "e" || resp.Header.Has("X-Last") {
		t.Errorf("second response shows the first: %+v", resp)
	}
	if msg != "PartialPOST" || last != "kept" {
		t.Errorf("what was kept of the first response changed: %q, %q", msg, last)
	}
}

// Allocation budgets of the head paths: the head string and the message.
func TestHeadAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	src := strings.NewReader("")
	br := bufio.NewReader(src)
	const get = "GET /dyn/64 HTTP/1.1\r\nHost: bench\r\nUser-Agent: t\r\nAccept: */*\r\n\r\n"
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(get)
		br.Reset(src)
		if req, err := ReadRequest(br); err != nil || req.Header.Len() != 3 {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadRequest of a GET head: %v allocs, want <= 2", n)
	}
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Served-By: app-0\r\n\r\nhello"
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(ok)
		br.Reset(src)
		if resp, err := ReadResponse(br); err != nil || resp.ContentLength != 5 {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadResponse with a Content-Length body: %v allocs, want <= 2", n)
	}
	// Into a message the caller keeps, a head costs its string.
	var req Request
	var kept Response
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(get + ok)
		br.Reset(src)
		if err := readRequestInto(br, &req); err != nil || req.Header.Len() != 3 {
			t.Fatal(err)
		}
		if err := ReadResponseInto(br, &kept); err != nil || kept.ContentLength != 5 {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadRequestInto and ReadResponseInto: %v allocs for two heads, want <= 2", n)
	}
	hello, body := []byte("hello"), bytes.NewReader(nil)
	resp := NewResponse(200, body, 5)
	resp.Header.Set("X-Served-By", "app-0")
	resp.Header.Set("via", "edge-0")
	if n := testing.AllocsPerRun(200, func() {
		body.Reset(hello)
		if _, err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteResponse of an in-hand body: %v allocs, want 0", n)
	}
	var sink bool
	if n := testing.AllocsPerRun(200, func() {
		sink = resp.Header.Get("x-served-by") == "app-0" && resp.Header.Has("VIA") && !resp.Header.Has("Vias")
	}); n != 0 || !sink {
		t.Errorf("Header.Get/Has: %v allocs (found %v), want 0", n, sink)
	}
}
