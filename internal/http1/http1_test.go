package http1

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"content-length":    "Content-Length",
		"CONTENT-LENGTH":    "Content-Length",
		"x-fb-debug":        "X-Fb-Debug",
		"a":                 "A",
		"":                  "",
		"Already-Canonical": "Already-Canonical",
	}
	for in, want := range cases {
		if got := canonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// values returns every value of key, in order.
func values(h *Header, key string) []string {
	var out []string
	for i := 0; i < h.Len(); i++ {
		if name, v := h.At(i); strings.EqualFold(name, key) {
			out = append(out, v)
		}
	}
	return out
}

func TestHeaderOps(t *testing.T) {
	h := Header{}
	h.Set("x-one", "1")
	h.Add("X-ONE", "2")
	if got := values(&h, "X-One"); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("values = %v", got)
	}
	if h.Get("x-ONE") != "1" {
		t.Fatal("Get not case-insensitive")
	}
	if !h.Has("X-One") {
		t.Fatal("Has failed")
	}
	if h.Has("X-On") || h.Has("X-Onee") || h.Has("X_One") {
		t.Fatal("Has matched a different name")
	}
	h.Set("Connection", "keep-alive, Close")
	if !h.HasToken("connection", "close") || h.HasToken("connection", "clos") {
		t.Fatal("HasToken failed")
	}
	h.del("x-one")
	if h.Has("X-One") || h.Len() != 1 {
		t.Fatal("Del failed")
	}
}

// TestHeaderCopyDoesNotAlias: a Header is copied by assignment, inside
// its inline room and past it, and neither copy sees what the other does
// afterwards.
func TestHeaderCopyDoesNotAlias(t *testing.T) {
	for _, n := range []int{3, inlineFields, inlineFields + 1, 3 * inlineFields} {
		var h Header
		for i := 0; i < n; i++ {
			h.Add("X-"+strconv.Itoa(i), "v")
		}
		cp := h
		cp.Add("X-Copy", "c")
		h.Add("X-Orig", "o")
		cp.Set("X-0", "changed")
		cp.del("X-" + strconv.Itoa(n-1))
		h.Set("X-"+strconv.Itoa(n-1), "mine")
		if h.Len() != n+1 || h.Has("X-Copy") || h.Get("X-0") != "v" || h.Get("X-Orig") != "o" || h.Get("X-"+strconv.Itoa(n-1)) != "mine" {
			t.Fatalf("n=%d: original saw the copy's changes: %+v", n, h)
		}
		if cp.Len() != n || cp.Has("X-Orig") || cp.Get("X-0") != "changed" || cp.Get("X-Copy") != "c" || cp.Has("X-"+strconv.Itoa(n-1)) {
			t.Fatalf("n=%d: copy saw the original's changes: %+v", n, cp)
		}
		for i := 1; i < n-1; i++ {
			if k := "X-" + strconv.Itoa(i); h.Get(k) != "v" || cp.Get(k) != "v" {
				t.Fatalf("n=%d: field %s lost", n, k)
			}
		}
	}
}

func TestPseudoHeaderEcho(t *testing.T) {
	if got := EchoPseudoHeader(":path"); got != "Pseudo-Echo-Path" {
		t.Fatalf("echo = %q", got)
	}
	name, ok := UnechoPseudoHeader("pseudo-echo-path")
	if !ok || name != ":path" {
		t.Fatalf("unecho = %q %v", name, ok)
	}
	if _, ok := UnechoPseudoHeader("Content-Length"); ok {
		t.Fatal("unecho accepted a normal header")
	}
}

func TestRequestRoundTripContentLength(t *testing.T) {
	body := "hello world"
	req := NewRequest("POST", "/upload", strings.NewReader(body), int64(len(body)))
	req.Header.Set("Host", "example.com")
	var buf bytes.Buffer
	n, err := WriteRequest(&buf, req)
	if err != nil || n != int64(len(body)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "POST" || got.Target != "/upload" || got.proto != "HTTP/1.1" {
		t.Fatalf("head = %+v", got)
	}
	if got.Header.Get("Host") != "example.com" {
		t.Fatal("host header lost")
	}
	if got.ContentLength != int64(len(body)) {
		t.Fatalf("content length = %d", got.ContentLength)
	}
	b, _ := ReadFullBody(got.Body)
	if string(b) != body {
		t.Fatalf("body = %q", b)
	}
}

func TestRequestRoundTripChunked(t *testing.T) {
	body := strings.Repeat("chunky!", 1000)
	req := NewRequest("POST", "/up", strings.NewReader(body), -1)
	var buf bytes.Buffer
	if _, err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Transfer-Encoding: chunked") {
		t.Fatal("chunked framing header missing")
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentLength != -1 {
		t.Fatalf("content length = %d, want -1 (chunked)", got.ContentLength)
	}
	b, _ := ReadFullBody(got.Body)
	if string(b) != body {
		t.Fatalf("chunked body mismatch: %d vs %d bytes", len(b), len(body))
	}
}

func TestRequestNoBody(t *testing.T) {
	req := NewRequest("GET", "/", nil, 0)
	var buf bytes.Buffer
	if _, err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != nil {
		t.Fatal("GET should have nil body")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := "response payload"
	resp := NewResponse(200, strings.NewReader(body), int64(len(body)))
	resp.Header.Set("X-Served-By", "proxy-1")
	var buf bytes.Buffer
	if _, err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || got.StatusMessage != "OK" {
		t.Fatalf("status = %d %q", got.StatusCode, got.StatusMessage)
	}
	b, _ := ReadFullBody(got.Body)
	if string(b) != body {
		t.Fatalf("body = %q", b)
	}
}

func TestResponse379RoundTrip(t *testing.T) {
	partial := "partially-uploaded-data"
	resp := NewResponse(StatusPartialPostReplay, strings.NewReader(partial), int64(len(partial)))
	resp.Header.Set(EchoPseudoHeader(":path"), "/upload")
	var buf bytes.Buffer
	if _, err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "HTTP/1.1 379 PartialPOST\r\n") {
		t.Fatalf("status line = %q", strings.SplitN(buf.String(), "\r\n", 2)[0])
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !IsPartialPostReplay(got) {
		t.Fatal("379+PartialPOST not recognised")
	}
	if got.Header.Get("Pseudo-Echo-Path") != "/upload" {
		t.Fatal("pseudo echo header lost")
	}
}

func TestIsPartialPostReplayRequiresMessage(t *testing.T) {
	// §5.2: a buggy upstream returning a bare 379 must NOT trigger PPR.
	r := &Response{StatusCode: 379, StatusMessage: "Random Garbage"}
	if IsPartialPostReplay(r) {
		t.Fatal("379 with wrong status message must not trigger PPR")
	}
	r.StatusMessage = StatusMessagePartialPost
	if !IsPartialPostReplay(r) {
		t.Fatal("genuine PPR response not recognised")
	}
}

func TestResponseNoBodyCodes(t *testing.T) {
	var buf bytes.Buffer
	resp := NewResponse(204, nil, 0)
	if _, err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != nil {
		t.Fatal("204 must have no body")
	}
}

func TestMalformedRequestLine(t *testing.T) {
	for _, in := range []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / SPDY/3\r\n\r\n",
	} {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestMalformedResponseLine(t *testing.T) {
	for _, in := range []string{
		"HTTP/1.1 xx OK\r\n\r\n",
		"HTTP/1.1\r\n\r\n",
		"ICY 200 OK\r\n\r\n",
		"HTTP/1.1 99 Too Small\r\n\r\n",
	} {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestMalformedHeader(t *testing.T) {
	in := "GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); err == nil {
		t.Fatal("accepted header without colon")
	}
}

func TestBadContentLength(t *testing.T) {
	in := "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); err == nil {
		t.Fatal("accepted negative content-length")
	}
}

func TestChunkedWriterFraming(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkedWriter(&buf)
	cw.Write([]byte("abc"))
	cw.Write(nil) // zero-length writes are elided, not terminal chunks
	cw.Write([]byte("defgh"))
	if cw.BytesWritten() != 8 {
		t.Fatalf("bytes written = %d", cw.BytesWritten())
	}
	cw.Close()
	want := "3\r\nabc\r\n5\r\ndefgh\r\n0\r\n\r\n"
	if buf.String() != want {
		t.Fatalf("framing = %q, want %q", buf.String(), want)
	}
	if _, err := cw.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := cw.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestChunkedReaderState(t *testing.T) {
	// One 10-byte chunk; read 4 bytes and examine mid-chunk state — the
	// state PPR must track (§5.2).
	raw := "a\r\n0123456789\r\n0\r\n\r\n"
	cr := NewChunkedReader(bufio.NewReader(strings.NewReader(raw)))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(cr, buf); err != nil {
		t.Fatal(err)
	}
	if cr.Offset() != 4 || !cr.InChunk() || cr.Done() {
		t.Fatalf("mid-chunk state: offset=%d inChunk=%v done=%v", cr.Offset(), cr.InChunk(), cr.Done())
	}
	rest, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "456789" {
		t.Fatalf("rest = %q", rest)
	}
	if !cr.Done() || cr.InChunk() || cr.Offset() != 10 {
		t.Fatalf("final state: offset=%d inChunk=%v done=%v", cr.Offset(), cr.InChunk(), cr.Done())
	}
}

func TestChunkedReaderExtensionsIgnored(t *testing.T) {
	raw := "5;ext=1\r\nhello\r\n0\r\n\r\n"
	cr := NewChunkedReader(bufio.NewReader(strings.NewReader(raw)))
	b, err := io.ReadAll(cr)
	if err != nil || string(b) != "hello" {
		t.Fatalf("b=%q err=%v", b, err)
	}
}

func TestChunkedReaderMalformed(t *testing.T) {
	for _, raw := range []string{
		"zz\r\nhello\r\n",          // bad size
		"5\r\nhelloXX0\r\n\r\n",    // missing chunk CRLF
		"-5\r\nhello\r\n0\r\n\r\n", // negative
	} {
		cr := NewChunkedReader(bufio.NewReader(strings.NewReader(raw)))
		if _, err := io.ReadAll(cr); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

// Property: chunked encode→decode is the identity for arbitrary bodies and
// arbitrary write segmentation.
func TestChunkedRoundTripProperty(t *testing.T) {
	f := func(body []byte, seg uint8) bool {
		var buf bytes.Buffer
		cw := NewChunkedWriter(&buf)
		step := int(seg%32) + 1
		for off := 0; off < len(body); off += step {
			end := off + step
			if end > len(body) {
				end = len(body)
			}
			if _, err := cw.Write(body[off:end]); err != nil {
				return false
			}
		}
		if err := cw.Close(); err != nil {
			return false
		}
		cr := NewChunkedReader(bufio.NewReader(&buf))
		got, err := io.ReadAll(cr)
		if err != nil {
			return false
		}
		return bytes.Equal(got, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: request round-trip preserves method, target and body for
// token-ish methods/targets.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(body []byte, chunked bool) bool {
		cl := int64(len(body))
		if chunked {
			cl = -1
		}
		var rd io.Reader
		if len(body) > 0 {
			rd = bytes.NewReader(body)
		}
		req := NewRequest("POST", "/p", rd, cl)
		var buf bytes.Buffer
		if _, err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		b, err := ReadFullBody(got.Body)
		if err != nil {
			return false
		}
		return bytes.Equal(b, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		req := NewRequest("POST", "/n", strings.NewReader("abc"), 3)
		if _, err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i := 0; i < 3; i++ {
		req, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		b, _ := ReadFullBody(req.Body)
		if string(b) != "abc" {
			t.Fatalf("message %d body = %q", i, b)
		}
	}
}

// TestGetClassify runs Get against one loopback server per case and
// sorts the outcome into Fig. 12's classes.
func TestGetClassify(t *testing.T) {
	cases := []struct {
		name string
		// serve answers the one request; nil answers nothing and waits.
		serve func(c net.Conn)
		// prep readies the client's connection for Get.
		prep   func(c net.Conn)
		status int
		class  ErrorClass
		// least is how long Get takes at least: the body's end comes late.
		least time.Duration
	}{
		{name: "200, body read to its end", status: 200, class: ClassOK, least: 50 * time.Millisecond,
			serve: func(c net.Conn) {
				io.WriteString(c, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n")
				time.Sleep(50 * time.Millisecond)
				io.WriteString(c, "0\r\n\r\n")
			}},
		{name: "503", status: 503, class: ClassStreamAbort,
			serve: func(c net.Conn) {
				io.WriteString(c, "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n")
			}},
		{name: "silent server", class: ClassTimeout,
			prep: func(c net.Conn) { c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) }},
		{name: "peer reset", class: ClassConnReset,
			serve: func(c net.Conn) {
				c.(*net.TCPConn).SetLinger(0)
				c.Close()
			}},
		{name: "write past its deadline", class: ClassWriteTimeout,
			prep: func(c net.Conn) { c.SetWriteDeadline(time.Now().Add(-time.Second)) }},
		{name: "write on a closed connection", class: ClassConnReset,
			prep: func(c net.Conn) { c.Close() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			defer func() { <-done }()
			go func() {
				defer close(done)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				if _, err := ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				if tc.serve == nil {
					io.Copy(io.Discard, c) // until the client goes
					return
				}
				tc.serve(c)
			}()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if tc.prep != nil {
				tc.prep(c)
			}
			start := time.Now()
			status, err := Get(c, "/x")
			if took := time.Since(start); took < tc.least {
				t.Fatalf("Get returned after %v, before the body's end at %v", took, tc.least)
			}
			if status != tc.status {
				t.Fatalf("status %d (err %v), want %d", status, err, tc.status)
			}
			if got := Classify(status, err); got != tc.class {
				t.Fatalf("class %v (err %v), want %v", got, err, tc.class)
			}
			c.Close()
		})
	}
	// A dial that fails is a connection reset too.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	_, err = net.Dial("tcp", ln.Addr().String())
	if got := Classify(0, err); err == nil || got != ClassConnReset {
		t.Fatalf("refused dial (err %v) classed %v, want %v", err, got, ClassConnReset)
	}
}
