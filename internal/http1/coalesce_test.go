package http1

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// recorder keeps every Write made on it as its own element: a copy of the
// bytes, and the slice they were written from.
type recorder struct{ writes, from [][]byte }

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	r.from = append(r.from, p)
	return len(p), nil
}

func (r *recorder) all() string {
	var b strings.Builder
	for _, w := range r.writes {
		b.Write(w)
	}
	return b.String()
}

// arrived is a body of which so much has arrived: Read never blocks and
// Buffered reports what it will return, the way an h2t stream does.
type arrived struct {
	data []byte
	// claim, when not zero, is what Buffered reports regardless.
	claim int
}

func (a *arrived) Read(p []byte) (int, error) {
	if len(a.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, a.data)
	a.data = a.data[n:]
	return n, nil
}

func (a *arrived) Buffered() (int, bool) {
	if a.claim != 0 && len(a.data) > 0 {
		return a.claim, false
	}
	return len(a.data), len(a.data) == 0
}

// TestMessageInHandIsOneWrite: a message whose body cannot block leaves
// in one write, head included — the app server's Content-Length reply,
// the Edge's cache hit, and the Edge's chunked relay of a reply that has
// arrived whole (head, one chunk and the last-chunk marker).
func TestMessageInHandIsOneWrite(t *testing.T) {
	body := "0123456789abcdef"
	cases := []struct {
		name string
		resp *Response
		want string
	}{
		{"content-length", NewResponse(200, bytes.NewReader([]byte(body)), int64(len(body))),
			"HTTP/1.1 200 OK\r\nContent-Length: 16\r\n\r\n" + body},
		{"chunked", NewResponse(200, &arrived{data: []byte(body)}, -1),
			"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n" + body + "\r\n0\r\n\r\n"},
		{"no body", NewResponse(503, nil, 0),
			"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"},
		{"buffered reader", NewResponse(200, io.LimitReader(primed(body+"next message"), int64(len(body))), int64(len(body))),
			"HTTP/1.1 200 OK\r\nContent-Length: 16\r\n\r\n" + body},
	}
	for _, c := range cases {
		var rec recorder
		n, err := WriteResponse(&rec, c.resp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rec.writes) != 1 {
			t.Fatalf("%s took %d writes, want 1: %q", c.name, len(rec.writes), rec.writes)
		}
		if got := rec.all(); got != c.want {
			t.Fatalf("%s wrote %q, want %q", c.name, got, c.want)
		}
		if c.resp.Body != nil && n != int64(len(body)) {
			t.Fatalf("%s reported %d body bytes, want %d", c.name, n, len(body))
		}
	}
	var rec recorder
	req := NewRequest("POST", "/up", bytes.NewReader([]byte(body)), int64(len(body)))
	req.Header.Set("Host", "h")
	if _, err := WriteRequest(&rec, req); err != nil || len(rec.writes) != 1 {
		t.Fatalf("request took %d writes (%v), want 1", len(rec.writes), err)
	}
	if got, want := rec.all(), "POST /up HTTP/1.1\r\nContent-Length: 16\r\nHost: h\r\n\r\n"+body; got != want {
		t.Fatalf("request wrote %q, want %q", got, want)
	}
}

// primed returns a buffered reader that has s read ahead.
func primed(s string) *bufio.Reader {
	br := bufio.NewReader(strings.NewReader(s))
	br.Peek(1)
	return br
}

// TestSlowBodyIsNeverHeldBack: with a body that trickles in, every byte
// read is on the wire before the writer blocks waiting for the next —
// through both framings. Coalescing never waits for data.
func TestSlowBodyIsNeverHeldBack(t *testing.T) {
	parts := []string{"first bytes", " and, much later, ", "the rest"}
	whole := strings.Join(parts, "")
	for _, cl := range []int64{int64(len(whole)), -1} {
		var rec recorder
		body := &flushChecked{t: t, parts: append([]string(nil), parts...), out: &rec}
		n, err := WriteResponse(&rec, NewResponse(200, body, cl))
		if err != nil || n != int64(len(whole)) {
			t.Fatalf("cl %d: wrote %d body bytes, %v", cl, n, err)
		}
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(rec.all())))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ReadFullBody(resp.Body); string(got) != whole {
			t.Fatalf("cl %d: peer decodes %q", cl, got)
		}
		// Head, then one write per part, plus the last-chunk marker.
		want := 1 + len(parts)
		if cl < 0 {
			want++
		}
		if len(rec.writes) != want {
			t.Fatalf("cl %d: %d writes, want %d: %q", cl, len(rec.writes), want, rec.writes)
		}
	}
}

// flushChecked is a body whose every Read may block. On entry to each
// Read it checks that every byte it has handed out is already part of
// what was written.
type flushChecked struct {
	t     *testing.T
	parts []string
	out   *recorder
	given int
}

func (f *flushChecked) Read(p []byte) (int, error) {
	out := f.out.all()
	if i := strings.Index(out, "\r\n\r\n"); i < 0 {
		f.t.Errorf("body read before the head was written")
	} else if payload := dechunk(out[i+4:]); len(payload) != f.given {
		f.t.Errorf("a read that may block was reached with %d body bytes read and %d written", f.given, len(payload))
	}
	if len(f.parts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.parts[0])
	f.given += n
	if f.parts[0] = f.parts[0][n:]; f.parts[0] == "" {
		f.parts = f.parts[1:]
	}
	return n, nil
}

// dechunk returns the payload bytes of s, which is either a plain body or
// whole chunks.
func dechunk(s string) string {
	if !strings.Contains(s, "\r\n") {
		return s
	}
	var b strings.Builder
	for s != "" {
		i := strings.Index(s, "\r\n")
		n, ok := parseHexUint([]byte(s[:i]))
		if !ok {
			return b.String() + s
		}
		b.WriteString(s[i+2 : i+2+int(n)])
		s = s[i+2+int(n)+2:]
	}
	return b.String()
}

// TestChunkBehindPendingBytesWhenReadComesUpShort: a body that reports
// more buffered than its Read delivers leaves a gap between what is
// assembled and the chunk's size line; the chunk is moved down and the
// message still decodes.
func TestChunkBehindPendingBytesWhenReadComesUpShort(t *testing.T) {
	data := bytes.Repeat([]byte("g"), 10)
	var rec recorder
	if _, err := WriteResponse(&rec, NewResponse(200, &arrived{data: data, claim: 0x1000}, -1)); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 1 {
		t.Fatalf("%d writes, want 1", len(rec.writes))
	}
	if want := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\na\r\ngggggggggg\r\n0\r\n\r\n"; rec.all() != want {
		t.Fatalf("wrote %q, want %q", rec.all(), want)
	}
}

// TestLargeBodyFillsTheScratch: a body far larger than the scratch goes
// out in scratch-sized writes, both framings, byte-exact — unless it is in
// hand with a Content-Length: then it is two writes, the head and the
// body, and the body's is the caller's own memory, not a copy of it.
func TestLargeBodyFillsTheScratch(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	for _, body := range []struct {
		r  io.Reader
		cl int64
	}{{bytes.NewReader(data), int64(len(data))}, {&arrived{data: data}, -1}, {struct{ io.Reader }{bytes.NewReader(data)}, -1}} {
		var rec recorder
		n, err := WriteResponse(&rec, NewResponse(200, body.r, body.cl))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("cl %d: %d, %v", body.cl, n, err)
		}
		if inHand := body.cl >= 0; inHand && (len(rec.writes) != 2 || len(rec.from[1]) != len(data) || &rec.from[1][0] != &data[0]) {
			t.Fatalf("a 1 MiB body in hand took %d writes, want the head and then the body from its own memory", len(rec.writes))
		}
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(rec.all())))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ReadFullBody(resp.Body); !bytes.Equal(got, data) {
			t.Fatalf("cl %d: peer decodes %d bytes, want %d (or they differ)", body.cl, len(got), len(data))
		}
		if len(rec.writes) > 20 {
			t.Fatalf("cl %d: 1 MiB took %d writes", body.cl, len(rec.writes))
		}
	}
}

// failAfter accepts so many bytes and then fails.
type failAfter struct{ room int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.room {
		f.room -= len(p)
		return len(p), nil
	}
	n := f.room
	f.room = 0
	return n, errSink
}

// TestBodyCountIsBytesHandedToTheSocket: the count WriteRequest returns
// is of body bytes the writer took, not of bytes assembled — for a body
// that goes through the scratch, and for one larger than the scratch that
// goes out from its own memory behind the head.
func TestBodyCountIsBytesHandedToTheSocket(t *testing.T) {
	for _, size := range []struct{ body, part int }{{1000, 300}, {1 << 20, 300 << 10}} {
		body := bytes.Repeat([]byte("b"), size.body)
		head := len("POST /up HTTP/1.1\r\nContent-Length: " + strconv.Itoa(size.body) + "\r\n\r\n")
		for _, room := range []int{0, head - 1, head, head + size.part, head + size.body} {
			n, err := WriteRequest(&failAfter{room: room}, NewRequest("POST", "/up", bytes.NewReader(body), int64(size.body)))
			want := int64(max(0, room-head))
			if room == head+size.body {
				if err != nil || n != int64(size.body) {
					t.Fatalf("%d bytes, room for all of it: %d, %v", size.body, n, err)
				}
				continue
			}
			if !errors.Is(err, errSink) || n != want {
				t.Fatalf("%d bytes, room %d: reported %d body bytes (%v), want %d", size.body, room, n, err, want)
			}
		}
	}
}

// TestShortBodyIsAnError: a body that ends before its Content-Length.
func TestShortBodyIsAnError(t *testing.T) {
	var rec recorder
	if _, err := WriteResponse(&rec, NewResponse(200, strings.NewReader("abc"), 5)); err == nil {
		t.Fatal("a 3-byte body was accepted for Content-Length: 5")
	}
}
