package http1

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"zdr/internal/bufpool"
)

// StatusPartialPostReplay is the non-standard status code the app server
// sends to the downstream proxy to hand back an incomplete POST (§4.3).
// It must never propagate to an end user.
const StatusPartialPostReplay = 379

// StatusMessagePartialPost is the reason phrase that must accompany 379
// for PPR to engage (§5.2: 379 alone is ambiguous because the code sits in
// an unreserved IANA range another service might use).
const StatusMessagePartialPost = "PartialPOST"

// Common status reason phrases.
var reasonPhrases = map[int]string{
	200: "OK",
	204: "No Content",
	307: "Temporary Redirect",
	379: StatusMessagePartialPost,
	400: "Bad Request",
	404: "Not Found",
	500: "Internal Server Error",
	502: "Bad Gateway",
	503: "Service Unavailable",
	504: "Gateway Timeout",
}

// ReasonPhrase returns the default reason phrase for code.
func ReasonPhrase(code int) string {
	if p, ok := reasonPhrases[code]; ok {
		return p
	}
	return "Unknown"
}

// Request is an HTTP/1.1 request with an explicit body stream.
type Request struct {
	Method string
	Target string // request-target, e.g. "/upload"
	Proto  string // "HTTP/1.1"
	Header Header
	// Body is the decoded body stream (nil for bodyless requests).
	Body io.Reader
	// ContentLength is the declared body length; -1 means chunked.
	ContentLength int64
}

// NewRequest builds a request with the given body. If body is nil the
// request has no body; otherwise contentLength -1 selects chunked encoding.
func NewRequest(method, target string, body io.Reader, contentLength int64) *Request {
	return &Request{
		Method:        method,
		Target:        target,
		Proto:         "HTTP/1.1",
		Header:        Header{},
		Body:          body,
		ContentLength: contentLength,
	}
}

// Response is an HTTP/1.1 response with an explicit body stream.
type Response struct {
	StatusCode    int
	StatusMessage string
	Proto         string
	Header        Header
	Body          io.Reader
	ContentLength int64 // -1 means chunked
}

// NewResponse builds a response.
func NewResponse(code int, body io.Reader, contentLength int64) *Response {
	return &Response{
		StatusCode:    code,
		StatusMessage: ReasonPhrase(code),
		Proto:         "HTTP/1.1",
		Header:        Header{},
		Body:          body,
		ContentLength: contentLength,
	}
}

// ErrMalformed is wrapped by all parse errors.
var ErrMalformed = errors.New("http1: malformed message")

// ReadRequest parses a request head from br and prepares Body for
// streaming. The body must be fully consumed before the next message is
// read from the same reader.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2], Header: Header{}}
	if err := readHeaders(br, req.Header); err != nil {
		return nil, err
	}
	req.ContentLength, req.Body, err = bodyFromHeaders(br, req.Header, req.Method == "HEAD")
	if err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse parses a response head from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 999 {
		return nil, fmt.Errorf("%w: bad status code in %q", ErrMalformed, line)
	}
	resp := &Response{StatusCode: code, Proto: parts[0], Header: Header{}}
	if len(parts) == 3 {
		resp.StatusMessage = parts[2]
	}
	if err := readHeaders(br, resp.Header); err != nil {
		return nil, err
	}
	noBody := code == 204 || code == 304 || code/100 == 1
	resp.ContentLength, resp.Body, err = bodyFromHeaders(br, resp.Header, noBody)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func readHeaders(br *bufio.Reader, h Header) error {
	const maxHeaders = 256
	for i := 0; ; i++ {
		if i > maxHeaders {
			return fmt.Errorf("%w: too many header fields", ErrMalformed)
		}
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if line == "" {
			return nil
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return fmt.Errorf("%w: bad header field %q", ErrMalformed, line)
		}
		h.Add(strings.TrimSpace(line[:colon]), strings.TrimSpace(line[colon+1:]))
	}
}

func bodyFromHeaders(br *bufio.Reader, h Header, noBody bool) (int64, io.Reader, error) {
	if noBody {
		return 0, nil, nil
	}
	if strings.EqualFold(h.Get("Transfer-Encoding"), "chunked") {
		return -1, NewChunkedReader(br), nil
	}
	if cl := h.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n < 0 {
			return 0, nil, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, cl)
		}
		if n == 0 {
			return 0, nil, nil
		}
		return n, io.LimitReader(br, n), nil
	}
	return 0, nil, nil
}

// WriteRequest serializes req to w, streaming the body with the framing
// selected by ContentLength. It returns the number of body bytes written,
// which PPR uses to know how much of an upload reached a given server.
func WriteRequest(w io.Writer, req *Request) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s\r\n", req.Method, req.Target, orDefault(req.Proto, "HTTP/1.1"))
	h := req.Header.Clone()
	applyFraming(h, req.Body, req.ContentLength)
	h.writeTo(&sb)
	sb.WriteString("\r\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return 0, err
	}
	return writeBody(w, req.Body, req.ContentLength)
}

// WriteResponse serializes resp to w, streaming the body.
func WriteResponse(w io.Writer, resp *Response) (int64, error) {
	msg := resp.StatusMessage
	if msg == "" {
		msg = ReasonPhrase(resp.StatusCode)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d %s\r\n", orDefault(resp.Proto, "HTTP/1.1"), resp.StatusCode, msg)
	h := resp.Header.Clone()
	applyFraming(h, resp.Body, resp.ContentLength)
	h.writeTo(&sb)
	sb.WriteString("\r\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return 0, err
	}
	return writeBody(w, resp.Body, resp.ContentLength)
}

func applyFraming(h Header, body io.Reader, contentLength int64) {
	h.Del("Content-Length")
	h.Del("Transfer-Encoding")
	switch {
	case body == nil:
		h.Set("Content-Length", "0")
	case contentLength >= 0:
		h.Set("Content-Length", strconv.FormatInt(contentLength, 10))
	default:
		h.Set("Transfer-Encoding", "chunked")
	}
}

func writeBody(w io.Writer, body io.Reader, contentLength int64) (int64, error) {
	if body == nil {
		return 0, nil
	}
	// bufpool.Copy, not io.Copy: neither a ChunkedWriter nor an h2t stream
	// offers ReadFrom/WriteTo, so io.Copy would allocate its 32 KiB
	// scratch for every message.
	if contentLength >= 0 {
		n, err := bufpool.Copy(w, io.LimitReader(body, contentLength))
		if err == nil && n != contentLength {
			err = fmt.Errorf("http1: body short: wrote %d of %d", n, contentLength)
		}
		return n, err
	}
	cw := NewChunkedWriter(w)
	n, err := bufpool.Copy(cw, body)
	if err != nil {
		return n, err
	}
	return n, cw.Close()
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// ReadFullBody consumes and returns the entire body of a parsed message.
func ReadFullBody(body io.Reader) ([]byte, error) {
	return ReadFullBodySized(body, 0)
}

// ReadFullBodySized is ReadFullBody with a size hint (a Content-Length, or
// <= 0 when unknown). It is the PPR capture path (§5.2): the proxy buffers
// a partially processed body handed back by a restarting app server, so it
// runs once per replayed request. Reads go through a pooled scratch buffer
// and the result is sized from the hint, avoiding bytes.Buffer's repeated
// grow-and-copy; the preallocation from an untrusted hint is capped so a
// lying peer can't make us reserve arbitrary memory.
func ReadFullBodySized(body io.Reader, sizeHint int64) ([]byte, error) {
	if body == nil {
		return nil, nil
	}
	const maxPrealloc = 1 << 20
	hint := sizeHint
	if hint > maxPrealloc {
		hint = maxPrealloc
	}
	var out []byte
	if hint > 0 {
		out = make([]byte, 0, hint)
	}
	var p *[]byte
	defer func() { bufpool.Put(p) }()
	for {
		// While the result has spare capacity, read straight into it —
		// with an accurate hint the whole body lands in one allocation
		// with no intermediate copy.
		if len(out) < cap(out) {
			n, err := body.Read(out[len(out):cap(out)])
			out = out[:len(out)+n]
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		// No capacity left (no/low hint, or the peer sent more than
		// declared): stage through a pooled scratch buffer and append.
		if p == nil {
			p = bufpool.Get(bufpool.TierXLarge)
		}
		n, err := body.Read(*p)
		if n > 0 {
			out = append(out, (*p)[:n]...)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// IsPartialPostReplay reports whether resp is a genuine PPR hand-back:
// code 379 AND the PartialPOST status message (§5.2's double check — a
// buggy upstream once returned randomized status codes including 379).
func IsPartialPostReplay(resp *Response) bool {
	return resp.StatusCode == StatusPartialPostReplay &&
		resp.StatusMessage == StatusMessagePartialPost
}
