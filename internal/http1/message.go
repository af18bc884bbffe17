package http1

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
	413: "Content Too Large",
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
	// limited is Body when a request that was read has a Content-Length.
	limited io.LimitedReader
}

// NewRequest builds a request with the given body. If body is nil the
// request has no body; otherwise contentLength -1 selects chunked encoding.
func NewRequest(method, target string, body io.Reader, contentLength int64) *Request {
	return &Request{
		Method:        method,
		Target:        target,
		Proto:         "HTTP/1.1",
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

	limited io.LimitedReader // as Request.limited
}

// NewResponse builds a response.
func NewResponse(code int, body io.Reader, contentLength int64) *Response {
	return &Response{
		StatusCode:    code,
		StatusMessage: ReasonPhrase(code),
		Proto:         "HTTP/1.1",
		Body:          body,
		ContentLength: contentLength,
	}
}

// ErrMalformed is wrapped by all parse errors.
var ErrMalformed = errors.New("http1: malformed message")

// A head — request or status line, fields and the empty line — is at most
// maxHead bytes and maxFields fields; more is ErrMalformed.
const (
	maxHead   = 64 << 10
	maxFields = 256
)

// readHead takes the next message head off br as one string, through its
// empty line. It is bounded while it is read: a peer that never ends its
// head costs maxHead of memory and one fill of br's buffer.
func readHead(br *bufio.Reader) (string, error) {
	var room [512]byte
	head, whole := room[:0], true // whole: the next fragment starts a line
	for {
		frag, err := br.ReadSlice('\n')
		head = append(head, frag...)
		switch {
		case len(head) > maxHead:
			return "", fmt.Errorf("%w: head longer than %d bytes", ErrMalformed, maxHead)
		case err == bufio.ErrBufferFull: // a line longer than br's buffer comes in pieces
			whole = false
			continue
		case err != nil:
			return "", err
		}
		if empty := len(frag) == 1 || len(frag) == 2 && frag[0] == '\r'; empty && whole {
			return string(head), nil
		}
		whole = true
	}
}

// HeadBuffered reports whether what br holds, filling its buffer from its
// source once if it holds nothing, includes the end of a message head:
// then reading that head reads nothing more from the source. It looks for
// an empty line that ends in CRLF, as every head this program's peers
// send does; a head it misses is only read the slower way.
func HeadBuffered(br *bufio.Reader) bool {
	br.Peek(1)
	b, _ := br.Peek(br.Buffered())
	return bytes.Contains(b, crlfcrlf)
}

var crlfcrlf = []byte("\r\n\r\n")

// cutLine splits a head at its first line end. The line comes without
// its LF or CRLF; a head always ends in one.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// ReadRequest parses a request head from br and prepares Body for
// streaming. The body must be fully consumed before the next message is
// read from the same reader. Method, Target, Proto and the Header's
// strings are substrings of one copy of the head.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := ReadRequestInto(br, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadRequestInto is ReadRequest into a message the caller owns: a
// connection keeps one for all it serves. Every field is set anew, the
// fields past the Header's own room included; strings taken from the
// message read before are of its own head and stay valid. After an error
// req holds no message.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	head, err := readHead(br)
	if err != nil {
		return err
	}
	line, fields := cutLine(head)
	method, rest, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(rest, " ")
	if method == "" || target == "" || !strings.HasPrefix(proto, "HTTP/1.") {
		return fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	*req = Request{Method: method, Target: target, Proto: proto}
	req.ContentLength, req.Body, err = parseFields(br, &req.Header, fields, method == "HEAD", &req.limited)
	return err
}

// ReadResponse parses a response head from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	resp := new(Response)
	if err := ReadResponseInto(br, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadResponseInto is ReadResponse into a message the caller owns, as
// ReadRequestInto is ReadRequest.
func ReadResponseInto(br *bufio.Reader, resp *Response) error {
	head, err := readHead(br)
	if err != nil {
		return err
	}
	line, fields := cutLine(head)
	proto, rest, _ := strings.Cut(line, " ")
	status, msg, _ := strings.Cut(rest, " ")
	if !strings.HasPrefix(proto, "HTTP/1.") {
		return fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	code, err := strconv.ParseUint(status, 10, 16)
	if err != nil || len(status) != 3 || code < 100 {
		return fmt.Errorf("%w: bad status code in %q", ErrMalformed, line)
	}
	*resp = Response{StatusCode: int(code), StatusMessage: msg, Proto: proto}
	noBody := code == 204 || code == 304 || code/100 == 1
	resp.ContentLength, resp.Body, err = parseFields(br, &resp.Header, fields, noBody, &resp.limited)
	return err
}

// parseFields cuts the field lines of a head, up to its empty line, into
// h and returns the message's ContentLength and Body; lr is the message's
// room for the reader of a Content-Length body. A head that says twice,
// differently, where its body ends — Content-Lengths that disagree, one
// beside a Transfer-Encoding — is refused, as is a transfer coding other
// than chunked and a line that continues the one before (obs-fold): a
// proxy that re-frames what it forwards must not read a boundary where
// the next hop could read another.
func parseFields(br *bufio.Reader, h *Header, s string, noBody bool, lr *io.LimitedReader) (int64, io.Reader, error) {
	length, chunked := int64(-1), false
	for line, s := cutLine(s); line != ""; line, s = cutLine(s) {
		name, value, ok := strings.Cut(line, ":")
		if name, value = strings.TrimSpace(name), strings.TrimSpace(value); !ok || name == "" || line[0] == ' ' || line[0] == '\t' {
			return 0, nil, fmt.Errorf("%w: bad header field %q", ErrMalformed, line)
		}
		if h.n == maxFields {
			return 0, nil, fmt.Errorf("%w: too many header fields", ErrMalformed)
		}
		h.push(name, value)
		switch {
		case equalFold(name, "Content-Length"):
			// Digits only: no sign, no list.
			n, err := strconv.ParseUint(value, 10, 63)
			if err != nil || length >= 0 && int64(n) != length {
				return 0, nil, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, value)
			}
			length = int64(n)
		case equalFold(name, "Transfer-Encoding"):
			if chunked = true; !strings.EqualFold(value, "chunked") {
				return 0, nil, fmt.Errorf("%w: unsupported Transfer-Encoding %q", ErrMalformed, value)
			}
		}
	}
	switch {
	case chunked && length >= 0:
		return 0, nil, fmt.Errorf("%w: both Content-Length and Transfer-Encoding", ErrMalformed)
	case noBody || length <= 0 && !chunked:
		return 0, nil, nil
	case chunked:
		return -1, NewChunkedReader(br), nil
	}
	*lr = io.LimitedReader{R: br, N: length}
	return length, lr, nil
}

// WriteRequest serializes req to w, streaming the body with the framing
// selected by ContentLength. It returns the number of body bytes handed
// to w, which PPR uses to know how much of an upload reached a given
// server. Head and body leave in as few writes as the body's arrival
// allows (see messageWriter).
func WriteRequest(w io.Writer, req *Request) (int64, error) {
	mw := newMessageWriter(w, req.Body)
	defer mw.release()
	b := append(mw.buf, req.Method...)
	b = append(b, ' ')
	b = append(b, req.Target...)
	b = append(b, ' ')
	b = append(b, orDefault(req.Proto, "HTTP/1.1")...)
	b = append(b, '\r', '\n')
	mw.buf = appendHeaders(b, &req.Header, req.Body, req.ContentLength)
	return mw.writeBody(req.Body, req.ContentLength)
}

// WriteResponse serializes resp to w, streaming the body.
func WriteResponse(w io.Writer, resp *Response) (int64, error) {
	msg := resp.StatusMessage
	if msg == "" {
		msg = ReasonPhrase(resp.StatusCode)
	}
	mw := newMessageWriter(w, resp.Body)
	defer mw.release()
	b := append(mw.buf, orDefault(resp.Proto, "HTTP/1.1")...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(resp.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, msg...)
	b = append(b, '\r', '\n')
	mw.buf = appendHeaders(b, &resp.Header, resp.Body, resp.ContentLength)
	return mw.writeBody(resp.Body, resp.ContentLength)
}

// appendHeaders appends h's fields sorted by canonical name and written
// under it, a repeated name's in the order they were added (deterministic
// output simplifies testing and diffing captures), and the blank line
// that ends the head. Whatever h says about framing is replaced by the
// one framing field the body calls for, in its sorted place.
func appendHeaders(b []byte, h *Header, body io.Reader, contentLength int64) []byte {
	framing := "Content-Length"
	if body != nil && contentLength < 0 {
		framing = "Transfer-Encoding"
	}
	name := func(i int) string {
		if i < 0 {
			return framing
		}
		return h.at(i).name
	}
	var room [2 * inlineFields]int
	order := append(room[:0], -1) // what goes out: fields by index, -1 the framing field
	for i := 0; i < h.n; i++ {
		if equalFold(name(i), "Content-Length") || equalFold(name(i), "Transfer-Encoding") {
			continue
		}
		j := len(order)
		for order = append(order, i); j > 0 && canonCmp(name(i), name(order[j-1])) < 0; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for _, i := range order {
		b = append(appendCanonical(b, name(i)), ':', ' ')
		switch {
		case i >= 0:
			b = append(b, h.at(i).value...)
		case body == nil:
			b = append(b, '0')
		case contentLength >= 0:
			b = strconv.AppendInt(b, contentLength, 10)
		default:
			b = append(b, "chunked"...)
		}
		b = append(b, '\r', '\n')
	}
	return append(b, '\r', '\n')
}

// buffered reports what body's next Read returns without blocking: n
// bytes, or, when n is 0, whether it returns the body's end (or its
// error) at once. (0, false) means the Read may block.
func buffered(body io.Reader) (n int, end bool) {
	switch r := body.(type) {
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		n = r.Len()
		return n, n == 0
	case *bufio.Reader:
		return r.Buffered(), false
	case *io.LimitedReader:
		if r.N <= 0 {
			return 0, true
		}
		n, end = buffered(r.R)
		return int(min(int64(n), r.N)), end
	case interface{ Buffered() (int, bool) }: // h2t.Stream
		return r.Buffered()
	}
	return 0, false
}

// Buffered reports how many bytes of a message body can be read without
// blocking.
func Buffered(body io.Reader) int {
	n, _ := buffered(body)
	return n
}

// messageWriter assembles one message in a pooled scratch and hands it to
// w in as few writes as the body's arrival allows. The head goes in
// first; body bytes are read in behind it for as long as the body's next
// Read cannot block. The scratch is flushed when it fills, when the
// message ends, and before any Read that may block — so a reply whose
// body is in hand leaves in one write, head included, and the first byte
// of a slow body is never held back waiting for the second. A
// Content-Length body in hand that the scratch has no room for (it has
// Len and WriteTo, as bytes.Reader does) is not copied into it: the head
// goes out, then the body in one WriteTo, from its own memory.
type messageWriter struct {
	w  io.Writer
	bp *[]byte
	// buf[start:] is what has been assembled and not yet written.
	buf   []byte
	start int
	// pending counts the body bytes in buf[start:], sent those handed
	// to w.
	pending, sent int64
}

// headRoom is the least room a small scratch leaves a head beside the
// body bytes in hand.
const headRoom = 1 << 10

// newMessageWriter takes a small scratch when it holds a head and the
// body bytes in hand, so that a small reply whose body has arrived does
// not hold a streaming scratch; grow moves a body that turns out larger,
// or that must be waited for, to one.
func newMessageWriter(w io.Writer, body io.Reader) messageWriter {
	size := bufpool.TierXLarge
	if n, _ := buffered(body); n+headRoom <= bufpool.TierSmall {
		size = bufpool.TierSmall
	}
	bp := bufpool.Get(size)
	return messageWriter{w: w, bp: bp, buf: (*bp)[:0]}
}

// grow moves what is assembled to the streaming scratch: the tier above
// the largest h2t frame, so that a body arriving in 64 KiB frames goes
// out a whole frame at a time, chunk framing included, with no few bytes
// of each frame left over for a write of their own.
func (mw *messageWriter) grow() {
	bp := bufpool.Get(bufpool.TierXLarge)
	mw.buf, mw.start = append((*bp)[:0], mw.buf[mw.start:]...), 0
	bufpool.Put(mw.bp)
	mw.bp = bp
}

func (mw *messageWriter) release() { bufpool.Put(mw.bp) }

func (mw *messageWriter) flush() error {
	out := mw.buf[mw.start:]
	mw.buf, mw.start = (*mw.bp)[:0], 0
	if len(out) == 0 {
		return nil
	}
	n, err := mw.w.Write(out)
	if err == nil {
		mw.sent += mw.pending
	} else if body := int64(n) - (int64(len(out)) - mw.pending); body > 0 {
		// Everything that is not body precedes it (exactly so with a
		// Content-Length, at least so when chunked).
		mw.sent += body
	}
	mw.pending = 0
	return err
}

// minRoom is the least free scratch worth reading a body into; with less
// the scratch is flushed first.
const minRoom = 512

// writeBody streams body behind the head already in mw.buf and returns
// the number of body bytes handed to w.
func (mw *messageWriter) writeBody(body io.Reader, contentLength int64) (int64, error) {
	if cap(mw.buf) != cap(*mw.bp) {
		// The head outgrew the scratch: it goes out from where append put
		// it, and the body starts on an empty scratch.
		if _, err := mw.w.Write(mw.buf); err != nil {
			return 0, err
		}
		mw.buf = (*mw.bp)[:0]
	}
	if body == nil {
		return 0, mw.flush()
	}
	if inHand, ok := body.(interface {
		io.WriterTo
		Len() int
	}); ok && int64(inHand.Len()) == contentLength && inHand.Len() > cap(mw.buf)-len(mw.buf) {
		if err := mw.flush(); err != nil {
			return 0, err
		}
		return inHand.WriteTo(mw.w)
	}
	chunked := contentLength < 0
	remaining := contentLength
	for chunked || remaining > 0 {
		avail, end := buffered(body)
		if avail == 0 && !end {
			// The Read may block: nothing waits behind it.
			if err := mw.flush(); err != nil {
				return mw.sent, err
			}
		}
		// A chunk is its size in hex, CRLF, the data, CRLF; the last-chunk
		// marker may follow it.
		const chunkTail = len("\r\n0\r\n\r\n")
		room := cap(mw.buf) - len(mw.buf)
		if chunked {
			room -= hexLen(room) + 2 + chunkTail
		}
		if cap(*mw.bp) < bufpool.TierXLarge && (room < avail || avail == 0 && !end) {
			mw.grow()
			continue
		}
		if room < minRoom {
			if err := mw.flush(); err != nil {
				return mw.sent, err
			}
			continue
		}
		if avail > 0 {
			room = min(room, avail)
		}
		if !chunked {
			room = int(min(int64(room), remaining))
		}
		at := len(mw.buf)
		if chunked {
			at += hexLen(room) + 2
		}
		n, rerr := body.Read(mw.buf[at : at+room])
		if n > 0 {
			if chunked {
				mw.putChunk(at, n)
			} else {
				mw.buf = mw.buf[:at+n]
				remaining -= int64(n)
			}
			mw.pending += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// What was read before the error still goes out.
			mw.flush()
			return mw.sent, rerr
		}
	}
	if chunked {
		mw.buf = append(mw.buf, "0\r\n\r\n"...)
	}
	err := mw.flush()
	if err == nil && !chunked && remaining != 0 {
		err = fmt.Errorf("http1: body short: wrote %d of %d", mw.sent, contentLength)
	}
	return mw.sent, err
}

// putChunk frames the n data bytes read at buf[at:] as one chunk. The
// size line is written right against the data. Space for it was reserved
// by the size of the read, so when the read came up short of a digit it
// leaves a gap: with nothing assembled before it the message simply
// starts later in the scratch, otherwise the chunk moves down.
func (mw *messageWriter) putChunk(at, n int) {
	var line [18]byte
	size := append(strconv.AppendUint(line[:0], uint64(n), 16), '\r', '\n')
	from := at - len(size)
	copy(mw.buf[from:at], size)
	switch end := len(mw.buf); {
	case from == end:
	case end == mw.start:
		mw.start = from
	default:
		copy(mw.buf[end:at+n], mw.buf[from:at+n])
		at -= from - end
	}
	mw.buf = append(mw.buf[:at+n], '\r', '\n')
}

// hexLen is the number of hex digits in n.
func hexLen(n int) int {
	return max(1, (bits.Len(uint(n))+3)/4)
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
