package http1

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// ChunkedWriter encodes a body stream with chunked transfer encoding. It
// exposes its framing state so a proxy implementing Partial Post Replay
// can report exactly where forwarding stopped (§5.2: "A proxy implementing
// PPR must remember the exact state of forwarding the body ... whether it
// is in the middle or at the beginning of a chunk").
type ChunkedWriter struct {
	w io.Writer
	// bytesWritten counts decoded body bytes emitted so far.
	bytesWritten int64
	closed       bool
	// Per-chunk scratch: the hex size header and the three-element vector
	// handed to net.Buffers live on the writer so encoding a chunk
	// allocates nothing and reaches the socket in one writev.
	hdr  [18]byte // 16 hex digits + CRLF
	vec  [3][]byte
	bufs net.Buffers
}

var crlf = []byte("\r\n")

// NewChunkedWriter wraps w.
func NewChunkedWriter(w io.Writer) *ChunkedWriter { return &ChunkedWriter{w: w} }

// Write emits p as a single chunk (header + payload + CRLF).
func (cw *ChunkedWriter) Write(p []byte) (int, error) {
	if cw.closed {
		return 0, errors.New("http1: write on closed chunked writer")
	}
	if len(p) == 0 {
		return 0, nil
	}
	hdr := strconv.AppendUint(cw.hdr[:0], uint64(len(p)), 16)
	hdr = append(hdr, '\r', '\n')
	cw.vec[0] = hdr
	cw.vec[1] = p
	cw.vec[2] = crlf
	cw.bufs = cw.vec[:]
	_, err := cw.bufs.WriteTo(cw.w)
	cw.vec[1] = nil // do not retain the caller's payload
	if err != nil {
		return 0, err
	}
	cw.bytesWritten += int64(len(p))
	return len(p), nil
}

// BytesWritten returns the number of decoded body bytes emitted.
func (cw *ChunkedWriter) BytesWritten() int64 { return cw.bytesWritten }

// Close emits the terminal zero-length chunk.
func (cw *ChunkedWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	_, err := io.WriteString(cw.w, "0\r\n\r\n")
	return err
}

// ChunkedReader decodes a chunked transfer encoding. Like ChunkedWriter it
// exposes framing state: Offset reports decoded body bytes consumed, and
// InChunk reports whether the reader stopped mid-chunk.
type ChunkedReader struct {
	br        *bufio.Reader
	remaining int64  // bytes left in the current chunk payload
	offset    int64  // total decoded bytes returned
	lineBuf   []byte // partial framing line retained across timeouts
	done      bool
	err       error
}

// NewChunkedReader wraps br.
func NewChunkedReader(br *bufio.Reader) *ChunkedReader { return &ChunkedReader{br: br} }

// Offset returns the number of decoded body bytes returned so far.
func (cr *ChunkedReader) Offset() int64 { return cr.offset }

// InChunk reports whether the decoder is positioned in the middle of a
// chunk payload.
func (cr *ChunkedReader) InChunk() bool { return cr.remaining > 0 }

// Done reports whether the terminal chunk has been consumed.
func (cr *ChunkedReader) Done() bool { return cr.done }

// errLineTooLong bounds framing lines to fence off malformed peers.
var errLineTooLong = errors.New("http1: chunk framing line too long")

// readLineResumable reads a CRLF-terminated framing line, preserving any
// partial line across timeout errors so a read interrupted by a deadline
// (the PPR drain kick) can resume without corrupting the framing state.
//
// The returned slice is valid only until the next read on cr — it aliases
// either bufio's internal buffer (the common, zero-allocation case) or
// cr.lineBuf. Callers consume it immediately.
func (cr *ChunkedReader) readLineResumable() ([]byte, error) {
	for {
		frag, err := cr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Line longer than bufio's buffer: spill and keep reading.
			cr.lineBuf = append(cr.lineBuf, frag...)
			if len(cr.lineBuf) > 64<<10 {
				return nil, errLineTooLong
			}
			continue
		}
		if err != nil {
			// Retain the partial line (timeouts resume here; terminal
			// errors make the retained bytes moot).
			cr.lineBuf = append(cr.lineBuf, frag...)
			if len(cr.lineBuf) > 64<<10 {
				return nil, errLineTooLong
			}
			return nil, err
		}
		var line []byte
		if len(cr.lineBuf) > 0 {
			line = append(cr.lineBuf, frag...)
			cr.lineBuf = cr.lineBuf[:0]
			if len(line) > 64<<10 {
				return nil, errLineTooLong
			}
		} else {
			line = frag
		}
		line = line[:len(line)-1] // strip \n
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		return line, nil
	}
}

// parseHexUint parses a bare hexadecimal chunk size (no sign, no prefix).
func parseHexUint(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		n = n<<4 | d
	}
	if n > 1<<62 {
		return 0, false
	}
	return int64(n), true
}

func (cr *ChunkedReader) beginChunk() error {
	line, err := cr.readLineResumable()
	if err != nil {
		return err
	}
	// Ignore chunk extensions.
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	n, ok := parseHexUint(line)
	if !ok {
		return fmt.Errorf("http1: malformed chunk header %q", line)
	}
	if n == 0 {
		// Terminal chunk: consume the trailer (we support only the empty
		// trailer — a bare CRLF).
		tl, err := cr.readLineResumable()
		if err != nil {
			return err
		}
		if len(tl) != 0 {
			return fmt.Errorf("http1: unsupported chunk trailer %q", tl)
		}
		cr.done = true
		return io.EOF
	}
	cr.remaining = n
	return nil
}

// isTimeout reports whether err is a resumable network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Read implements io.Reader over the decoded body. Network timeouts are
// resumable: framing state (including partial chunk-header lines) is
// preserved, so a caller using read deadlines as interruption points can
// keep decoding afterwards. All other errors are terminal.
func (cr *ChunkedReader) Read(p []byte) (int, error) {
	if cr.err != nil {
		return 0, cr.err
	}
	if cr.done {
		return 0, io.EOF
	}
	if cr.remaining == 0 {
		if err := cr.beginChunk(); err != nil {
			if err == io.EOF && cr.done {
				cr.err = err
				return 0, err
			}
			if !isTimeout(err) {
				cr.err = err
			}
			return 0, err
		}
	}
	if int64(len(p)) > cr.remaining {
		p = p[:cr.remaining]
	}
	n, err := cr.br.Read(p)
	cr.remaining -= int64(n)
	cr.offset += int64(n)
	if err != nil {
		if !isTimeout(err) {
			cr.err = err
		}
		return n, err
	}
	if cr.remaining == 0 {
		// Consume the chunk-terminating CRLF.
		if line, err := cr.readLineResumable(); err != nil {
			if !isTimeout(err) {
				cr.err = err
			}
			return n, err
		} else if len(line) != 0 {
			cr.err = fmt.Errorf("http1: chunk not terminated by CRLF, got %q", line)
			return n, cr.err
		}
	}
	return n, nil
}
