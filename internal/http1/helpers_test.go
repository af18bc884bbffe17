package http1

import (
	"strings"
)

// Declarations only this package's tests call: no non-test code uses them.

// BytesWritten returns the number of decoded body bytes emitted.
func (cw *ChunkedWriter) BytesWritten() int64 { return cw.bytesWritten }

// Offset returns the number of decoded body bytes returned so far.
func (cr *ChunkedReader) Offset() int64 { return cr.offset }

// InChunk reports whether the decoder is positioned in the middle of a
// chunk payload.
func (cr *ChunkedReader) InChunk() bool { return cr.remaining > 0 }

// UnechoPseudoHeader reverses EchoPseudoHeader; ok is false if name is not
// an echoed pseudo-header.
func UnechoPseudoHeader(name string) (pseudo string, ok bool) {
	ck := canonicalKey(name)
	if !strings.HasPrefix(ck, pseudoEchoPrefix) {
		return "", false
	}
	return ":" + strings.ToLower(strings.TrimPrefix(ck, pseudoEchoPrefix)), true
}
