// Package http1 is a minimal HTTP/1.1 implementation built for Partial
// Post Replay (§4.3, §5.2 of the paper).
//
// The standard library's net/http deliberately hides the state PPR needs —
// exactly how much of a request body has been forwarded upstream, and
// where within a chunked transfer encoding the forwarding stopped — so the
// proxy and app server in this repository speak HTTP/1.1 through this
// package instead. It supports:
//
//   - request/response parsing and serialization,
//   - Content-Length and chunked transfer encodings (with resumable
//     encoder/decoder state),
//   - the non-standard status code 379 with status message "PartialPOST"
//     used by PPR (the code was picked from an unreserved IANA range; the
//     status message disambiguates it from other private uses — §5.2),
//   - pseudo-header echo rules for replaying HTTP/2-style requests.
package http1

import "strings"

// Header is a case-insensitive multimap of header fields. Keys are stored
// in canonical form (Title-Case per segment).
type Header map[string][]string

// CanonicalKey converts a header name to its canonical Title-Case form,
// e.g. "content-length" -> "Content-Length".
func CanonicalKey(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

// Set replaces all values of key with value.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = []string{value} }

// Add appends value to key.
func (h Header) Add(key, value string) {
	ck := CanonicalKey(key)
	h[ck] = append(h[ck], value)
}

// Get returns the first value of key, or "".
func (h Header) Get(key string) string {
	v := h[CanonicalKey(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// Has reports whether key is present.
func (h Header) Has(key string) bool {
	_, ok := h[CanonicalKey(key)]
	return ok
}

// Clone returns a deep copy of the header.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// PseudoEchoPrefix is prepended to HTTP/2+ pseudo-header names when an app
// server echoes them back in a 379 response (§5.2: "request pseudo-headers
// are echoed in the response message with a special prefix").
const PseudoEchoPrefix = "Pseudo-Echo-"

// EchoPseudoHeader converts a pseudo-header name like ":path" to its echo
// form "Pseudo-Echo-Path".
func EchoPseudoHeader(name string) string {
	return PseudoEchoPrefix + CanonicalKey(strings.TrimPrefix(name, ":"))
}

// UnechoPseudoHeader reverses EchoPseudoHeader; ok is false if name is not
// an echoed pseudo-header.
func UnechoPseudoHeader(name string) (pseudo string, ok bool) {
	ck := CanonicalKey(name)
	if !strings.HasPrefix(ck, PseudoEchoPrefix) {
		return "", false
	}
	return ":" + strings.ToLower(strings.TrimPrefix(ck, PseudoEchoPrefix)), true
}
