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
//
// A message that was read is one copy of its head, as a string: method,
// target, status message and every header name and value are substrings
// of it (see Header). Names are matched without regard to case, and
// written in Title-Case, sorted, as they leave.
package http1

import "strings"

// inlineFields is the room a Header has for fields inside itself: the
// heads the proxies and app servers exchange fit, Header and message
// being one allocation.
const inlineFields = 8

type field struct{ name, value string }

// Header is an ordered list of header fields, as they arrived or were
// added: names keep their case, lookups ignore it, a repeated name is
// several fields. The strings of a Header that was read are substrings of
// the message's head, which lives as long as any of them does. The zero
// Header is empty, and a Header may be copied by value: what either copy
// does afterwards the other does not see.
type Header struct {
	n      int
	inline [inlineFields]field
	// more holds fields inlineFields.. in order. A copy of the Header
	// shares it, so Add and Del replace it; only push appends in place.
	more []field
}

func (h *Header) at(i int) *field {
	if i < inlineFields {
		return &h.inline[i]
	}
	return &h.more[i-inlineFields]
}

// canonAt is byte i of the canonical form of name: letters upper-case at
// the start and after '-', lower-case elsewhere.
func canonAt(name string, i int) byte {
	c := name[i]
	switch upper := i == 0 || name[i-1] == '-'; {
	case upper && 'a' <= c && c <= 'z':
		c -= 'a' - 'A'
	case !upper && 'A' <= c && c <= 'Z':
		c += 'a' - 'A'
	}
	return c
}

// canonCmp orders names as their canonical forms sort.
func canonCmp(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if ca, cb := canonAt(a, i), canonAt(b, i); ca != cb {
			return int(ca) - int(cb)
		}
	}
	return len(a) - len(b)
}

// equalFold reports whether a and b are the same header name: equal but
// for the case of ASCII letters.
func equalFold(a, b string) bool { return len(a) == len(b) && canonCmp(a, b) == 0 }

func appendCanonical(b []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		b = append(b, canonAt(name, i))
	}
	return b
}

// CanonicalKey converts a header name to its canonical Title-Case form,
// e.g. "content-length" -> "Content-Length".
func CanonicalKey(k string) string { return string(appendCanonical(nil, k)) }

// Len returns the number of fields.
func (h *Header) Len() int { return h.n }

// At returns field i, 0 <= i < Len, in the order the fields arrived.
func (h *Header) At(i int) (name, value string) { return h.at(i).name, h.at(i).value }

// push appends a field to a Header no copy of which exists yet.
func (h *Header) push(name, value string) {
	if h.n < inlineFields {
		h.inline[h.n] = field{name, value}
	} else {
		h.more = append(h.more, field{name, value})
	}
	h.n++
}

// Add appends a field.
func (h *Header) Add(key, value string) {
	h.more = h.more[:len(h.more):len(h.more)] // the append is a copy
	h.push(key, value)
}

// Set replaces all values of key with value.
func (h *Header) Set(key, value string) {
	h.Del(key)
	h.Add(key, value)
}

// find returns the index of the first field named key at or after from,
// or -1.
func (h *Header) find(key string, from int) int {
	for i := from; i < h.n; i++ {
		if equalFold(h.at(i).name, key) {
			return i
		}
	}
	return -1
}

// Get returns the first value of key, or "".
func (h *Header) Get(key string) string {
	if i := h.find(key, 0); i >= 0 {
		return h.at(i).value
	}
	return ""
}

// Has reports whether key is present.
func (h *Header) Has(key string) bool { return h.find(key, 0) >= 0 }

// HasToken reports whether any value of key, read as a comma-separated
// list, holds token, case-insensitively.
func (h *Header) HasToken(key, token string) bool {
	for i := h.find(key, 0); i >= 0; i = h.find(key, i+1) {
		for rest, more := h.at(i).value, true; more; {
			var part string
			if part, rest, more = strings.Cut(rest, ","); strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Del removes every field named key.
func (h *Header) Del(key string) {
	if !h.Has(key) {
		return
	}
	old := *h
	*h = Header{}
	for i := 0; i < old.n; i++ {
		if f := old.at(i); !equalFold(f.name, key) {
			h.push(f.name, f.value)
		}
	}
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
