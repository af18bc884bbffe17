package h2t

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// streamSeen is what a session made of one stream its peer opened.
type streamSeen struct {
	ID   uint32
	Hdr  map[string]string
	Data []byte
	EOF  bool // the data ended with the peer's END_STREAM, not an error
}

// scriptConn is a transport that delivers a fixed script of segments, one
// per Read, then reports a hang-up; what the session writes is dropped.
// Only the methods a Session calls are implemented.
type scriptConn struct {
	net.Conn
	segments [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.segments) > 0 && len(c.segments[0]) == 0 {
		c.segments = c.segments[1:]
	}
	if len(c.segments) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segments[0])
	c.segments[0] = c.segments[0][n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptConn) Close() error                { return nil }

// feed plays the segments to a fresh server session and returns the
// streams the session accepted with everything they carried. ok is false
// if the session did not stop at the hang-up.
func feed(segments ...[]byte) (seen []streamSeen, ok bool) {
	s := NewSession(&scriptConn{segments: segments}, false)
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		return nil, false
	}
	for {
		st, err := s.Accept()
		if err != nil {
			return seen, true
		}
		data, err := io.ReadAll(st)
		seen = append(seen, streamSeen{st.ID(), st.Headers(), data, err == nil})
	}
}

// FuzzReadFrame throws bytes at both frame parsers. ReadFrame must never
// panic and never return more than a frame may hold; a session fed the
// same bytes must stop, and must make the same streams, headers and data
// of them however the bytes are cut into reads — one segment, or two cut
// at any point, which is what its read buffer has to hide. The seed
// corpus is testdata/fuzz/FuzzReadFrame, one file per case, named for it.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				break
			}
			if len(fr.Payload) > maxFramePayload {
				t.Fatalf("ReadFrame returned a %d-byte payload", len(fr.Payload))
			}
		}
		whole, ok := feed(data)
		if !ok {
			t.Fatal("session fed one segment did not stop")
		}
		at := int(cut) % (len(data) + 1)
		split, ok := feed(data[:at], data[at:])
		if !ok {
			t.Fatalf("session fed two segments cut at %d did not stop", at)
		}
		if !reflect.DeepEqual(whole, split) {
			t.Fatalf("cut at %d of %d bytes:\n one segment: %+v\ntwo segments: %+v", at, len(data), whole, split)
		}
	})
}

// FuzzFields throws bytes at the header-block decoder. It must never
// panic; it and the map-typed DecodeHeaders must accept and refuse the
// same blocks and agree on what an accepted one says (a map keeps the
// last of a repeated name); and since a block has one encoding, an
// accepted block encodes back to the bytes it came from. The seed corpus
// is testdata/fuzz/FuzzFields, one file per case, named for it.
func FuzzFields(f *testing.F) {
	f.Fuzz(func(t *testing.T, block []byte) {
		var room [fieldsRoom]Field
		fields, err := decodeFields(room[:0], block)
		asMap, mapErr := DecodeHeaders(block)
		if (err == nil) != (mapErr == nil) {
			t.Fatalf("decodeFields: %v, DecodeHeaders: %v", err, mapErr)
		}
		if err != nil {
			return
		}
		want := map[string]string{}
		for _, f := range fields {
			want[f.Name] = f.Value
		}
		if !reflect.DeepEqual(asMap, want) {
			t.Fatalf("fields %v, map %v", fields, asMap)
		}
		if size, err := fieldsSize(fields); err != nil || size != len(block) {
			t.Fatalf("fieldsSize of a %d-byte block = %d, %v", len(block), size, err)
		}
		if again := appendFields(nil, fields); !bytes.Equal(again, block) {
			t.Fatalf("block %q encodes back as %q", block, again)
		}
	})
}
