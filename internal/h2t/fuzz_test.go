package h2t

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zdr/internal/metrics"
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

// parsed is what the push parser made of a byte string: every stream the
// peer opened with everything it carried, first as it stood when the last
// byte had been taken in and then at the hang-up; the replies the reader
// came to owe, in order (a PING's echo, a refused stream's RST: they
// follow the frame sequence); what else frames told the session; and the
// error the parser ended it for.
type parsed struct {
	Streams    []streamSeen
	Owed       []Frame
	GoAway     bool
	Window     bool
	MaxStreams uint32
	Err        string
}

// push plays the segments to a session's parser on this goroutine, each
// in as many reads as the room the parser offers makes of it, and then
// hangs up.
func push(segments ...[]byte) parsed {
	s := newSession(&scriptConn{}, false)
	var p parsed
	for _, seg := range segments {
		for len(seg) > 0 && s.rerr == nil {
			n := copy(s.nextBuf(), seg)
			seg = seg[n:]
			(*sessionReader)(s).ServeWake(n)
			p.Owed = append(p.Owed, s.owed...)
			s.owed = s.owed[:0]
		}
	}
	var open []*Stream
	for more := true; more; {
		select {
		case st := <-s.acceptCh:
			open = append(open, st)
			seen := streamSeen{ID: st.ID(), Hdr: st.Headers()}
			for n, _ := st.Buffered(); n > 0; n, _ = st.Buffered() {
				b := make([]byte, n)
				st.Read(b)
				seen.Data = append(seen.Data, b...)
			}
			p.Streams = append(p.Streams, seen)
		default:
			more = false
		}
	}
	s.mu.Lock()
	p.GoAway, p.MaxStreams = s.goAwayRecv, s.peerMaxStreams
	s.mu.Unlock()
	p.Window = s.peerWindow.Load()
	s.endRead(io.EOF)
	for i, st := range open {
		_, err := st.Read(make([]byte, 1))
		p.Streams[i].EOF = err == io.EOF
	}
	if held := s.ResidentBytes(); held != 0 {
		p.Err = "chunks still held: "
	}
	if s.rerr != nil {
		p.Err += s.rerr.Error()
	}
	return p
}

// relayed plays the segments to a session's parser as push does, with a
// consumer on every stream that keeps up: between two reads it has taken
// everything the stream has. Read is the consumer, or — sunk — a WriteTo
// into a socket of the stream's own, parked while nothing is queued, so
// that the reader writes what the next read brings. The socket's buffers
// are as large as the kernel allows, so that a write to it does not wait
// for the far end's reader. The result is the bytes each consumer got, by stream; policed says that the
// parser reset a stream for overrunning its window, which depends on how
// soon the consumer took what: such runs do not compare.
func relayed(t *testing.T, sunk bool, segments ...[]byte) (data map[uint32][]byte, policed bool) {
	reg := metrics.NewRegistry()
	s := newSession(&scriptConn{}, false, WithMetrics(NewMetrics(reg)))
	data = map[uint32][]byte{}
	type consumer struct {
		st   *Stream
		done chan []byte // what the far end of the socket read, once WriteTo has returned
	}
	var open []consumer
	catchUp := func() {
		for more := true; more; {
			select {
			case st := <-s.acceptCh:
				c := consumer{st: st}
				if sunk {
					w, far := socketPair(t)
					w.SetWriteBuffer(4 << 20)
					far.SetReadBuffer(4 << 20)
					c.done = make(chan []byte, 1)
					go func() {
						st.WriteTo(w)
						w.Close()
					}()
					go func() {
						got, _ := io.ReadAll(far)
						far.Close()
						c.done <- got
					}()
				}
				open = append(open, c)
			default:
				more = false
			}
		}
		for _, c := range open {
			if sunk {
				// Nothing but the goroutine of WriteTo is left to run: yield to
				// it, a sleep would cost more than all the rest of a read.
				for deadline := time.Now().Add(5 * time.Second); !parked(c.st); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatal("WriteTo did not catch up")
					}
				}
				continue
			}
			for n, _ := c.st.Buffered(); n > 0; n, _ = c.st.Buffered() {
				b := make([]byte, n)
				c.st.Read(b)
				data[c.st.ID()] = append(data[c.st.ID()], b...)
			}
		}
	}
	for _, seg := range segments {
		feedParser(s, seg, catchUp)
	}
	s.endRead(io.EOF)
	for _, c := range open {
		if sunk {
			data[c.st.ID()] = <-c.done
		}
	}
	return data, reg.CounterValue("h2t.window.overruns") > 0
}

// FuzzReadFrame throws bytes at both frame parsers. ReadFrame must never
// panic and never return more than a frame may hold. The session's push
// parser must make the same of a byte string however it is cut into
// reads — whole, cut in two at every point (at 256 spread over a long
// one), cut into many pieces by a seeded choice — the same streams,
// headers and data, the same replies owed, the same error: that is what
// nextBuf and advance have to hide. A consumer that is a WriteTo must get
// the bytes one that Reads gets (relayed). And a session fed the bytes by
// its own read loop must stop. The seed corpus is testdata/fuzz/FuzzReadFrame,
// one file per case, named for it.
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
		whole := push(data)
		step := len(data)/256 + 1
		for at := int(cut) % step; at <= len(data); at += step {
			if split := push(data[:at], data[at:]); !reflect.DeepEqual(whole, split) {
				t.Fatalf("cut at %d of %d bytes:\n one segment: %+v\ntwo segments: %+v", at, len(data), whole, split)
			}
		}
		rng := rand.New(rand.NewSource(int64(cut)))
		var pieces [][]byte
		for rest := data; len(rest) > 0; {
			n := 1 + rng.Intn(min(len(rest), 1+rng.Intn(64)))
			pieces, rest = append(pieces, rest[:n]), rest[n:]
		}
		if split := push(pieces...); !reflect.DeepEqual(whole, split) {
			t.Fatalf("cut into %d pieces (seed %d):\n one segment: %+v\n     pieces: %+v", len(pieces), cut, whole, split)
		}
		// A stream whose bytes are written to a socket by WriteTo, the reader
		// doing the writing whenever it finds the call parked, delivers what
		// one that is Read delivers, to the byte: a reset drops what its
		// consumer had not taken, and each consumer had taken all there was
		// before the read that brought the reset.
		read, overran := relayed(t, false, pieces...)
		written, overranToo := relayed(t, true, pieces...)
		for id, got := range written {
			if !overran && !overranToo && !bytes.Equal(got, read[id]) {
				t.Fatalf("cut into %d pieces (seed %d), stream %d:\n   Read returned: %x\nWriteTo wrote: %x", len(pieces), cut, id, read[id], got)
			}
		}
		at := int(cut) % (len(data) + 1)
		if _, ok := feed(data[:at], data[at:]); !ok {
			t.Fatalf("session fed two segments cut at %d did not stop", at)
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
