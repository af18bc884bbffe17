package http1

import (
	"bufio"
	"net"

	"zdr/internal/bufpool"
	"zdr/internal/netx"
)

// RequestHandler serves the requests of a KeepAlive.
type RequestHandler interface {
	// ServeRequest serves req, whose body, if it has one, reads from br,
	// and reports whether the connection can take another request. req is
	// the connection's, read into again once this returns.
	ServeRequest(req *Request, br *bufio.Reader) bool
}

// A KeepAlive reads the server's side of a keep-alive connection: one
// request at a time, each handed to a RequestHandler. Between requests it
// waits in a netx.WakeReader, and a request that a wake brings whole — no
// body, or a body that came with its head — is read and served inside
// that wake, at one read of the connection. Any other request (a head in
// pieces, a body still arriving) ends the wake with its bytes in br and
// is read the blocking way, through br; then the wait resumes.
//
// The reader and the room a wake's bytes land in are pooled: taken for a
// wake, and given back when the wake leaves nothing buffered, so that a
// connection waiting for its next request holds neither.
type KeepAlive struct {
	wr   netx.WakeReader
	br   *bufio.Reader // nil, as rbuf, while nothing is buffered
	rbuf *[]byte
	h    RequestHandler
	// HTTP/1.1 has one request at a time on a connection: this is it.
	req Request
	// parsed: a wake left req's head parsed and its body to be read.
	// last: a wake served the connection's last request.
	parsed, last bool
}

// Init makes k the reader of conn.
func (k *KeepAlive) Init(conn net.Conn, h RequestHandler) {
	*k = KeepAlive{h: h}
	k.wr.Init(conn, (*keepAliveReader)(k))
}

// Serve serves requests until the connection is done with, which is nil
// — the handler said so, or a request could not be read — or the wait for
// the next request fails: io.EOF at the peer's close, else the error of
// the connection's Read. After a timeout it can be called again.
func (k *KeepAlive) Serve() error {
	defer k.release()
	for !k.last {
		if err := k.wr.Run(); err != nil {
			return err
		}
		// The wake left a request, and whatever br holds behind it, to be
		// read the blocking way.
		for more := !k.last; more; more = k.br.Buffered() > 0 {
			if !k.parsed && ReadRequestInto(k.br, &k.req) != nil {
				return nil
			}
			k.parsed = false
			if !k.h.ServeRequest(&k.req, k.br) {
				return nil
			}
		}
	}
	return nil
}

// Close closes the connection without waiting for a request that is being
// served in a wake (netx.WakeReader.Close).
func (k *KeepAlive) Close() error { return k.wr.Close() }

// release gives the reader and the room back. Nothing of them is left to
// read: req's strings are a copy of its head, and its body has been read.
func (k *KeepAlive) release() {
	if k.br != nil {
		bufpool.PutReader(k.br)
		bufpool.Put(k.rbuf)
		k.br, k.rbuf = nil, nil
	}
}

// keepAliveReader is a KeepAlive as its WakeReader sees it.
type keepAliveReader KeepAlive

func (r *keepAliveReader) ReadBuf() []byte {
	k := (*KeepAlive)(r)
	if k.br == nil {
		k.br, k.rbuf = bufpool.GetReader(&k.wr), bufpool.Get(bufpool.TierSmall)
	}
	return *k.rbuf
}

func (r *keepAliveReader) ServeWake(n int) (done bool) {
	k := (*KeepAlive)(r)
	for n > 0 && HeadBuffered(k.br) {
		if ReadRequestInto(k.br, &k.req) != nil {
			k.last = true
			return true
		}
		if k.req.Body != nil && (k.req.ContentLength < 0 || int64(k.br.Buffered()) < k.req.ContentLength) {
			k.parsed = true
			return true
		}
		if !k.h.ServeRequest(&k.req, k.br) {
			k.last = true
			return true
		}
		if k.br.Buffered() == 0 {
			break
		}
	}
	if n > 0 && k.br.Buffered() > 0 {
		return true // the bytes of a head that is not all there yet
	}
	k.release()
	return false
}
