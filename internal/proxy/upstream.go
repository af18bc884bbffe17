package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/netx"
)

// The Origin keeps its app-server connections (DESIGN.md "Upstream
// connections"). Both limits are constants: no caller or workload needs
// another value, and an idle entry costs a descriptor here plus a parked
// goroutine and a 4 KiB reader on the app server.
const (
	// upstreamMaxIdle is how many idle connections are kept per app
	// server; a connection returned beyond that is closed.
	upstreamMaxIdle = 16
	// upstreamIdleAge is how long an idle connection stays eligible for
	// reuse. The app server never times an idle connection out, so this
	// only bounds what a quiet Origin holds on to.
	upstreamIdleAge = 30 * time.Second
)

// errUpstreamClosed is returned by checkouts after the generation
// terminated.
var errUpstreamClosed = errors.New("proxy: generation closed")

// errStaleUpstream marks an exchange that failed on a reused connection
// before the app server produced a response byte, with every request byte
// still in hand: the connection had died in the pool and the request can
// be sent again as if it had never been tried.
var errStaleUpstream = errors.New("proxy: reused app-server connection was dead")

// upstreamConn is one app-server connection together with the reader
// that frames it and the response read from it. Both stay with the
// connection for its whole life, so read-ahead survives between exchanges
// and reader and message are paid once per connection. resp belongs to
// whoever has the connection checked out, until release.
//
// An exchange starts as one Run of wr (see ServeWake): the read that finds
// the connection quiet is the liveness check of a reused connection, the
// request goes out behind it, and the response's first bytes arrive on
// the wake that follows — three crossings, none of them a peek. br reads
// those bytes and then the connection.
type upstreamConn struct {
	net.Conn
	wr   netx.WakeReader
	br   *bufio.Reader
	resp http1.Response
	addr string
	// reused is true when this checkout came off the idle list.
	reused bool
	// sent is set by an exchange once the whole request, body included,
	// has been written.
	sent   bool
	idleAt time.Time

	// head is the request head the exchange under way has yet to write,
	// streamed whether a body follows it, which its sender writes; werr is
	// why the head could not be sent. begun is what the last probe found.
	head            []byte
	streamed, begun bool
	werr            error
	rbuf            [4 << 10]byte
}

// errUnsolicited: an idle keep-alive connection has nothing to say.
var errUnsolicited = errors.New("proxy: app server sent bytes nobody asked for")

func newUpstreamConn(conn net.Conn, addr string) *upstreamConn {
	uc := &upstreamConn{Conn: conn, addr: addr}
	uc.wr.Init(conn, uc)
	uc.br = bufio.NewReaderSize(&uc.wr, len(uc.rbuf))
	return uc
}

func (uc *upstreamConn) ReadBuf() []byte { return uc.rbuf[:] }

// ServeWake is an exchange up to the response's first bytes. The first
// read finds nothing when the connection is idle and alive — a byte then
// is something the last exchange did not account for, and the peer's FIN
// ends the Run — and the head is written behind it: after the Run's
// reset of the descriptor's readiness, so the response's edge cannot be
// lost. A connection whose descriptor is hidden cannot be asked and
// passes: the stale-reuse retry covers it. Once a streamed request's head
// is out, every Run is a probe, which a read that finds nothing ends.
func (uc *upstreamConn) ServeWake(n int) (done bool) {
	switch {
	case uc.head == nil && uc.streamed:
		uc.begun = n > 0
		return true
	case uc.head == nil:
		return n > 0 // the response: br has it from here
	case n > 0:
		uc.werr = errUnsolicited
		return true
	}
	_, uc.werr = uc.Conn.Write(uc.head)
	uc.head = nil
	return uc.werr != nil || uc.streamed
}

// upstreamPool is one proxy generation's app-server connections: idle
// ones per address, most recently used last, and the ones checked out.
// It is created with the generation and dies with it; nothing in it is
// handed over by a Socket Takeover.
type upstreamPool struct {
	dialConn func(addr string) (net.Conn, error)

	mu sync.Mutex
	// retired stops returns: the generation is draining or closed.
	retired bool
	closed  bool
	idle    map[string][]*upstreamConn
	active  map[*upstreamConn]struct{}

	dials, reuses, staleRetries, discarded *metrics.Counter
	idleGauge                              *metrics.Gauge
}

func newUpstreamPool(dial func(addr string) (net.Conn, error), reg *metrics.Registry) *upstreamPool {
	return &upstreamPool{
		dialConn:     dial,
		idle:         make(map[string][]*upstreamConn),
		active:       make(map[*upstreamConn]struct{}),
		dials:        reg.Counter("origin.upstream.dials"),
		reuses:       reg.Counter("origin.upstream.reuses"),
		staleRetries: reg.Counter("origin.upstream.stale_retries"),
		discarded:    reg.Counter("origin.upstream.discarded"),
		idleGauge:    reg.Gauge("origin.upstream.idle"),
	}
}

// get checks a connection to addr out: the most recently used idle one
// that is young enough, else a fresh dial. Whether it is still alive its
// exchange finds out (upstreamConn.ServeWake).
func (up *upstreamPool) get(addr string) (*upstreamConn, error) {
	for {
		up.mu.Lock()
		list := up.idle[addr]
		if len(list) == 0 {
			up.mu.Unlock()
			return up.dial(addr)
		}
		uc := list[len(list)-1]
		list[len(list)-1] = nil
		up.idle[addr] = list[:len(list)-1]
		up.active[uc] = struct{}{}
		up.mu.Unlock()
		up.idleGauge.Dec()
		if time.Since(uc.idleAt) <= upstreamIdleAge {
			uc.reused, uc.sent = true, false
			up.reuses.Inc()
			return uc, nil
		}
		up.discarded.Inc()
		up.discard(uc)
	}
}

// dial opens a fresh connection to addr and checks it out.
func (up *upstreamPool) dial(addr string) (*upstreamConn, error) {
	conn, err := up.dialConn(addr)
	if err != nil {
		return nil, err
	}
	uc := newUpstreamConn(conn, addr)
	up.mu.Lock()
	if up.closed {
		up.mu.Unlock()
		conn.Close()
		return nil, errUpstreamClosed
	}
	up.active[uc] = struct{}{}
	up.mu.Unlock()
	up.dials.Inc()
	return uc, nil
}

// put returns a checked-out connection whose exchange ended on a message
// boundary. A retired pool, or one already holding upstreamMaxIdle
// connections to the address, closes it instead.
func (up *upstreamPool) put(uc *upstreamConn) {
	up.mu.Lock()
	delete(up.active, uc)
	retired := up.retired
	keep := !retired && len(up.idle[uc.addr]) < upstreamMaxIdle
	if keep {
		uc.idleAt = time.Now()
		up.idle[uc.addr] = append(up.idle[uc.addr], uc)
	}
	up.mu.Unlock()
	if keep {
		up.idleGauge.Inc()
		return
	}
	if !retired {
		up.discarded.Inc() // over the cap
	}
	uc.Conn.Close()
}

// discard closes a checked-out connection that must not be reused.
func (up *upstreamPool) discard(uc *upstreamConn) {
	up.mu.Lock()
	delete(up.active, uc)
	up.mu.Unlock()
	uc.Conn.Close()
}

// closeIdle closes the idle connections to addr, or to every address
// when addr is "".
func (up *upstreamPool) closeIdle(addr string) {
	var drop []*upstreamConn
	up.mu.Lock()
	for a, list := range up.idle {
		if addr == "" || a == addr {
			drop = append(drop, list...)
			delete(up.idle, a)
		}
	}
	up.mu.Unlock()
	for _, uc := range drop {
		uc.Conn.Close()
	}
	up.idleGauge.Add(-int64(len(drop)))
	up.discarded.Add(int64(len(drop)))
}

// retire is the drain start: nothing is returned from now on and what is
// idle is closed. Requests the draining generation still serves dial.
// Nil-receiver safe (the Edge has no pool).
func (up *upstreamPool) retire() {
	if up == nil {
		return
	}
	up.mu.Lock()
	up.retired = true
	up.mu.Unlock()
	up.closeIdle("")
}

// resume reverses retire after a drain-undo.
func (up *upstreamPool) resume() {
	if up == nil {
		return
	}
	up.mu.Lock()
	up.retired = up.closed
	up.mu.Unlock()
}

// close is the generation's end: idle connections go, and so do the
// checked-out ones, which fails the exchanges blocked on them — the
// forced termination at the end of the drain period.
func (up *upstreamPool) close() {
	if up == nil {
		return
	}
	up.mu.Lock()
	up.retired, up.closed = true, true
	active := make([]*upstreamConn, 0, len(up.active))
	for uc := range up.active {
		active = append(active, uc)
	}
	up.mu.Unlock()
	up.closeIdle("")
	for _, uc := range active {
		uc.Conn.Close()
	}
}

// idleCounts reports idle connections per app server for /debug/release.
func (up *upstreamPool) idleCounts() map[string]int {
	if up == nil {
		return nil
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	out := make(map[string]int, len(up.idle))
	for addr, list := range up.idle {
		if len(list) > 0 {
			out[addr] = len(list)
		}
	}
	return out
}

// release ends a checkout after a response was read. The connection goes
// back only if the exchange ended on a message boundary: request fully
// written, response relayed to the end of a delimited body with nothing
// read ahead, not a 379 hand-back, and no Connection: close — which also
// means the app server is restarting, so every idle connection to it is
// dropped now rather than discovered dead one at a time.
func (up *upstreamPool) release(uc *upstreamConn, resp *http1.Response, relayed bool) {
	closing := resp.Header.HasToken("Connection", "close")
	if closing {
		up.closeIdle(uc.addr)
	}
	if relayed && uc.sent && !closing && !http1.IsPartialPostReplay(resp) &&
		responseDelimited(resp) && uc.br.Buffered() == 0 {
		up.put(uc)
		return
	}
	up.discard(uc)
}

// responseDelimited reports whether resp's framing marks its own end and
// that end has been read: a Content-Length read to the last byte, a
// chunked body read through its terminator, or a status that carries no
// body. A response with neither header may mean read-until-close.
func responseDelimited(resp *http1.Response) bool {
	switch body := resp.Body.(type) {
	case nil:
		code := resp.StatusCode
		return resp.Header.Has("Content-Length") || code == 204 || code == 304 || code/100 == 1
	case *io.LimitedReader:
		return body.N == 0
	case *http1.ChunkedReader:
		return body.Done()
	}
	return false
}
