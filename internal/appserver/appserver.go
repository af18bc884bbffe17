// Package appserver implements the HHVM-style application server tier
// (§2.1) with the server side of Partial Post Replay (§4.3).
//
// Workloads are "dominated by short-lived API requests" but include
// long-lived HTTP POST uploads. The tier restarts extremely frequently
// (up to ~100 releases/week) with a very brief draining period (10–15 s),
// so the interesting behaviour is what happens to a POST whose body is
// still arriving when the restart begins:
//
//   - Without PPR the server would fail the request with a 500 (user-
//     visible disruption) or a 307 (full retry over the WAN).
//   - With PPR the server responds 379 "PartialPOST" and *echoes back the
//     partially received body* to the downstream proxy, which rebuilds
//     the original request and replays it to a healthy server. The server
//     is too resource-constrained for Socket Takeover (two parallel HHVM
//     instances don't fit in memory, §4.4), which is why hand-back to the
//     downstream proxy is the mechanism of choice at this tier.
package appserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/obs"
)

// handler produces the response for a fully received request. body is
// valid until the response has been written: a response may read from it
// (the echo does), but a handler that keeps it longer must copy it. req is
// the connection's, read into again for its next request: a handler must
// not keep it past its return, though what it takes from it — method,
// target, field values — it may keep.
type handler func(req *http1.Request, body []byte) *http1.Response

// Request bodies declared at pooledBodyMin or more are read into pooled
// buffers of bodyPoolCap, which go back once the response — the
// handler's, or the 379 that hands a partial body back — is written. A
// body that outgrows its buffer moves to the heap as any append does, up
// to maxBody: one longer is answered 413 (tooLarge). bodyPoolCap is also
// the most a Content-Length may pre-size: the peer is a trusted proxy,
// but the header is still client-originated.
//
// The pool is a free list of bodyPoolKeep buffers, made when the first
// such body arrives, and not a sync.Pool. One re-made buffer is what a
// quarter of a thousand small requests allocate, and a sync.Pool re-makes
// one after a collection about every other time: what it held moves to
// the victim cache, where a buffer in one processor's private slot is out
// of another's reach and is dropped once the rest has been taken. A spare
// is needed because a holder is sometimes slow to let go — a response's
// last write wakes its reader, the writer can lose its processor there
// for milliseconds with the buffer still in hand, and the client's next
// request arrives. The list allocates only while more than bodyPoolKeep
// bodies are in flight; an app server that has taken a large body keeps
// the four.
const (
	pooledBodyMin = 64 << 10
	bodyPoolCap   = 1 << 20
	bodyPoolKeep  = 4
	maxBody       = 64 << 20
)

var (
	bodyPool     = make(chan *[]byte, bodyPoolKeep)
	bodyPoolFill sync.Once
	errTooLarge  = errors.New("appserver: request body longer than maxBody")
)

func newBody() *[]byte {
	b := make([]byte, 0, bodyPoolCap)
	return &b
}

func getBody() *[]byte {
	bodyPoolFill.Do(func() {
		for i := 0; i < bodyPoolKeep; i++ {
			putBody(newBody())
		}
	})
	select {
	case bp := <-bodyPool:
		return bp
	default:
		return newBody()
	}
}

func putBody(bp *[]byte) {
	select {
	case bodyPool <- bp:
	default:
	}
}

// mode selects the restart behaviour for in-flight POSTs. Only ModePPR,
// the paper's, is exported; the two baselines are the package tests'.
type mode int

const (
	// ModePPR responds 379 + partial body (§4.3 option iv, the paper's).
	ModePPR mode = iota
	// modeFail500 responds 500 (§4.3 option i, baseline).
	modeFail500
	// modeRedirect307 responds 307 (§4.3 option ii, baseline).
	modeRedirect307
)

// Config tunes the server.
type Config struct {
	// Name identifies the instance in metrics and X-Served-By.
	Name string
	// Handler serves completed requests; nil installs the default: a
	// body-less GET is answered "ok <Name> <target>", anything else is
	// echoed back.
	Handler handler
	// Mode selects restart behaviour (default ModePPR).
	Mode mode
	// DrainPeriod is how long Shutdown waits for requests whose bodies
	// have already fully arrived (default 100ms in tests; the paper's
	// tier uses 10–15s).
	DrainPeriod time.Duration
	// GraceWindow caps how long an interrupted body read keeps draining
	// in-flight bytes before handing the request back (default 1s). An
	// upload that finishes inside the window is served normally.
	GraceWindow time.Duration
	// GraceSilence is how long the line must go quiet inside the grace
	// window before the partial body is considered settled (default 100ms).
	GraceSilence time.Duration
	// Trace records appserver.request spans, joining the trace carried in
	// the x-zdr-trace request header. Nil disables tracing.
	Trace *obs.Tracer
}

// Server is one app-server instance.
type Server struct {
	cfg Config
	reg *metrics.Registry

	ln net.Listener

	mu       sync.Mutex
	draining bool
	closed   bool
	conns    map[net.Conn]struct{}

	drainCh chan struct{}
	wg      sync.WaitGroup

	// Per-request and per-connection counters, resolved once.
	cRequests, cAccepted *metrics.Counter
	cStatus              *metrics.CodeCounters
}

// New creates a server. reg may be nil.
func New(cfg Config, reg *metrics.Registry) *Server {
	if cfg.Handler == nil {
		cfg.Handler = func(req *http1.Request, body []byte) *http1.Response {
			if req.Method == "GET" && len(body) == 0 {
				doc := "ok " + cfg.Name + " " + req.Target + "\n"
				return http1.NewResponse(200, strings.NewReader(doc), int64(len(doc)))
			}
			resp := http1.NewResponse(200, bytes.NewReader(body), int64(len(body)))
			resp.Header.Set("X-Echo-Method", req.Method)
			return resp
		}
	}
	if cfg.DrainPeriod <= 0 {
		cfg.DrainPeriod = 100 * time.Millisecond
	}
	if cfg.GraceWindow <= 0 {
		cfg.GraceWindow = time.Second
	}
	if cfg.GraceSilence <= 0 {
		cfg.GraceSilence = 100 * time.Millisecond
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Server{
		cfg:       cfg,
		reg:       reg,
		conns:     make(map[net.Conn]struct{}),
		drainCh:   make(chan struct{}),
		cRequests: reg.Counter("appserver.requests"),
		cAccepted: reg.Counter("appserver.conns.accepted"),
		cStatus:   reg.CodeCounters("appserver.status."),
	}
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Listen binds addr and starts accepting.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting from ln, which the server closes when it stops.
// It is Listen for a listener the caller made, such as one that wraps
// the connections it accepts.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := s.newConn(conn)
		s.mu.Lock()
		if s.draining || s.closed {
			// Draining instances accept no new connections (§2.3).
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.cAccepted.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
		}()
	}
}

// Draining reports whether the instance is in its drain phase.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown begins the restart: stop accepting, let complete requests
// finish within the drain period, and hand back in-flight POSTs per the
// configured Mode. It returns when the instance is fully down.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.drainCh)
	// Draining instances accept no new connections (§2.3), and say so at
	// the dial: a refused connect costs the proxy nothing, whereas a
	// connection accepted only to be closed has by then swallowed the
	// head of a POST body that no one can hand back.
	if s.ln != nil {
		s.ln.Close()
	}
	// Kick blocked body reads: an expired read deadline wakes them so the
	// handler can observe the drain and hand the request back. Writes are
	// unaffected, so the 379 response still goes out.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}

	// Give requests already past their body a drain window.
	time.Sleep(s.cfg.DrainPeriod)

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Handlers exit on their own: kicked reads either hand their request
	// back (379/500/307) or fail out, and completed requests finish their
	// response writes. Wait rather than hard-close so those writes land.
	s.wg.Wait()
}

// Close is an immediate, non-graceful stop (tests).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// servedConn is one accepted connection with what reads it for its whole
// life (http1.KeepAlive: a request that arrives whole costs one read, and
// one waited for holds no buffer).
type servedConn struct {
	net.Conn
	s  *Server
	ka http1.KeepAlive
}

func (s *Server) newConn(conn net.Conn) *servedConn {
	c := &servedConn{Conn: conn, s: s}
	c.ka.Init(conn, c)
	return c
}

// Close does not wait for a request being served.
func (c *servedConn) Close() error { return c.ka.Close() }

func (c *servedConn) ServeRequest(req *http1.Request, br *bufio.Reader) bool {
	c.s.cRequests.Inc()
	return c.s.serveRequest(c, br, req)
}

func (s *Server) serveConn(c *servedConn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	lastCall := false
	for {
		// The wait between requests consumes nothing, so the drain kick
		// (an expired read deadline) can interrupt it and it can be resumed.
		if err := c.ka.Serve(); lastCall || !isTimeout(err) || !s.Draining() {
			return // done, clean close, peer gone, or idle through the last call
		}
		// The drain found this keep-alive connection idle. The proxy
		// that pools it may have put a request on the wire before it
		// could learn of the drain; closing now would reset that
		// request. Hold the line for GraceSilence: a request that
		// arrives is served and told Connection: close, silence
		// closes the connection with nothing unread.
		lastCall = true
		c.SetReadDeadline(time.Now().Add(s.cfg.GraceSilence))
	}
}

// serveRequest handles one request; false means close the connection.
func (s *Server) serveRequest(conn net.Conn, br *bufio.Reader, req *http1.Request) bool {
	remote, _ := obs.ParseSpanContext(req.Header.Get(obs.TraceHeader))
	sp := s.cfg.Trace.StartSpan("appserver.request", remote)
	defer sp.End()
	sp.SetAttr("method", req.Method)
	sp.SetAttr("path", req.Target)
	var body []byte
	if cl := req.ContentLength; cl >= pooledBodyMin {
		bp := getBody()
		defer putBody(bp) // on return every path has written its response
		body = *bp
	} else if cl > 0 {
		body = make([]byte, 0, cl)
	}
	body, complete, err := s.readBody(conn, req, body, false)
	if err == errTooLarge {
		return s.tooLarge(conn, br)
	}
	if err != nil {
		s.reg.Counter("appserver.body.errors").Inc()
		sp.Fail(err)
		return false
	}
	if !complete {
		// Restart caught the request mid-body: hand it back.
		s.reg.Counter("appserver.inflight.at.restart").Inc()
		sp.SetAttr("result", "handed_back")
		return s.respondInterrupted(conn, req, body)
	}
	resp := s.cfg.Handler(req, body)
	if resp == nil {
		resp = http1.NewResponse(500, nil, 0)
	}
	resp.Header.Set("X-Served-By", s.cfg.Name)
	// A response written while draining is the last on its connection,
	// and says so: the proxy drops its idle connections to this server
	// on seeing it instead of finding them closed one request at a time.
	draining := s.Draining()
	if draining {
		resp.Header.Set("Connection", "close")
	}
	if _, err := http1.WriteResponse(conn, resp); err != nil {
		sp.Fail(err)
		return false
	}
	sp.SetAttrInt("status", resp.StatusCode)
	s.cStatus.Inc(resp.StatusCode)
	return !draining
}

// readBody reads the request body into body's spare room — the room the
// caller chose, and for a body larger than that room (chunked, or longer
// than a pooled buffer) more, grown as append grows it up to maxBody — so
// that a read takes all the connection holds and the body is copied
// nowhere else. complete=false means the drain cut the body short.
//
// No read deadline is set during normal operation: Shutdown kicks a
// blocked read by expiring the connection's read deadline, and the drain
// signal is checked between reads. Once it is up (or from the start, with
// grace) the read is a grace read: it goes on until the line goes quiet
// (GraceSilence without a byte), the body ends, or GraceWindow has passed,
// and bytes that come back with a timeout are kept. A request the restart
// caught has two: after the restart signal, to give a body that is nearly
// there the chance to finish and be served normally; and behind the 379's
// head (see handBack), where quiet means the proxy has stopped forwarding.
func (s *Server) readBody(conn net.Conn, req *http1.Request, body []byte, grace bool) (_ []byte, complete bool, err error) {
	if req.Body == nil {
		return body, true, nil
	}
	var until time.Time // the end of the grace window, once there is one
	for {
		if req.ContentLength > maxBody || len(body) > maxBody {
			return body, false, errTooLarge
		}
		if until.IsZero() && (grace || s.Draining()) {
			until = time.Now().Add(s.cfg.GraceWindow)
		}
		if !until.IsZero() {
			if !time.Now().Before(until) {
				return body, false, nil
			}
			conn.SetReadDeadline(time.Now().Add(s.cfg.GraceSilence))
		}
		if len(body) == cap(body) && int64(len(body)) != req.ContentLength {
			// (A body at its declared length reads its end into no room.)
			body = append(body, 0)[:len(body)]
		}
		n, rerr := req.Body.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		switch {
		case rerr == nil:
		case rerr == io.EOF:
			if !until.IsZero() {
				conn.SetReadDeadline(time.Time{})
			}
			return body, true, nil
		case isTimeout(rerr) && s.Draining() && (until.IsZero() || n > 0):
			// The kick, or bytes still arriving inside the grace window.
		case !until.IsZero():
			return body, false, nil // quiet, or the peer is gone: hand back what is here
		default:
			return body, false, rerr
		}
	}
}

// tooLarge answers 413 to a body past maxBody and closes the connection
// once the line is quiet, as behind a 379: a close with bytes unread
// resets it, and the reset can wipe the 413 from the proxy's queue.
func (s *Server) tooLarge(conn net.Conn, br *bufio.Reader) bool {
	resp := http1.NewResponse(413, nil, 0)
	resp.Header.Set("Connection", "close")
	s.cStatus.Inc(413)
	http1.WriteResponse(conn, resp)
	until := time.Now().Add(s.cfg.GraceWindow)
	for took := int64(1); took > 0 && time.Now().Before(until); {
		conn.SetReadDeadline(time.Now().Add(s.cfg.GraceSilence))
		took, _ = io.Copy(io.Discard, br)
	}
	return false
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handBack is the body of a 379: every byte of the request body this
// server was sent. The proxy stops forwarding when it sees the 379's head,
// not before, so whatever it wrote between this server's last read and
// that moment is still on the line — and Partial Post Replay needs the
// echo to hold every byte the proxy believes it delivered, or the replayed
// request comes out short. The echo is therefore of unknown length
// (chunked) and is produced on its first Read, which http1 makes only
// after it has put the head on the wire: that Read first takes in what
// the proxy had still been sending, until the line goes quiet.
type handBack struct {
	s       *Server
	conn    net.Conn
	req     *http1.Request
	partial []byte
	drained bool
}

func (h *handBack) Read(p []byte) (int, error) {
	if !h.drained {
		h.drained = true
		h.partial, _, _ = h.s.readBody(h.conn, h.req, h.partial, true)
	}
	if len(h.partial) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.partial)
	h.partial = h.partial[n:]
	return n, nil
}

// respondInterrupted emits the Mode-selected response for a request whose
// body was cut off by the restart. Always closes the connection after.
func (s *Server) respondInterrupted(conn net.Conn, req *http1.Request, partial []byte) bool {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var resp *http1.Response
	switch s.cfg.Mode {
	case modeFail500:
		resp = http1.NewResponse(500, nil, 0)
	case modeRedirect307:
		resp = http1.NewResponse(307, nil, 0)
		resp.Header.Set("Location", req.Target)
	default: // ModePPR
		resp = http1.NewResponse(http1.StatusPartialPostReplay, &handBack{s: s, conn: conn, req: req, partial: partial}, -1)
		// §5.2: pseudo-headers of the original request are echoed with a
		// special prefix so the proxy can rebuild the request.
		resp.Header.Set(http1.EchoPseudoHeader(":method"), req.Method)
		resp.Header.Set(http1.EchoPseudoHeader(":path"), req.Target)
		if req.ContentLength >= 0 {
			resp.Header.Set("X-Original-Content-Length", strconv.FormatInt(req.ContentLength, 10))
		}
	}
	resp.Header.Set("X-Served-By", s.cfg.Name)
	resp.Header.Set("Connection", "close")
	s.cStatus.Inc(resp.StatusCode)
	http1.WriteResponse(conn, resp)
	return false
}
