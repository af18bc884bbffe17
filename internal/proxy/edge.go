package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/bufpool"
	"zdr/internal/disrupt"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// tunnelEntry tracks one Edge→Origin tunnel session.
type tunnelEntry struct {
	addr string
	sess *h2t.Session
}

// alive reports whether the session can still open streams.
func (te *tunnelEntry) alive() bool {
	select {
	case <-te.sess.Done():
		return false
	default:
	}
	return !te.sess.Draining()
}

// originSessionFor returns a live tunnel session, dialing one if needed.
// exclude skips a specific origin address (the DCR "another healthy LB"
// requirement). Sessions that died or announced GOAWAY are replaced by a
// fresh dial — which, after a Socket Takeover, transparently lands on the
// new instance because the listening socket never closed.
func (p *Proxy) originSessionFor(exclude string) (*tunnelEntry, error) {
	// With a steering policy configured, the embedded katran LB decides
	// which origin serves this request; any steering failure (policy
	// error, dead pick) falls through to the legacy path below.
	if p.steerLB != nil {
		if te, err := p.steeredSession(exclude); err == nil {
			return te, nil
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("proxy: closed")
	}
	// Prefer an existing live session.
	for addr, te := range p.tunnels {
		if addr == exclude {
			continue
		}
		if te.alive() {
			p.mu.Unlock()
			return te, nil
		}
		delete(p.tunnels, addr)
	}
	// Round-robin over configured origins.
	candidates := make([]string, 0, len(p.cfg.Origins))
	for i := 0; i < len(p.cfg.Origins); i++ {
		addr := p.cfg.Origins[(p.rrOrigin+i)%len(p.cfg.Origins)]
		if addr != exclude {
			candidates = append(candidates, addr)
		}
	}
	p.rrOrigin++
	p.mu.Unlock()

	var lastErr error
	for _, addr := range candidates {
		te, err := p.tunnelTo(addr)
		if err != nil {
			lastErr = err
			continue
		}
		return te, nil
	}
	if lastErr == nil {
		lastErr = errors.New("proxy: no origin available")
	}
	return nil, lastErr
}

// steeredSession resolves one request's origin through the steering
// policy. Each request gets a fresh flow id, so the policy is free to
// rebalance request-by-request (sessions to each origin are still
// shared — steering picks the origin, not the connection).
func (p *Proxy) steeredSession(exclude string) (*tunnelEntry, error) {
	b, err := p.steerLB.Steer(p.steerSeq.Add(1))
	if err != nil {
		return nil, err
	}
	if b.Addr == exclude {
		return nil, errors.New("proxy: steered to excluded origin")
	}
	p.reg.Counter("edge.steer.picks").Inc()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("proxy: closed")
	}
	if te, ok := p.tunnels[b.Addr]; ok {
		if te.alive() {
			p.mu.Unlock()
			return te, nil
		}
		delete(p.tunnels, b.Addr)
	}
	p.mu.Unlock()
	return p.tunnelTo(b.Addr)
}

// tunnelTo dials a tunnel session to addr and registers it, keeping an
// existing live session if a concurrent dial raced us there.
func (p *Proxy) tunnelTo(addr string) (*tunnelEntry, error) {
	conn, err := p.dialUpstream(addr)
	if err != nil {
		return nil, err
	}
	te := &tunnelEntry{addr: addr, sess: h2t.NewSession(conn, true, h2t.WithMetrics(p.tunnelMetrics))}
	p.mu.Lock()
	if old, ok := p.tunnels[addr]; ok && old.alive() {
		// Raced with another dial; keep the existing one.
		p.mu.Unlock()
		te.sess.Close()
		return old, nil
	}
	p.tunnels[addr] = te
	p.mu.Unlock()
	p.reg.Counter("edge.tunnel.dials").Inc()
	return te, nil
}

// handleEdgeHTTPConn terminates a user HTTP connection (§2.2 step 1-2):
// cacheable content is answered directly (Direct Server Return), the rest
// is forwarded over the tunnel to an Origin.
func (p *Proxy) handleEdgeHTTPConn(conn net.Conn) {
	wc := &webConn{Conn: conn, p: p}
	wc.ka.Init(conn, wc)
	defer p.untrackWebConn(wc)
	if p.trackWebConn(wc) {
		wc.ka.Serve()
	}
}

// webConn is a web client connection served by its own goroutine, its
// requests read by ka (http1.KeepAlive: one that arrives whole costs one
// read, and one waited for holds no buffer). busy is true from a parsed
// request head to the end of its response, which is what tells terminate
// a disruption from the close of an idle keep-alive connection.
type webConn struct {
	net.Conn
	p    *Proxy
	busy atomic.Bool
	ka   http1.KeepAlive
}

// Close does not wait for a request being served.
func (wc *webConn) Close() error { return wc.ka.Close() }

func (wc *webConn) ServeRequest(req *http1.Request, _ *bufio.Reader) bool {
	wc.p.cRequests.Inc()
	wc.busy.Store(true)
	ok := wc.p.serveEdgeRequest(wc.Conn, req)
	wc.busy.Store(false)
	return ok
}

// trackWebConn registers wc for terminate to close; false means the
// generation already terminated.
func (p *Proxy) trackWebConn(wc *webConn) bool {
	p.webConnsMu.Lock()
	p.webConns[wc] = struct{}{}
	p.webConnsMu.Unlock()
	// terminate sets closed before it collects webConns, so a connection
	// it missed sees closed here.
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	return !closed
}

// untrackWebConn ends wc's handler: the connection is forgotten and closed.
func (p *Proxy) untrackWebConn(wc *webConn) {
	p.webConnsMu.Lock()
	delete(p.webConns, wc)
	p.webConnsMu.Unlock()
	wc.Close()
}

// appendTrace appends the trace context a stream opened under sp carries
// to the Origin: sp's own, or with tracing off here the one that came in,
// so that the spans beyond this hop still join the caller's trace.
func appendTrace(hdr h2t.Fields, sp *obs.Span, incoming string) h2t.Fields {
	if own := sp.Context().String(); own != "" {
		incoming = own
	}
	if incoming == "" {
		return hdr
	}
	return append(hdr, h2t.Field{Name: obs.TraceHeader, Value: incoming})
}

// serveEdgeRequest serves one request of conn and reports whether it can
// take another. req is the connection's, read into again once this returns:
// nothing keeps it or its Body longer; values taken from it may be kept.
func (p *Proxy) serveEdgeRequest(conn net.Conn, req *http1.Request) bool {
	t0 := time.Now()
	p.gRIF.Inc()
	defer p.gRIF.Dec()
	defer func() { p.latHTTP.Observe(time.Since(t0).Seconds()) }()
	// Join (or start) the request trace: a client-supplied x-zdr-trace
	// makes this span a remote child; the context is forwarded over the
	// tunnel either way so the Origin and app-server spans stitch into
	// one trace.
	incoming := req.Header.Get(obs.TraceHeader)
	remote, _ := obs.ParseSpanContext(incoming)
	sp := p.cfg.Trace.StartSpan("edge.http", remote)
	sp.SetAttr("method", req.Method)
	sp.SetAttr("path", req.Target)
	defer sp.End()

	// Direct Server Return for cached content.
	if body, ok := p.cfg.StaticContent[req.Target]; ok && req.Method == "GET" {
		p.cDSR.Inc()
		sp.SetAttr("dsr", "hit")
		resp := http1.NewResponse(200, bytes.NewReader(body), int64(len(body)))
		resp.Header.Set("X-Cache", "HIT")
		resp.Header.Set("Via", p.cfg.Name)
		_, err := http1.WriteResponse(conn, resp)
		return err == nil
	}

	var room [4]h2t.Field
	hdr := append(room[:0], h2t.Field{Name: ":method", Value: req.Method}, h2t.Field{Name: ":path", Value: req.Target},
		h2t.Field{Name: "content-length", Value: strconv.FormatInt(req.ContentLength, 10)})
	hdr = appendTrace(hdr, sp, incoming)
	// A request body that arrived whole with its head (the small POST)
	// rides in the same write as the stream's HEADERS, END_STREAM on its
	// last frame; any other body is pumped behind them as it arrives.
	var body []byte
	streamed := req.Body != nil
	if n := req.ContentLength; n > 0 && int64(http1.Buffered(req.Body)) >= n {
		bp := bufpool.Get(int(n))
		defer bufpool.Put(bp)
		body = (*bp)[:n]
		if _, err := io.ReadFull(req.Body, body); err != nil {
			return false
		}
		streamed = false
	}
	// A session can announce GOAWAY (its Origin started draining) between
	// our pick and the open; retry once on a fresh session rather than
	// failing the user request — the race is routine during releases.
	var st *h2t.Stream
	tunnelT0 := time.Now()
	for attempt := 0; attempt < 2; attempt++ {
		te, err := p.originSessionFor("")
		if err != nil {
			p.reg.Counter("edge.http.errors.no_origin").Inc()
			p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPWeb, "edge:no-origin", err.Error())
			sp.Fail(err)
			http1.WriteResponse(conn, http1.NewResponse(503, nil, 0))
			return false
		}
		st, err = te.sess.OpenStreamWith(hdr, body, !streamed)
		if err == nil {
			break
		}
		st = nil
		if !errors.Is(err, h2t.ErrGoAway) {
			break
		}
		// The session announced GOAWAY between pick and open — routine
		// during a release; the retry absorbs it.
		p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPWeb, "", "goaway between pick and open")
	}
	if st == nil {
		p.reg.Counter("edge.http.errors.open_stream").Inc()
		p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPWeb, "edge:open-stream", "")
		sp.Fail(errors.New("proxy: open stream failed"))
		http1.WriteResponse(conn, http1.NewResponse(502, nil, 0))
		return false
	}

	// Pump the request body upstream while watching for the response.
	// netx.Relay keeps this on the pooled-copy path (the stream side is
	// h2t-framed) while making the selection explicit and accounted.
	// The Origin may answer without taking the whole body (a 500 once its
	// attempts are spent, an app server's early reply) and resets the
	// stream behind that answer: the pump, possibly parked on the stream's
	// window, ends there, and what the client still sends is read and
	// dropped so that the connection is fit for its next request.
	if streamed {
		done := make(chan error, 1)
		go func() {
			_, err := netx.Relay(st, req.Body)
			switch {
			case err == nil:
				err = st.CloseWrite()
			case errors.Is(err, h2t.ErrStreamClosed) || errors.Is(err, h2t.ErrStreamReset):
				_, err = io.Copy(io.Discard, req.Body)
			}
			done <- err
		}()
		defer func() { <-done }()
	}

	respHdr, err := st.RecvHeaders(p.cfg.UpstreamResponseTimeout)
	p.latTunnel.Observe(time.Since(tunnelT0).Seconds())
	if err != nil {
		// The Origin said nothing in time (504), or the stream or its
		// session ended first (502).
		kind, code := disrupt.KindReset, 502
		if errors.Is(err, os.ErrDeadlineExceeded) {
			kind, code = disrupt.KindTimeout, 504
		}
		p.reg.Counter("edge.http.errors.upstream").Inc()
		p.cfg.Ledger.Record(kind, 0, VIPWeb, "edge:upstream", err.Error())
		sp.Fail(err)
		st.Reset()
		http1.WriteResponse(conn, http1.NewResponse(code, nil, 0))
		return false
	}
	code, _ := strconv.Atoi(respHdr.Get("status"))
	if code == 0 {
		code = 502
	}
	sp.SetAttrInt("status", code)
	p.cStatus.Inc(code)

	// Every field the app server sent goes on to the client, a repeated
	// name as often as it came and in that order.
	resp := http1.NewResponse(code, st, -1)
	for _, f := range respHdr {
		switch f.Name {
		case "status":
		case "status-message":
			resp.StatusMessage = f.Value
		default:
			resp.Header.Add(f.Name, f.Value)
		}
	}
	resp.Header.Set("Via", p.cfg.Name)
	if _, err := http1.WriteResponse(conn, resp); err != nil {
		st.Reset()
		return false
	}
	return true
}

// mqttRelay is the Edge-side state for one end-user MQTT connection: the
// terminated client conn plus the current tunnel stream carrying it. The
// stream is swapped atomically during Downstream Connection Reuse.
type mqttRelay struct {
	p          *Proxy
	userID     string
	clientConn net.Conn
	originAddr string

	mu     sync.Mutex
	stream *h2t.Stream
	closed bool
	// swapped, when not nil, is closed by the next swapStream: a writer
	// whose stream died under it is waiting for the splice.
	swapped chan struct{}
	// dcr, when not nil, is closed when the re_connect in flight has
	// spliced the relay onto a new stream or given up.
	dcr chan struct{}
}

func (r *mqttRelay) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	st := r.stream
	r.mu.Unlock()
	// The stream first: the upstream pump writes to it under the client
	// connection's read lock, and the Close would wait for a write parked
	// on its window.
	if st != nil {
		st.Reset()
	}
	r.clientConn.Close()
	r.p.mu.Lock()
	delete(r.p.mqttConns, r)
	r.p.mu.Unlock()
	r.p.reg.Gauge("edge.mqtt.conns").Dec()
}

// forwardUpstream writes client bytes to the relay's current stream,
// retrying once on the (possibly spliced) stream when a DCR swap races
// the write. Returns false when the relay is finished.
func (r *mqttRelay) forwardUpstream(b []byte) bool {
	st := r.currentStream()
	if st == nil {
		return false
	}
	if _, werr := st.Write(b); werr != nil {
		// Stream died mid-write; a splice may be in progress.
		st2 := r.streamAfter(st, spliceWait)
		if st2 == nil || st2 == st {
			return false
		}
		if _, werr := st2.Write(b); werr != nil {
			return false
		}
	}
	return true
}

// spliceWait is how long a write that found its stream dead waits for a
// DCR splice to give it another.
const spliceWait = 50 * time.Millisecond

// streamAfter returns the stream that has replaced old, waiting up to
// wait for swapStream to install one if none has yet; old itself if none
// does.
func (r *mqttRelay) streamAfter(old *h2t.Stream, wait time.Duration) *h2t.Stream {
	r.mu.Lock()
	st := r.stream
	var swapped chan struct{}
	if st == old && !r.closed {
		if r.swapped == nil {
			r.swapped = make(chan struct{})
		}
		swapped = r.swapped
	}
	r.mu.Unlock()
	if swapped == nil {
		return st
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-swapped:
	case <-timer.C:
	}
	return r.currentStream()
}

// currentStream returns the active stream.
func (r *mqttRelay) currentStream() *h2t.Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stream
}

// swapStream installs a new stream (DCR splice), returning the old one.
// A relay that has been closed meanwhile takes no stream: ok is false and
// st is the caller's to reset.
func (r *mqttRelay) swapStream(st *h2t.Stream) (old *h2t.Stream, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false
	}
	old = r.stream
	r.stream = st
	if r.swapped != nil {
		close(r.swapped)
		r.swapped = nil
	}
	return old, true
}

// handleEdgeMQTTConn terminates a user MQTT connection: it peeks the
// CONNECT to learn the user-id (§4.2: "Each end-user has a globally unique
// ID used to route the messages"), opens a tunnel stream to an Origin, and
// relays bytes both ways. On reconnect_solicitation it performs the DCR
// re_connect through another Origin and splices the streams.
func (p *Proxy) handleEdgeMQTTConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	connectPkt, err := mqtt.Decode(conn)
	if err != nil || connectPkt.Type != mqtt.CONNECT {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	userID := connectPkt.ClientID

	// Clients may carry a trace context in CONNECT properties; it rides
	// the tunnel stream headers so the Origin relay joins the same trace.
	remote, _ := obs.ParseSpanContext(connectPkt.Properties[obs.TraceHeader])
	sp := p.cfg.Trace.StartSpan("edge.mqtt.connect", remote)
	sp.SetAttr("user-id", userID)
	defer sp.End()

	te, err := p.originSessionFor("")
	if err != nil {
		sp.Fail(err)
		conn.Close()
		return
	}
	streamHdr := h2t.Fields{{Name: "proto", Value: "mqtt"}, {Name: "user-id", Value: userID}}
	st, err := te.sess.OpenStreamWith(appendTrace(streamHdr, sp, connectPkt.Properties[obs.TraceHeader]), nil, false)
	if err != nil {
		sp.Fail(err)
		conn.Close()
		return
	}
	// Replay the CONNECT into the tunnel so the broker sees it verbatim.
	var connectBuf bytes.Buffer
	mqtt.Encode(&connectBuf, connectPkt)
	if _, err := st.Write(connectBuf.Bytes()); err != nil {
		st.Reset()
		conn.Close()
		return
	}

	relay := &mqttRelay{p: p, userID: userID, clientConn: conn, originAddr: te.addr, stream: st}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		relay.clientConn.Close()
		st.Reset()
		return
	}
	p.mqttConns[relay] = struct{}{}
	p.mu.Unlock()
	p.reg.Counter("edge.mqtt.accepted").Inc()
	p.reg.Gauge("edge.mqtt.conns").Inc()
	relay.watch(st)

	// Upstream pump: client -> current stream.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		var wr netx.WakeReader
		wr.Init(conn, &netx.Pump{Forward: relay.forwardUpstream})
		wr.ConfirmWaits()
		wr.Run()
		relay.close()
	}()

	// Downstream pump: current stream -> client.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.runMQTTDownstream(relay)
	}()
}

// runMQTTDownstream writes the relay's streams to the client, one
// generation after another: a generation's WriteTo has returned — until
// then it and its session's reader write the user's connection — before
// the next starts, so two generations never interleave bytes there.
func (p *Proxy) runMQTTDownstream(relay *mqttRelay) {
	defer relay.close()
	st := relay.currentStream()
	for {
		var sink *h2t.SinkError
		if _, err := st.WriteTo(relay.clientConn); errors.As(err, &sink) {
			return
		}
		// The splice itself resets the old stream, and a draining Origin
		// may drop it first: either way a re_connect in flight has the
		// last word.
		relay.mu.Lock()
		dcr := relay.dcr
		relay.mu.Unlock()
		if dcr != nil {
			<-dcr
		}
		if next := relay.currentStream(); next != st {
			st = next
			continue
		}
		// Stream ended without a successful splice: the user is disrupted
		// (the woutDCR baseline measures exactly this).
		p.reg.Counter("edge.mqtt.stream_lost").Inc()
		p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPMQTT, "dcr:stream-lost", relay.userID)
		return
	}
}

// watch has the session reader start the DCR re_connect for a reconnect
// solicitation on st, unless one is in flight or st is no longer the
// relay's stream. The transaction runs on a goroutine that exists only
// while it does, beside the downstream pump and not in it: the old stream
// is the user's path until the broker has moved the session, and what
// arrives on it meanwhile is the user's to receive. A splice has the new
// stream watched in turn.
func (r *mqttRelay) watch(st *h2t.Stream) {
	st.OnControl(func(c h2t.Control) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if c.Type != h2t.FrameReconnectSolicitation || r.closed || r.stream != st || r.dcr != nil {
			return
		}
		r.p.reg.Counter("edge.mqtt.solicitations").Inc()
		// Payload: "<user-id>\n<trace-context>"; older senders sent the
		// bare user-id, so a missing second line just means an untraced
		// drain.
		peerTrace := ""
		if i := bytes.IndexByte(c.Payload, '\n'); i >= 0 {
			peerTrace = string(c.Payload[i+1:])
		}
		dcr := make(chan struct{})
		r.dcr = dcr
		// An open relay's pumps hold p.wg above zero until they close it.
		r.p.wg.Add(1)
		go func() {
			defer r.p.wg.Done()
			spliced := r.p.reconnectThroughAnotherOrigin(r, peerTrace)
			r.mu.Lock()
			r.dcr = nil
			next := r.stream
			r.mu.Unlock()
			close(dcr)
			if spliced {
				r.watch(next)
			}
		}()
	})
}

// dcrAckTimeout bounds how long a DCR re_connect waits for the broker's
// connect_ack / connect_refuse before the relay gives up (§4.2).
const dcrAckTimeout = 5 * time.Second

// reconnectThroughAnotherOrigin performs the §4.2 DCR transaction:
// re_connect (with user-id) via a different healthy Origin; on connect_ack
// splice the relay onto the new stream; on connect_refuse give up. The
// dcr.reconnect span joins the draining Origin's trace via the context
// carried in the solicitation payload.
func (p *Proxy) reconnectThroughAnotherOrigin(relay *mqttRelay, peerTrace string) bool {
	remote, _ := obs.ParseSpanContext(peerTrace)
	sp := p.cfg.Trace.StartSpan("dcr.reconnect", remote)
	sp.SetAttr("user-id", relay.userID)
	defer sp.End()
	te, err := p.originSessionFor(relay.originAddr)
	if err != nil {
		// Fall back to any origin (the restarting one's new instance
		// also works — it is a different, healthy process).
		te, err = p.originSessionFor("")
		if err != nil {
			p.reg.Counter("edge.mqtt.reconnect.failed").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPMQTT, "", "re_connect: no origin")
			sp.Fail(err)
			return false
		}
	}
	streamHdr := h2t.Fields{{Name: "proto", Value: "mqtt-resume"}, {Name: "user-id", Value: relay.userID}}
	st, err := te.sess.OpenStreamWith(appendTrace(streamHdr, sp, peerTrace), nil, false)
	if err != nil {
		p.reg.Counter("edge.mqtt.reconnect.failed").Inc()
		p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPMQTT, "", "re_connect: open stream failed")
		sp.Fail(err)
		return false
	}
	ackTimer := time.NewTimer(dcrAckTimeout)
	defer ackTimer.Stop()
	select {
	case c := <-st.Controls():
		switch c.Type {
		case h2t.FrameConnectAck:
			old, ok := relay.swapStream(st)
			if !ok {
				// The user hung up while the re_connect ran.
				st.Reset()
				sp.Fail(errors.New("proxy: relay closed during re_connect"))
				return false
			}
			if old != nil {
				old.Reset()
			}
			relay.originAddr = te.addr
			p.reg.Counter("edge.mqtt.reconnect.ack").Inc()
			// The DCR splice: the user's connection survived its Origin's
			// restart by re-attaching through another path.
			p.cfg.Ledger.Record(disrupt.KindReattach, 0, VIPMQTT, "", relay.userID)
			sp.SetAttr("result", "ack")
			return true
		default:
			p.reg.Counter("edge.mqtt.reconnect.refused").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPMQTT, "", "re_connect refused")
			sp.Fail(errors.New("proxy: re_connect refused"))
			st.Reset()
			return false
		}
	case <-ackTimer.C:
		p.reg.Counter("edge.mqtt.reconnect.timeout").Inc()
		p.cfg.Ledger.Record(disrupt.KindTimeout, 0, VIPMQTT, "dcr:reconnect-timeout", relay.userID)
		sp.Fail(errors.New("proxy: connect_ack timeout"))
		st.Reset()
		return false
	}
}

// MQTTConnCount returns the number of relayed MQTT connections.
func (p *Proxy) MQTTConnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.mqttConns)
}
