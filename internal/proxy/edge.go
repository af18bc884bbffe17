package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// alive reports whether an Edge→Origin tunnel session can still open
// streams.
func alive(sess *h2t.Session) bool {
	select {
	case <-sess.Done():
		return false
	default:
	}
	return !sess.Draining()
}

// openStream opens a stream toward an Origin for a user of vip, with the
// head hdr and body, END_STREAM on its last frame when end. The head
// carries the trace context of sp or, untraced here, incoming. A session
// can announce GOAWAY (its Origin started draining) between the pick and
// the open, which is routine during a release: it costs one more pick.
// It returns the Origin's address, or the stage it failed at.
func (p *Proxy) openStream(vip, exclude string, sp *obs.Span, incoming string, hdr h2t.Fields, body []byte, end bool) (*h2t.Stream, string, *stage, error) {
	if own := sp.Context().String(); own != "" {
		incoming = own
	}
	if incoming != "" {
		hdr = append(hdr, h2t.Field{Name: obs.TraceHeader, Value: incoming})
	}
	for retried := false; ; retried = true {
		sess, addr, err := p.originSessionFor(exclude)
		if err != nil {
			return nil, "", stageNoOrigin, err
		}
		st, err := sess.OpenStreamWith(hdr, body, end)
		if err == nil {
			return st, addr, nil, nil
		}
		if retried || !errors.Is(err, h2t.ErrGoAway) {
			return nil, "", stageOpenStream, err
		}
		p.cfg.Ledger.Record(disrupt.KindRetry, 0, vip, "", "goaway between pick and open")
	}
}

// originSessionFor returns a live tunnel session to an origin other than
// exclude (the DCR "another healthy LB" requirement), or to any when no
// other answers: the restarting one's new instance is a healthy process
// too. It dials one if needed. With a steering policy configured, the
// embedded katran LB picks the origin first: a fresh flow id per request
// leaves the policy free to rebalance request by request, while sessions
// to each origin are still shared. Without a pick, or once the pick fails
// to dial, any live session will do, and else the origins are dialed in
// round-robin order. Sessions that died or announced GOAWAY are replaced
// by a fresh dial — which, after a Socket Takeover, transparently lands
// on the new instance because the listening socket never closed. It
// returns the session and its origin's address.
func (p *Proxy) originSessionFor(exclude string) (*h2t.Session, string, error) {
	pick := ""
	if p.steerLB != nil {
		if b, err := p.steerLB.Steer(p.steerSeq.Add(1)); err == nil && b.Addr != exclude {
			p.reg.Counter("edge.steer.picks").Inc()
			pick = b.Addr
		}
	}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, "", errors.New("proxy: closed")
		}
		for addr, sess := range p.tunnels {
			if !alive(sess) {
				delete(p.tunnels, addr)
			} else if addr != exclude && (pick == "" || addr == pick) {
				p.mu.Unlock()
				return sess, addr, nil
			}
		}
		candidates := []string{pick}
		if pick == "" {
			candidates = candidates[:0]
			for i := range p.cfg.Origins {
				if addr := p.cfg.Origins[(p.rrOrigin+i)%len(p.cfg.Origins)]; addr != exclude {
					candidates = append(candidates, addr)
				}
			}
			p.rrOrigin++
		}
		p.mu.Unlock()
		err := errors.New("proxy: no origin available")
		for _, addr := range candidates {
			var sess *h2t.Session
			if sess, err = p.tunnelTo(addr); err == nil {
				return sess, addr, nil
			}
		}
		switch {
		case pick != "":
			pick = ""
		case exclude != "":
			exclude = ""
		default:
			return nil, "", err
		}
	}
}

// tunnelTo dials a tunnel session to addr and registers it, keeping an
// existing live session if a concurrent dial raced us there.
func (p *Proxy) tunnelTo(addr string) (*h2t.Session, error) {
	conn, err := p.dialUpstream(addr)
	if err != nil {
		return nil, err
	}
	sess := h2t.NewSession(conn, true, h2t.WithMetrics(p.tunnelMetrics))
	p.mu.Lock()
	if old, ok := p.tunnels[addr]; ok && alive(old) {
		// Raced with another dial; keep the existing one.
		p.mu.Unlock()
		sess.Close()
		return old, nil
	}
	p.tunnels[addr] = sess
	p.mu.Unlock()
	p.reg.Counter("edge.tunnel.dials").Inc()
	return sess, nil
}

// webConn is a user HTTP connection (§2.2 step 1-2), its requests read by
// ka (http1.KeepAlive: one that arrives whole costs one read, and one
// waited for holds no buffer): cacheable content is answered directly
// (Direct Server Return), the rest is forwarded over the tunnel to an
// Origin. busy is true from a parsed request head to the end of its
// response, which is what tells a disruption from the close of an idle
// keep-alive connection. pump counts the request's body pump, which its
// handler waits for before the connection reads its next request.
type webConn struct {
	net.Conn
	p    *Proxy
	busy atomic.Bool
	pump sync.WaitGroup
	ka   http1.KeepAlive
}

func (wc *webConn) serve() { wc.ka.Serve() }

// close does not wait for a request being served, and records one it cuts.
func (wc *webConn) close() {
	if wc.busy.Load() {
		wc.p.fail(stageEdgeDrainExpired, nil, nil, "")
	}
	wc.ka.Close()
}

func (wc *webConn) ServeRequest(req *http1.Request, _ *bufio.Reader) bool {
	wc.busy.Store(true)
	ok := wc.p.serveEdgeRequest(wc.Conn, &wc.pump, req)
	wc.busy.Store(false)
	return ok
}

// serveEdgeRequest serves one request of conn, its body pump counted in
// pump, and reports whether it can take another. req is the connection's,
// read into again once this returns: nothing keeps it or its Body longer;
// values taken from it may be kept.
func (p *Proxy) serveEdgeRequest(conn net.Conn, pump *sync.WaitGroup, req *http1.Request) bool {
	// The trace context is forwarded over the tunnel either way, so that
	// the Origin and app-server spans stitch into one trace.
	incoming := req.Header.Get(obs.TraceHeader)
	sp, t0 := p.startRequest("edge.http", req.Method, req.Target, incoming)
	defer p.endRequest(sp, t0)

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
	// A body still arriving is pumped on a goroutine of its own. The Origin
	// may answer before taking the whole body (a 500 once its attempts are
	// spent, an app server's 413): pumped from here, the upload would wait
	// on the Origin's window while an answer longer than a window waited on
	// this Edge's. The Origin resets the stream behind such an answer, and
	// the pump ends there.
	var at *stage
	tunnelT0 := time.Now()
	st, err := sendMessage(req.Body, req.ContentLength, pump, func(bool) {},
		func(body []byte, end bool) (st *h2t.Stream, err error) {
			st, _, at, err = p.openStream(VIPWeb, "", sp, incoming, hdr, body, end)
			return st, err
		})
	if err != nil {
		if at != nil { // else the body in hand could not be read
			http1.WriteResponse(conn, http1.NewResponse(p.fail(at, sp, err, ""), nil, 0))
		}
		return false
	}
	defer st.Release() // after the body pump is joined
	defer pump.Wait()

	respHdr, err := st.RecvHeaders(p.cfg.upstreamResponseTimeout)
	p.latTunnel.Observe(time.Since(tunnelT0).Seconds())
	if err != nil {
		// The Origin said nothing in time (504), or the stream or its
		// session ended first (502).
		st.Reset()
		at = stageUpstream
		if errors.Is(err, os.ErrDeadlineExceeded) {
			at = stageUpstreamTimeout
		}
		http1.WriteResponse(conn, http1.NewResponse(p.fail(at, sp, err, ""), nil, 0))
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
// terminated client conn plus the current tunnel stream carrying it, none
// until the user's CONNECT has been taken to an Origin. The stream is
// swapped atomically during Downstream Connection Reuse.
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

// serve terminates a user MQTT connection: it reads the CONNECT to learn
// the user-id (§4.2: "Each end-user has a globally unique ID used to route
// the messages"), opens a tunnel stream to an Origin, and relays bytes
// both ways: client to stream on this goroutine, stream to client by the
// stream's sink. On reconnect_solicitation it performs the DCR re_connect
// through another Origin and splices the streams.
func (r *mqttRelay) serve() {
	st := r.connect()
	if st == nil {
		return
	}
	p := r.p
	p.reg.Counter("edge.mqtt.accepted").Inc()
	conns := p.reg.Gauge("edge.mqtt.conns")
	conns.Inc()
	defer conns.Dec()
	r.watch(st)
	r.sink(st)
	var wr netx.WakeReader
	wr.Init(r.clientConn, &netx.Pump{Forward: r.forwardUpstream})
	wr.ConfirmWaits()
	wr.Run()
}

// connect takes the user's CONNECT to an Origin on a stream of its own,
// which it returns, or nil if the connection is done with.
func (r *mqttRelay) connect() *h2t.Stream {
	conn := r.clientConn
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	connectPkt, err := mqtt.Decode(conn)
	if err != nil || connectPkt.Type != mqtt.CONNECT {
		return nil
	}
	conn.SetReadDeadline(time.Time{})
	r.userID = connectPkt.ClientID

	// Clients may carry a trace context in CONNECT properties; it rides
	// the tunnel stream headers so the Origin relay joins the same trace.
	// The Edge is the trust boundary: a value that does not parse goes no
	// further.
	incoming := connectPkt.Properties[obs.TraceHeader]
	remote, ok := obs.ParseSpanContext(incoming)
	if !ok {
		incoming = ""
	}
	sp := r.p.cfg.Trace.StartSpan("edge.mqtt.connect", remote)
	sp.SetAttr("user-id", r.userID)
	defer sp.End()
	// The CONNECT rides the stream's HEADERS write, so that the broker sees
	// it verbatim.
	var connectBuf bytes.Buffer
	mqtt.Encode(&connectBuf, connectPkt)
	hdr := h2t.Fields{{Name: "proto", Value: "mqtt"}, {Name: "user-id", Value: r.userID}}
	st, addr, _, err := r.p.openStream(VIPMQTT, "", sp, incoming, hdr, connectBuf.Bytes(), false)
	if err != nil {
		sp.Fail(err)
		return nil
	}
	r.originAddr = addr
	if _, ok := r.swapStream(st); !ok {
		st.Reset() // the generation terminated meanwhile
		return nil
	}
	return st
}

// sink has st's DATA written to the user's connection (h2t.Stream.Sink)
// and its end followed, one generation after another: the next
// generation's sink is attached only once the last one's end callback runs
// — its writer done and its session's reader writing no more for it — so
// two generations never interleave bytes on the user's connection.
func (r *mqttRelay) sink(st *h2t.Stream) {
	st.Sink(r.clientConn, func(err error) {
		var sinkErr *h2t.SinkError
		if errors.As(err, &sinkErr) {
			r.close()
			return
		}
		// The splice itself resets the old stream, and a draining Origin
		// may drop it first: either way a re_connect in flight has the
		// last word.
		r.mu.Lock()
		dcr := r.dcr
		r.mu.Unlock()
		if dcr != nil {
			<-dcr
		}
		if next := r.currentStream(); next != st {
			r.sink(next)
			return
		}
		// Stream ended without a successful splice: the user is disrupted
		// (the woutDCR baseline measures exactly this).
		r.p.fail(stageStreamLost, nil, nil, r.userID)
		r.close()
	})
}

// watch has the session reader start the DCR re_connect for a reconnect
// solicitation on st, unless one is in flight or st is no longer the
// relay's stream. The transaction runs on a goroutine that exists only
// while it does, beside the old stream's sink and not in it: that stream
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
		// An open relay's owner holds p.wg above zero until it closes it.
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
	// A re_connect goes through an Origin other than the relay's, or any
	// when no other answers.
	hdr := h2t.Fields{{Name: "proto", Value: "mqtt-resume"}, {Name: "user-id", Value: relay.userID}}
	st, addr, _, err := p.openStream(VIPMQTT, relay.originAddr, sp, peerTrace, hdr, nil, false)
	if err != nil {
		p.reg.Counter("edge.mqtt.reconnect.failed").Inc()
		p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPMQTT, "", "re_connect: "+err.Error())
		sp.Fail(err)
		return false
	}
	ackTimer := time.NewTimer(dcrAckTimeout)
	defer ackTimer.Stop()
	select {
	case c := <-st.Controls():
		if c.Type != h2t.FrameConnectAck {
			p.reg.Counter("edge.mqtt.reconnect.refused").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPMQTT, "", "re_connect refused")
			sp.Fail(errors.New("proxy: re_connect refused"))
		} else if old, ok := relay.swapStream(st); !ok {
			sp.Fail(errors.New("proxy: relay closed during re_connect")) // the user hung up
		} else {
			old.Reset()
			relay.originAddr = addr
			p.reg.Counter("edge.mqtt.reconnect.ack").Inc()
			// The DCR splice: the user's connection survived its Origin's
			// restart by re-attaching through another path.
			p.cfg.Ledger.Record(disrupt.KindReattach, 0, VIPMQTT, "", relay.userID)
			sp.SetAttr("result", "ack")
			return true
		}
	case <-ackTimer.C:
		p.fail(stageReconnectTimeout, sp, errors.New("proxy: connect_ack timeout"), relay.userID)
	}
	st.Reset()
	return false
}
