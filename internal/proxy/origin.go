package proxy

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"strconv"
	"strings"
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

// originSession tracks one Edge-facing tunnel session on the Origin, with
// the MQTT relays it carries (needed for reconnect_solicitation at drain):
// each one's stream and broker connection.
type originSession struct {
	p    *Proxy
	sess *h2t.Session
	// idle counts the goroutines blocked in sess.Accept (see acceptStreams).
	idle atomic.Int32

	mu     sync.Mutex
	relays map[*h2t.Stream]net.Conn
}

// startDrain performs the Origin side of a graceful restart: GOAWAY on
// the tunnel (no new streams) and reconnect_solicitation on every MQTT
// relay stream (§4.2 step A). HTTP streams in flight run to completion.
// trace, when non-empty, is the drain span's wire context; it rides the
// solicitation payload so the Edge's dcr.reconnect spans join the trace.
func (os *originSession) startDrain(trace string) {
	os.sess.GoAway()
	for st := range os.takeRelays(false) {
		payload := st.Fields().Get("user-id")
		if trace != "" {
			payload += "\n" + trace
		}
		st.SendControl(h2t.FrameReconnectSolicitation, []byte(payload))
		os.p.reg.Counter("origin.mqtt.solicitations_sent").Inc()
	}
}

func (os *originSession) close() {
	relays := os.takeRelays(true)
	// The session first: a relay's broker→stream pump writes to its stream
	// under the broker connection's read lock (netx.Relay), and a Close of
	// that connection would wait for a write parked on the stream's window.
	os.sess.Close()
	for _, conn := range relays {
		conn.Close()
	}
}

// takeRelays returns the relays the session carries, and with forget
// leaves it none.
func (os *originSession) takeRelays(forget bool) map[*h2t.Stream]net.Conn {
	os.mu.Lock()
	defer os.mu.Unlock()
	relays := maps.Clone(os.relays)
	if forget {
		clear(os.relays)
	}
	return relays
}

// serve serves one Edge-facing tunnel connection until its session ends,
// the session's reader on this goroutine and its acceptors beside it.
func (os *originSession) serve() {
	os.p.reg.Counter("origin.tunnel.sessions").Inc()
	// The Edge keeps to a stream window once it has seen any frame of this
	// session's, and an Origin has none to send before its first response:
	// it says that it limits nothing, so that the first upload is bounded.
	os.sess.AdvertiseSettings(0)
	if os.p.Draining() {
		// A session accepted in the race window of a drain, owned after
		// the drain looked for sessions, is told to go elsewhere.
		os.sess.GoAway()
	}
	os.p.wg.Add(1)
	go func() {
		defer os.p.wg.Done()
		os.acceptStreams()
	}()
	os.sess.Serve()
}

// tunnelIdleAcceptors is how many goroutines an idle tunnel session keeps
// blocked in Accept: what two keep-alive connections' requests, one
// arriving as the other finishes, find waiting with no goroutine made.
const tunnelIdleAcceptors = 3

// acceptStreams serves the session's streams, one at a time, each on the
// goroutine the session reader woke with it. A session's acceptors are
// all alike. One that takes a stream and leaves nobody waiting starts a
// successor before it serves, so a stream never waits for a handler to
// finish; one that finishes and finds tunnelIdleAcceptors waiting exits;
// all exit when Accept fails, which is when the session has ended.
func (os *originSession) acceptStreams() {
	for {
		n := os.idle.Load()
		if n >= tunnelIdleAcceptors {
			return
		}
		if !os.idle.CompareAndSwap(n, n+1) {
			continue
		}
		st, err := os.sess.Accept()
		if os.idle.Add(-1) == 0 && err == nil {
			os.p.wg.Add(1)
			go func() {
				defer os.p.wg.Done()
				os.acceptStreams()
			}()
		}
		if err != nil {
			return
		}
		os.p.handleTunnelStream(os, st)
	}
}

func (p *Proxy) handleTunnelStream(os *originSession, st *h2t.Stream) {
	hdr := st.Fields()
	switch proto := hdr.Get("proto"); proto {
	case "mqtt", "mqtt-resume":
		p.relayMQTT(os, st, hdr.Get("user-id"), hdr.Get(obs.TraceHeader), proto == "mqtt-resume")
	default:
		p.forwardHTTP(st, hdr)
	}
}

// relayMQTT connects a tunnel stream to the user's broker and relays
// bytes. resume=true is a DCR re_connect: this Origin itself performs the
// CONNECT(CleanSession=false) handshake with the broker and reports the
// verdict to the Edge as connect_ack / connect_refuse before splicing into
// plain byte relaying.
func (p *Proxy) relayMQTT(os *originSession, st *h2t.Stream, userID, trace string, resume bool) {
	// The span covers connection establishment (broker dial and, on a DCR
	// re_connect, the CONNECT/CONNACK verdict), not the relay lifetime.
	remote, _ := obs.ParseSpanContext(trace)
	spanName := "origin.mqtt.connect"
	if resume {
		spanName = "origin.mqtt.resume"
	}
	sp := p.cfg.Trace.StartSpan(spanName, remote)
	sp.SetAttr("user-id", userID)
	bconn, err := p.brokerConn(st, userID, resume, sp)
	if err != nil {
		if resume {
			// The Edge falls back to its old stream at once.
			st.SendControl(h2t.FrameConnectRefuse, nil)
		}
		sp.Fail(err)
		sp.End()
		st.Reset()
		return
	}
	sp.End()

	os.mu.Lock()
	os.relays[st] = bconn
	os.mu.Unlock()
	p.reg.Counter("origin.mqtt.relays").Inc()
	p.reg.Gauge("origin.mqtt.active").Inc()
	defer func() {
		os.mu.Lock()
		delete(os.relays, st)
		os.mu.Unlock()
		p.reg.Gauge("origin.mqtt.active").Dec()
	}()

	// Bidirectional byte relay; returns when either side closes. Toward a
	// bare bconn the tunnel's reader writes the stream's DATA as it arrives,
	// and a writer only what is queued (Stream.Sink): no buffer is held and
	// no goroutine waits; from it netx.Relay, here, reads by wakes, each
	// into a pooled buffer it gives back. A fault-wrapped bconn gets a plain
	// loop from it, keeping injected faults on the observable path. Either
	// direction's end ends the other: the stream first, for the reset is
	// what frees a broker→stream write parked on its window, and the Close
	// would wait for that write.
	end := func(error) {
		st.Reset()
		bconn.Close()
	}
	st.Sink(bconn, end)
	netx.Relay(st, bconn)
	end(nil)
}

// brokerConn dials userID's broker, which consistent hashing makes the
// same from ANY healthy Origin (§4.2). On a resume it has the broker take
// the user's session back and tells the Edge so with connect_ack.
func (p *Proxy) brokerConn(st *h2t.Stream, userID string, resume bool, sp *obs.Span) (net.Conn, error) {
	addr := p.brokerRing.Pick(userID)
	if userID == "" || addr == "" {
		return nil, fmt.Errorf("proxy: no broker for user-id %q", userID)
	}
	sp.SetAttr("broker", addr)
	bconn, err := p.dialUpstream(addr)
	if err != nil {
		p.reg.Counter("origin.mqtt.broker_dial_failed").Inc()
		if resume { // not yet terminal: the Edge keeps its old stream
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPTunnel, "", "resume: broker dial failed")
		} else {
			p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPTunnel, "origin:broker-dial-failed", userID)
		}
		return nil, err
	}
	if !resume {
		return bconn, nil
	}
	// §4.2 steps B2/C1-C2: re_connect to the broker holding the user's
	// context; it accepts only if context exists.
	err = mqtt.Encode(bconn, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: userID, CleanSession: false})
	if err == nil {
		bconn.SetReadDeadline(time.Now().Add(5 * time.Second))
		ack, derr := mqtt.Decode(bconn)
		bconn.SetReadDeadline(time.Time{})
		if derr != nil || ack.Type != mqtt.CONNACK || ack.ReturnCode != mqtt.ConnAccepted || !ack.SessionPresent {
			p.reg.Counter("origin.mqtt.resume_refused").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPTunnel, "", "resume refused by broker")
			err = errors.New("proxy: broker refused resume")
		} else {
			p.reg.Counter("origin.mqtt.resume_ack").Inc()
			p.cfg.Ledger.Record(disrupt.KindReattach, 0, VIPTunnel, "", userID)
			err = st.SendControl(h2t.FrameConnectAck, nil)
		}
	}
	if err != nil {
		bconn.Close()
		return nil, err
	}
	return bconn, nil
}

// upstreamReq is one tunneled request on its way to an app server, with
// what is needed to send it again from its first byte.
type upstreamReq struct {
	method, path, trace string
	cl                  int64
	// replay is the partial body a restarting server handed back (§4.3);
	// it goes out first.
	replay []byte
	// rest is the live client body, nil for a body-less request; buf is
	// the one pooled buffer it is forwarded through.
	rest io.Reader
	buf  []byte
	// held is the part of buf read from rest that no app server has
	// accounted for yet — by a response, or by a 379 whose body reflects
	// everything written before it. It goes out after replay and before
	// rest is read again, so
	// replayed = serverReceived ++ consumedUnforwarded ++ stillStreaming.
	held []byte
	// wrote counts the body bytes written to the app server in the
	// current attempt: what a 379 from it must echo, to the byte.
	wrote int64
}

// forwardHTTP forwards one tunneled HTTP request to an app server,
// implementing the client (downstream-proxy) side of Partial Post Replay.
func (p *Proxy) forwardHTTP(st *h2t.Stream, hdr h2t.Fields) {
	r := upstreamReq{method: hdr.Get(":method"), path: hdr.Get(":path"), trace: hdr.Get(obs.TraceHeader), cl: -1}
	if r.method == "" || r.path == "" {
		st.Reset()
		return
	}
	if n, err := strconv.ParseInt(hdr.Get("content-length"), 10, 64); err == nil {
		r.cl = n
	}
	sp, t0 := p.startRequest("origin.http", r.method, r.path, r.trace)
	defer p.endRequest(sp, t0)
	if c := sp.Context().String(); c != "" {
		r.trace = c
	}
	// However the request ends — relayed response, the 500 after the
	// last attempt, an early reply from the app server — a request the
	// Origin has not read to its END_STREAM is reset behind the response.
	// The Edge may be parked on the stream's window with body still to
	// send, and no reader is left here to give it credit; the RST is what
	// ends its pump. (After END_STREAM both ways the stream is reaped,
	// nothing is reset, and Release gives it back for reuse.)
	defer func() {
		if n, end := st.Buffered(); n > 0 || !end {
			st.Reset()
		}
		st.Release()
	}()

	// A body follows the head, whatever the method, unless its length
	// says there is none or the stream ended empty with its HEADERS.
	if n, end := st.Buffered(); r.cl != 0 && (n > 0 || !end) {
		// One frame per read of the stream.
		bp := bufpool.Get(bufpool.TierLarge)
		defer bufpool.Put(bp)
		r.rest, r.buf = st, *bp
	}

	attempts := p.cfg.PPRRetries
	var lastErr error
	errored := 0 // transport-failed attempts, paced by RetryBackoff
	for attempt := 0; attempt <= attempts; attempt++ {
		asAddr := p.nextAppServer(attempt)
		if asAddr == "" {
			lastErr = errors.New("proxy: no app servers configured")
			break
		}
		var attSp *obs.Span
		if r.replay != nil {
			// This attempt replays a 379 hand-back (§4.3).
			attSp = sp.StartChild("ppr.replay")
			attSp.SetAttrInt("attempt", attempt)
			attSp.SetAttr("app-server", asAddr)
		}
		resp, uc, err := p.attemptAppServer(asAddr, &r)
		if err != nil {
			lastErr = err
			attSp.Fail(err)
			attSp.End()
			if errors.Is(err, errUpstreamClosed) {
				// The generation was terminated under the request: the
				// forced end of the drain period, not an app-server fault.
				p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPTunnel, "drain-expired", r.path)
				sp.Fail(err)
				st.Reset()
				return
			}
			p.reg.Counter("origin.http.attempt_errors").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPTunnel, "", "app-server attempt failed: "+err.Error())
			// Back off before redialing: a restarting app server needs a
			// moment to rebind (§4.4). PPR replays (the 379 path below)
			// are not delayed — the hand-back is an invitation to resend
			// immediately to a healthy server.
			time.Sleep(p.cfg.RetryBackoff.Delay(errored))
			errored++
			continue
		}
		if http1.IsPartialPostReplay(resp) {
			// §4.3: collect the partial body; 379 must never reach the
			// user. Replay to another server with the returned prefix
			// plus whatever the client is still sending.
			partial, err := http1.ReadFullBodySized(resp.Body, resp.ContentLength)
			p.upstream.release(uc, resp, false)
			attSp.SetAttr("result", "379")
			attSp.End()
			if err != nil {
				lastErr = err
				continue
			}
			if int64(len(partial)) != r.wrote {
				// The server closed on bytes it had been sent: they are
				// in neither the echo nor, any more, the forwarding
				// buffer, so no attempt can rebuild the request.
				lastErr = fmt.Errorf("proxy: 379 echoed %d of %d body bytes sent", len(partial), r.wrote)
				break
			}
			r.replay = partial
			p.reg.Counter("origin.http.ppr_replays").Inc()
			p.cfg.Ledger.Record(disrupt.KindRetry, 0, VIPTunnel, "", "379 hand-back; replaying")
			continue
		}
		// Success (or a terminal app error): relay to the Edge.
		attSp.End()
		sp.SetAttrInt("status", resp.StatusCode)
		p.relayResponse(st, resp, uc)
		return
	}
	// All attempts failed: the paper's fallback — a standard 500.
	p.reg.Counter("origin.http.ppr_exhausted").Inc()
	detail := ""
	if lastErr != nil {
		detail = lastErr.Error()
	}
	p.cfg.Ledger.Record(disrupt.KindReset, 0, VIPTunnel, "origin:ppr-exhausted", detail)
	sp.Fail(lastErr)
	st.SendMessage(h2t.Fields{{Name: "status", Value: "500"}}, nil, true)
}

// nextAppServer round-robins with an attempt offset so PPR retries hit a
// different server (§4.4: a draining server's replacement pick).
func (p *Proxy) nextAppServer(attempt int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cfg.AppServers) == 0 {
		return ""
	}
	if attempt == 0 {
		p.rrApp++
	}
	return p.cfg.AppServers[(p.rrApp+attempt)%len(p.cfg.AppServers)]
}

// attemptAppServer sends one request attempt on a pooled connection and
// reads the response head. A reused connection that turns out to have
// died in the pool is not an attempt: the request is sent once more on a
// fresh dial at once — no backoff, no ledger event, no PPR attempt spent.
// On success the caller owns the checkout and ends it with release.
func (p *Proxy) attemptAppServer(addr string, r *upstreamReq) (*http1.Response, *upstreamConn, error) {
	uc, err := p.upstream.get(addr)
	if err != nil {
		return nil, nil, err
	}
	resp, err := p.exchange(uc, r)
	if errors.Is(err, errStaleUpstream) {
		p.upstream.discard(uc)
		p.upstream.staleRetries.Inc()
		if uc, err = p.upstream.dial(addr); err != nil {
			return nil, nil, err
		}
		resp, err = p.exchange(uc, r)
	}
	if err != nil {
		p.upstream.discard(uc)
		return nil, nil, err
	}
	return resp, uc, nil
}

// appendRequestHead appends r's request line and framing headers to b.
func appendRequestHead(b []byte, r *upstreamReq) []byte {
	b = append(b, r.method...)
	b = append(b, ' ')
	b = append(b, r.path...)
	b = append(b, " HTTP/1.1\r\n"...)
	if r.trace != "" {
		b = append(b, "X-Zdr-Trace: "...)
		b = append(b, r.trace...)
		b = append(b, '\r', '\n')
	}
	switch {
	case r.rest == nil:
		b = append(b, "Content-Length: 0\r\n"...)
	case r.cl >= 0:
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, r.cl, 10)
		b = append(b, '\r', '\n')
	default:
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	}
	return append(b, '\r', '\n')
}

// upstreamReply is what reading a response head into uc.resp produced.
// silent means the connection ended without a single response byte: the
// app server answers every request it reads, so it never read this one.
type upstreamReply struct {
	err    error
	silent bool
}

func (uc *upstreamConn) readReply() upstreamReply {
	if _, err := uc.br.Peek(1); err != nil {
		return upstreamReply{err: err, silent: true}
	}
	return upstreamReply{err: http1.ReadResponseInto(uc.br, &uc.resp)}
}

// settle turns a reply into exchange's result. resendable says every
// request byte written to uc is still in hand.
func (uc *upstreamConn) settle(rep upstreamReply, resendable bool) (*http1.Response, error) {
	uc.SetReadDeadline(time.Time{})
	switch {
	case rep.err == nil:
		return &uc.resp, nil
	case errors.Is(rep.err, os.ErrDeadlineExceeded):
		return nil, errors.New("proxy: app server response timeout")
	case rep.silent:
		return nil, uc.lost(rep.err, resendable)
	}
	return nil, rep.err
}

// lost classifies a transport failure that came before any response byte.
func (uc *upstreamConn) lost(err error, resendable bool) error {
	if uc.reused && resendable {
		return fmt.Errorf("%w: %v", errStaleUpstream, err)
	}
	return err
}

// probe is one read of uc between the chunks of a streamed body, a read
// that does not wait (upstreamConn.ServeWake). It reports whether the
// response has begun, and if so the reply: the head read under timeout
// from now, or how the connection ended. A connection whose descriptor is
// hidden cannot be asked; its response is read once the body is sent.
func (uc *upstreamConn) probe(timeout time.Duration) (upstreamReply, bool) {
	if err := uc.wr.Run(); err != nil {
		return upstreamReply{err: err, silent: true}, true
	}
	if !uc.begun {
		return upstreamReply{}, false
	}
	uc.SetReadDeadline(time.Now().Add(timeout))
	return uc.readReply(), true
}

// exchange writes r to uc and reads the response head, on this goroutine.
// A body-less request (every GET) is one Run of the connection's reader
// under a read deadline — liveness read, one Write, the wait, the
// response's read; a streamed body follows the Run's Write (exchangeBody).
func (p *Proxy) exchange(uc *upstreamConn, r *upstreamReq) (*http1.Response, error) {
	hp := bufpool.Get(bufpool.TierSmall)
	uc.head, uc.streamed, uc.werr = appendRequestHead((*hp)[:0], r), r.rest != nil, nil
	if !uc.streamed {
		uc.SetReadDeadline(time.Now().Add(p.cfg.UpstreamResponseTimeout))
	}
	err := uc.wr.Run()
	uc.head = nil
	bufpool.Put(hp)
	if err == nil {
		err = uc.werr
	}
	switch {
	case err != nil:
		return uc.settle(upstreamReply{err: err, silent: true}, true)
	case uc.streamed:
		return p.exchangeBody(uc, r)
	}
	uc.sent = true
	return uc.settle(upstreamReply{err: http1.ReadResponseInto(uc.br, &uc.resp)}, true)
}

// exchangeBody streams r's body in chunks and probes for the response
// before each one that comes from the client, and before the bytes a
// replay has in hand, so that a 379 that arrives mid-upload stops the
// forwarding at a chunk's boundary (the restarting server grace-reads
// everything sent before that moment, preserving the no-byte-lost
// invariant). The response is read on this goroutine, at the probe that
// finds it or after the last byte.
func (p *Proxy) exchangeBody(uc *upstreamConn, r *upstreamReq) (*http1.Response, error) {
	var cw *http1.ChunkedWriter
	if r.cl < 0 {
		cw = http1.NewChunkedWriter(uc.Conn)
	}
	r.wrote = 0
	write := func(b []byte) error {
		if len(b) == 0 {
			return nil
		}
		var err error
		if cw != nil {
			_, err = cw.Write(b)
		} else {
			_, err = uc.Conn.Write(b)
		}
		if err == nil {
			r.wrote += int64(len(b))
		}
		return err
	}
	// overwritten: bytes written to uc have since been overwritten in
	// r.buf, so the request can no longer be rebuilt from its first byte.
	overwritten := false
	// A write that fails means the server cannot have read the whole
	// request, so it is as good as silent. The caller discards uc.
	fail := func(what string, err error) (*http1.Response, error) {
		return nil, uc.lost(fmt.Errorf("proxy: %s: %w", what, err), !overwritten)
	}
	timeout := p.cfg.UpstreamResponseTimeout

	if len(r.replay)+len(r.held) > 0 {
		if rep, ok := uc.probe(timeout); ok {
			return uc.settle(rep, true)
		}
	}
	if err := write(r.replay); err != nil {
		return fail("writing replay prefix", err)
	}
	if err := write(r.held); err != nil {
		return fail("forwarding body", err)
	}
	for {
		n, rerr := r.rest.Read(r.buf)
		if n > 0 {
			overwritten = overwritten || len(r.held) > 0
			r.held = r.buf[:n]
			if rep, ok := uc.probe(timeout); ok {
				// An early response (379 or error): do NOT forward this
				// chunk — a 379 body already reflects everything the
				// server received. It stays held and leads the replay.
				return uc.settle(rep, !overwritten)
			}
			if werr := write(r.held); werr != nil {
				return fail("forwarding body", werr)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("proxy: reading client body: %w", rerr)
		}
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			return fail("forwarding body", err)
		}
	}
	uc.sent = true
	uc.SetReadDeadline(time.Now().Add(timeout))
	rep := uc.readReply()
	if rep.err == nil {
		r.held = nil
	}
	return uc.settle(rep, !overwritten)
}

// relayResponse sends an app-server response back over the tunnel stream
// and ends both the checkout of uc and the stream. Either way the
// connection goes back before the stream's END_STREAM tells the Edge the
// response is complete, so a client's next request finds it idle instead
// of racing its return.
func (p *Proxy) relayResponse(st *h2t.Stream, resp *http1.Response, uc *upstreamConn) {
	status := "200" // what an app server says day in, day out is not formatted
	if resp.StatusCode != 200 {
		status = strconv.Itoa(resp.StatusCode)
	}
	var room [8]h2t.Field
	hdr := append(room[:0], h2t.Field{Name: "status", Value: status}, h2t.Field{Name: "status-message", Value: resp.StatusMessage})
	for i := 0; i < resp.Header.Len(); i++ {
		// Connection is the app server's word to this Origin about this
		// hop (upstreamPool.release acts on it), not the user's.
		if name, v := resp.Header.At(i); !strings.EqualFold(name, "Connection") {
			hdr = append(hdr, h2t.Field{Name: name, Value: v})
		}
	}
	p.cStatus.Inc(resp.StatusCode)

	if n := resp.ContentLength; n >= 0 && int64(uc.br.Buffered()) >= n {
		// The whole body came in with the head (the small reply): take
		// it out of the connection's reader, which ends the checkout,
		// and send HEADERS, DATA and END_STREAM as one message.
		bp := bufpool.Get(int(n))
		defer bufpool.Put(bp)
		body := (*bp)[:n]
		if resp.Body != nil {
			if _, err := io.ReadFull(resp.Body, body); err != nil {
				p.upstream.release(uc, resp, false)
				st.Reset()
				return
			}
		}
		p.upstream.release(uc, resp, true)
		st.SendMessage(hdr, body, true)
		return
	}

	relayed := st.SendMessage(hdr, nil, false) == nil
	if relayed && resp.Body != nil {
		if _, err := netx.Relay(st, resp.Body); err != nil {
			st.Reset()
			relayed = false
		}
	}
	p.upstream.release(uc, resp, relayed)
	if relayed {
		st.CloseWrite()
	}
}
