package proxy

import (
	"errors"
	"io"
	"sync"

	"zdr/internal/bufpool"
	"zdr/internal/disrupt"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/netx"
	"zdr/internal/obs"
)

// A tunnelled request takes one path through both tiers (§2.2): the Edge
// opens a stream toward an Origin (openStream) and sends the request on
// it (sendMessage); the Origin forwards it to an app server, replaying a
// 379 hand-back on another (forwardHTTP), and sends the response back
// (sendMessage). An MQTT CONNECT and a DCR re_connect open their streams
// the same way.

// A stage is where a request or a relay ends without its answer: what it
// answers (0: nothing, the connection or stream ends), the counter it
// moves (none for ""), and its ledger event, a reset or a timeout with its
// cause on a VIP of the tier that ends it. The counters and causes are
// what chaos, fleet and bench read.
type stage struct {
	status              int
	counter, cause, vip string
	timeout             bool
}

var (
	stageNoOrigin           = &stage{503, "edge.http.errors.no_origin", "edge:no-origin", VIPWeb, false}
	stageOpenStream         = &stage{502, "edge.http.errors.open_stream", "edge:open-stream", VIPWeb, false}
	stageUpstream           = &stage{502, "edge.http.errors.upstream", "edge:upstream", VIPWeb, false}
	stageUpstreamTimeout    = &stage{504, "edge.http.errors.upstream", "edge:upstream", VIPWeb, true}
	stageEdgeDrainExpired   = &stage{0, "", "drain-expired", VIPWeb, false} // the drain's end (§4.1)
	stageOriginDrainExpired = &stage{0, "", "drain-expired", VIPTunnel, false}
	stagePPRExhausted       = &stage{500, "origin.http.ppr_exhausted", "origin:ppr-exhausted", VIPTunnel, false}
	stageBrokerDialFailed   = &stage{0, "origin.mqtt.broker_dial_failed", "origin:broker-dial-failed", VIPTunnel, false}
	stageStreamLost         = &stage{0, "edge.mqtt.stream_lost", "dcr:stream-lost", VIPMQTT, false}
	stageReconnectTimeout   = &stage{0, "edge.mqtt.reconnect.timeout", "dcr:reconnect-timeout", VIPMQTT, true}
)

// fail ends a request or relay at stage at: it moves the stage's counter,
// records its event with detail (err's text if empty) and fails sp with
// err. It returns the status to answer with.
func (p *Proxy) fail(at *stage, sp *obs.Span, err error, detail string) int {
	if at.counter != "" {
		p.reg.Counter(at.counter).Inc()
	}
	kind := disrupt.KindReset
	if at.timeout {
		kind = disrupt.KindTimeout
	}
	if detail == "" && err != nil {
		detail = err.Error()
	}
	p.cfg.Ledger.Record(kind, 0, at.vip, at.cause, detail)
	sp.Fail(err)
	return at.status
}

// sendMessage sends a message through the tunnel: its head by head, which
// returns the stream it went on, and its body, n bytes long (-1: not
// known). A body all in hand (the small request or reply that came with
// its head) is read into a pooled buffer and rides the head's write,
// END_STREAM on its last frame. Any other follows the head (pumpBody) on
// this goroutine or, with pumps, on one of its own that pumps counts, so
// that the peer can answer first; that one reads to nowhere what is left
// of a body whose stream ended, so that its connection can go on.
// settled, unless the body is pumped apart, is told whether it was read
// to its end before END_STREAM says so.
func sendMessage(body io.Reader, n int64, pumps *sync.WaitGroup, settled func(ok bool),
	head func(body []byte, end bool) (*h2t.Stream, error)) (*h2t.Stream, error) {
	if n < 0 || int64(http1.Buffered(body)) < n {
		st, err := head(nil, false)
		switch {
		case err != nil:
			settled(false)
		case pumps == nil:
			err = pumpBody(st, body, settled)
		default:
			pumps.Add(1)
			go func() {
				defer pumps.Done()
				if streamEnded(pumpBody(st, body, func(bool) {})) {
					io.Copy(io.Discard, body)
				}
			}()
		}
		return st, err
	}
	var whole []byte
	var err error
	if n > 0 {
		bp := bufpool.Get(int(n))
		defer bufpool.Put(bp)
		whole = (*bp)[:n]
		_, err = io.ReadFull(body, whole)
	}
	settled(err == nil)
	if err != nil {
		return nil, err
	}
	return head(whole, true)
}

// pumpBody relays body onto st behind its head (netx.Relay: the stream
// side is h2t-framed, so the pooled copy) and, after telling settled
// whether it was read to its end, ends the stream's way out:
// END_STREAM, or a reset on failure unless the stream had already ended,
// its peer's answer maybe still on its way in.
func pumpBody(st *h2t.Stream, body io.Reader, settled func(ok bool)) error {
	_, err := netx.Relay(st, body)
	settled(err == nil)
	switch {
	case err == nil:
		return st.CloseWrite()
	case !streamEnded(err):
		st.Reset()
	}
	return err
}

// streamEnded reports whether err is a stream's own end: reset by the
// peer, or finished.
func streamEnded(err error) bool {
	return errors.Is(err, h2t.ErrStreamClosed) || errors.Is(err, h2t.ErrStreamReset)
}
