// Package probe measures single layers from outside: it calls a layer's
// public functions in a loop, on the inputs the workload under test
// generates, and times them. Nothing here runs during an end-to-end
// measurement.
package probe

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"time"

	"zdr/bench/rig"
	"zdr/bench/stats"
	"zdr/internal/bufpool"
	"zdr/internal/disrupt"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/mqtt"
	"zdr/internal/obs"
	"zdr/internal/quicx"
	"zdr/internal/throughput"
)

// Inputs is what the workload under test hands the probes.
type Inputs struct {
	Seed    int64
	Content *rig.Content
	Edges   []rig.Edge
	// Method, Target and BodyLen shape the HTTP heads the workload
	// sends (the HTTP workloads' own; GET /dyn/64 elsewhere).
	Method  string
	Target  string
	BodyLen int
	// QuicFlows selects quic_steered's flow sequence for the steering
	// probe (resident flows picked uniformly, one in sixteen retired and
	// replaced); elsewhere every steer is a connection's new flow.
	QuicFlows int
	// Budget is the time each timing loop runs for.
	Budget time.Duration
	// RelayBytes is how much the relay probes move.
	RelayBytes int64
	// Trace, when set, is the span each probe group is recorded under.
	Trace *obs.Span
}

const mib = 1 << 20

// measure times f over the budget and returns its mean duration and
// allocation count.
func measure(budget time.Duration, batch int, f func()) (ns, allocs float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < budget {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// Run runs every library probe and returns the per-layer metrics they
// feed.
func Run(in Inputs) (stats.Metrics, error) {
	var m stats.Metrics
	for _, g := range []struct {
		name string
		f    func(Inputs, *stats.Metrics) error
	}{
		{"katran", probeKatran}, {"http1", probeHTTP1}, {"h2t", probeH2T}, {"netx", probeNetx},
		{"bufpool", probeBufpool}, {"mqtt", probeMQTT}, {"quicx", probeQuicx}, {"observability", probeObservability},
	} {
		sp := in.Trace.StartChild("probe." + g.name)
		err := g.f(in, &m)
		sp.Fail(err)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", g.name, err)
		}
	}
	return m, nil
}

// probeKatran times LB.Steer on a fresh LB configured like the rig's,
// fed the workload's flow sequence, then the generation bump.
func probeKatran(in Inputs, m *stats.Metrics) error {
	lb := rig.NewLB(in.Edges)
	defer lb.Close()
	rnd := rand.New(rand.NewSource(in.Seed))
	next := rnd.Uint64
	if in.QuicFlows > 0 {
		flows := make([]uint64, in.QuicFlows)
		for i := range flows {
			flows[i] = rnd.Uint64()
			if _, err := lb.Steer(flows[i]); err != nil {
				return err
			}
		}
		head, k, pending := 0, 0, uint64(0)
		next = func() uint64 {
			if pending != 0 { // the Initial that follows a Close
				f := pending
				pending = 0
				return f
			}
			if k++; k%16 == 0 {
				old := flows[head]
				flows[head] = rnd.Uint64()
				pending = flows[head]
				head = (head + 1) % len(flows)
				return old
			}
			return flows[rnd.Intn(len(flows))]
		}
	}
	// The sequence is generated a chunk at a time outside the timed
	// stretch, so that only Steer is timed.
	chunk := make([]uint64, 4096)
	var spent time.Duration
	var mallocs uint64
	n := 0
	var m0, m1 runtime.MemStats
	for spent < in.Budget {
		for i := range chunk {
			chunk[i] = next()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, f := range chunk {
			if _, err := lb.Steer(f); err != nil {
				return err
			}
		}
		spent += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		n += len(chunk)
	}
	m.Add("katran.steer_ns", float64(spent)/float64(n), "ns")
	m.Add("katran.steer_allocs", float64(mallocs)/float64(n), "count")
	ns, _ := measure(in.Budget/4, 16, func() { lb.AdvanceGeneration(true) })
	m.Add("katran.bump_ns", ns, "ns")
	return nil
}

// probeHTTP1 times the head parsers and writers on the heads the
// workload sends, and the two per-byte body paths on one MiB.
func probeHTTP1(in Inputs, m *stats.Metrics) error {
	head := in.Method + " " + in.Target + " HTTP/1.1\r\nHost: bench\r\n"
	if in.BodyLen > 0 {
		head += "Content-Length: " + strconv.Itoa(in.BodyLen) + "\r\n"
	}
	head += "\r\n"
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var err error
	readReq, a1 := measure(in.Budget, 16, func() {
		rd.Reset([]byte(head))
		br.Reset(rd)
		if _, e := http1.ReadRequest(br); e != nil {
			err = e
		}
	})
	writeReq, a2 := measure(in.Budget, 16, func() {
		if _, e := http1.WriteRequest(io.Discard, http1.NewRequest(in.Method, in.Target, nil, 0)); e != nil {
			err = e
		}
	})
	// The response as an app server sends it and an origin reads it.
	var wire bytes.Buffer
	body := in.Content.Dyn[:64]
	appResp := http1.NewResponse(200, bytes.NewReader(body), int64(len(body)))
	appResp.Header.Set("X-Served-By", "app-0")
	if _, e := http1.WriteResponse(&wire, appResp); e != nil {
		return e
	}
	readResp, a3 := measure(in.Budget, 16, func() {
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		if _, e := http1.ReadResponse(br); e != nil {
			err = e
		}
	})
	// The response as an edge writes it: chunked, with its Via.
	bodyRd := bytes.NewReader(nil)
	writeResp, a4 := measure(in.Budget, 16, func() {
		bodyRd.Reset(body)
		resp := http1.NewResponse(200, bodyRd, -1)
		resp.Header.Set("X-Served-By", "app-0")
		resp.Header.Set("Via", "edge-0")
		if _, e := http1.WriteResponse(io.Discard, resp); e != nil {
			err = e
		}
	})
	m.Add("http1.read_request_ns", readReq, "ns")
	m.Add("http1.write_request_ns", writeReq, "ns")
	m.Add("http1.read_response_ns", readResp, "ns")
	m.Add("http1.write_response_ns", writeResp, "ns")
	m.Add("http1.head_allocs", a1+a2+a3+a4, "count")

	block := in.Content.Post[:mib]
	var coded bytes.Buffer
	coded.Grow(mib + mib/8)
	chunked, _ := measure(in.Budget, 1, func() {
		coded.Reset()
		cw := http1.NewChunkedWriter(&coded)
		for off := 0; off < mib; off += 32 << 10 {
			if _, e := cw.Write(block[off : off+32<<10]); e != nil {
				err = e
			}
		}
		if e := cw.Close(); e != nil {
			err = e
		}
		rd.Reset(coded.Bytes())
		br.Reset(rd)
		if n, e := io.Copy(io.Discard, struct{ io.Reader }{http1.NewChunkedReader(br)}); e != nil || n != mib {
			err = fmt.Errorf("chunked round trip moved %d bytes: %v", n, e)
		}
	})
	m.Add("http1.chunked_ns_per_mib", chunked, "ns")
	bodyRead, _ := measure(in.Budget, 1, func() {
		rd.Reset(block)
		if b, e := http1.ReadFullBodySized(io.LimitReader(rd, mib), mib); e != nil || len(b) != mib {
			err = fmt.Errorf("body read %d bytes: %v", len(b), e)
		}
	})
	m.Add("http1.body_read_ns_per_mib", bodyRead, "ns")
	return err
}

// tcpPair is a connected loopback TCP pair.
func tcpPair() (a, b net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		ch <- c
	}()
	if a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, nil, err
	}
	if b = <-ch; b == nil {
		a.Close()
		return nil, nil, fmt.Errorf("accept failed")
	}
	return a, b, nil
}

// probeH2T times the tunnel over a session pair on loopback TCP: a
// whole request-shaped stream, the header codec alone, one data frame
// each way on an open stream, and one MiB through one stream.
func probeH2T(in Inputs, m *stats.Metrics) error {
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	client, server := h2t.NewSession(a, true), h2t.NewSession(b, false)
	defer client.Close()
	defer server.Close()
	small, frame := in.Content.Dyn[:64], in.Content.Dyn[:128]
	go func() { // the origin's side: serve streams until the session dies
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func() {
				switch st.Headers()["probe"] {
				case "frame":
					buf := make([]byte, len(frame))
					for {
						if _, err := io.ReadFull(st, buf); err != nil {
							return
						}
						st.Write(buf)
					}
				case "bulk":
					n, _ := io.Copy(io.Discard, struct{ io.Reader }{st})
					st.Write([]byte{byte(n >> 20)})
					st.CloseWrite()
				default:
					buf := make([]byte, len(small))
					io.ReadFull(st, buf)
					st.SendHeaders(map[string]string{"status": "200"}, false)
					st.Write(buf)
					st.CloseWrite()
				}
			}()
		}
	}()
	hdr := map[string]string{":method": in.Method, ":path": in.Target, "content-length": strconv.Itoa(in.BodyLen)}
	buf := make([]byte, len(frame))
	rtt, rttAllocs := measure(in.Budget, 4, func() {
		st, e := client.OpenStream(hdr, false)
		if e != nil {
			err = e
			return
		}
		st.Write(small)
		st.CloseWrite()
		if _, e := st.RecvHeaders(2 * time.Second); e != nil {
			err = e
		}
		if _, e := io.ReadFull(st, buf[:len(small)]); e != nil {
			err = e
		}
	})
	m.Add("h2t.stream_rtt_ns", rtt, "ns")
	m.Add("h2t.stream_allocs", rttAllocs, "count")
	codec, codecAllocs := measure(in.Budget, 16, func() {
		enc, e := h2t.EncodeHeaders(hdr)
		if e == nil {
			_, e = h2t.DecodeHeaders(enc)
		}
		if e != nil {
			err = e
		}
	})
	m.Add("h2t.headers_ns", codec, "ns")
	m.Add("h2t.headers_allocs", codecAllocs, "count")
	st, e := client.OpenStream(map[string]string{"probe": "frame"}, false)
	if e != nil {
		return e
	}
	pingPong, _ := measure(in.Budget, 4, func() {
		st.Write(frame)
		if _, e := io.ReadFull(st, buf); e != nil {
			err = e
		}
	})
	st.CloseWrite()
	m.Add("h2t.frame_ns", pingPong, "ns")
	block := in.Content.Post[:mib]
	bulk, _ := measure(in.Budget, 1, func() {
		st, e := client.OpenStream(map[string]string{"probe": "bulk"}, false)
		if e != nil {
			err = e
			return
		}
		st.Write(block)
		st.CloseWrite()
		if _, e := io.ReadFull(st, buf[:1]); e != nil || buf[0] != 1 {
			err = fmt.Errorf("bulk stream acknowledged %d MiB: %v", buf[0], e)
		}
	})
	m.Add("h2t.stream_mbps", mib/1e6/(bulk/1e9), "MB/s")
	return err
}

// probeNetx times netx.Relay between bare TCP pairs (the splice path)
// and between wrapped ones (the pooled copy), through the harness the
// repository already has for exactly that.
func probeNetx(in Inputs, m *stats.Metrics) error {
	for _, p := range []struct {
		name   string
		splice bool
	}{{"netx.relay_splice_ns_per_mib", true}, {"netx.relay_copy_ns_per_mib", false}} {
		r, err := throughput.RunTCPRelay(in.RelayBytes, p.splice)
		if err != nil {
			return err
		}
		m.Add(p.name, r.Seconds*1e9/(float64(r.Bytes)/mib), "ns")
	}
	return nil
}

func probeBufpool(in Inputs, m *stats.Metrics) error {
	ns, _ := measure(in.Budget, 64, func() { bufpool.Put(bufpool.Get(bufpool.TierLarge)) })
	m.Add("bufpool.getput_ns", ns, "ns")
	rd := bytes.NewReader(nil)
	var err error
	// Both ends are wrapped so that io.CopyBuffer cannot bypass the
	// pooled buffer through ReadFrom or WriteTo.
	ns, _ = measure(in.Budget, 1, func() {
		rd.Reset(in.Content.Post[:mib])
		if n, e := bufpool.Copy(struct{ io.Writer }{io.Discard}, struct{ io.Reader }{rd}); e != nil || n != mib {
			err = fmt.Errorf("pooled copy moved %d bytes: %v", n, e)
		}
	})
	m.Add("bufpool.copy_ns_per_mib", ns, "ns")
	return err
}

// probeMQTT times the codec on the workload's PUBLISH.
func probeMQTT(in Inputs, m *stats.Metrics) error {
	pkt := &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "bench/u" + strconv.FormatInt(in.Seed, 10) + "-0",
		Payload: in.Content.Dyn[:128], QoS: 1, PacketID: 7}
	var wire bytes.Buffer
	var err error
	enc, a1 := measure(in.Budget, 16, func() {
		wire.Reset()
		if e := mqtt.Encode(&wire, pkt); e != nil {
			err = e
		}
	})
	rd := bytes.NewReader(nil)
	dec, a2 := measure(in.Budget, 16, func() {
		rd.Reset(wire.Bytes())
		if p, e := mqtt.Decode(rd); e != nil || len(p.Payload) != len(pkt.Payload) {
			err = fmt.Errorf("decode: %v", e)
		}
	})
	m.Add("mqtt.encode_ns", enc, "ns")
	m.Add("mqtt.decode_ns", dec, "ns")
	m.Add("mqtt.codec_allocs", a1+a2, "count")
	return err
}

// probeQuicx times the datagram codec on the workload's request.
func probeQuicx(in Inputs, m *stats.Metrics) error {
	out := make([]byte, 0, 128)
	var err error
	ns, allocs := measure(in.Budget, 64, func() {
		out = quicx.AppendPacket(out[:0], quicx.Packet{Type: quicx.PktData, Conn: 42, Payload: in.Content.QuicKeys[0]})
		if p, e := quicx.Unmarshal(out); e != nil || p.Conn != 42 {
			err = fmt.Errorf("unmarshal: %v", e)
		}
	})
	m.Add("quicx.codec_ns", ns, "ns")
	m.Add("quicx.codec_allocs", allocs, "count")
	return err
}

// span is what serveEdgeRequest does to its span on every request.
func span(t *obs.Tracer) {
	sp := t.StartSpan("edge.http", obs.SpanContext{})
	sp.SetAttr("method", "GET")
	sp.SetAttr("path", "/dyn/64")
	sp.SetAttr("status", "200")
	sp.End()
}

// probeObservability prices what the data path pays to be observable:
// the ledger, a histogram observation, a counter looked up by a name
// built with fmt.Sprintf (as serveEdgeRequest does for the status
// counter), and a span with tracing off and on.
func probeObservability(in Inputs, m *stats.Metrics) error {
	led := disrupt.New("probe", 0)
	ns, _ := measure(in.Budget, 64, func() { led.Record(disrupt.KindAccept, 1, "web", "", "") })
	m.Add("disrupt.record_ns", ns, "ns")
	reg := metrics.NewRegistry()
	h := reg.AtomicHistogram("edge.http.latency")
	ns, _ = measure(in.Budget, 64, func() { h.Observe(175e-6) })
	m.Add("metrics.observe_ns", ns, "ns")
	code := 200
	ns, _ = measure(in.Budget, 64, func() { reg.Counter(fmt.Sprintf("edge.http.status.%d", code)).Inc() })
	m.Add("metrics.counter_by_name_ns", ns, "ns")
	ns, _ = measure(in.Budget, 64, func() { span(nil) })
	m.Add("obs.nil_span_ns", ns, "ns")
	t := obs.NewTracer("probe")
	t.SetFinishedCap(1024)
	ns, _ = measure(in.Budget, 64, func() { span(t) })
	m.Add("obs.span_ns", ns, "ns")
	return nil
}
