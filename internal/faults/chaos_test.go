// Chaos suite: drives the full Edge → Origin → AppServer (and broker)
// topology through rolling restarts while deterministic fault schedules
// run underneath, asserting the paper's §3 disruption model: zero
// client-visible disruption for TCP and MQTT, bounded (retry-absorbed)
// disruption for UDP. Disruption is classified through internal/metrics
// counters, not just client-side error counts.
package faults_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/core"
	"zdr/internal/faults"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
	"zdr/internal/proxy"
	"zdr/internal/quicx"
)

// chaosTopo is one full in-process deployment: broker, app-server slot,
// origin slot, edge slot — every tier individually restartable.
type chaosTopo struct {
	broker   *mqtt.Broker
	brokerLn net.Listener
	app      *core.AppServerSlot
	origin   *core.ProxySlot
	edge     *core.ProxySlot
}

// buildChaosTopo stands the deployment up. originCfg/edgeCfg mutate each
// generation's proxy config before it is built (the injector hook-in
// point); either may be nil.
func buildChaosTopo(t *testing.T, originCfg, edgeCfg func(*proxy.Config)) *chaosTopo {
	t.Helper()
	dir := t.TempDir()

	brokerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broker := mqtt.NewBroker("broker", nil)
	go broker.Serve(brokerLn)
	t.Cleanup(func() { brokerLn.Close(); broker.Close() })

	app := &core.AppServerSlot{
		SlotName: "as",
		Build: func() *appserver.Server {
			return appserver.New(appserver.Config{Name: "as", DrainPeriod: 100 * time.Millisecond}, nil)
		},
	}
	if err := app.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)

	originGen := 0
	origin := &core.ProxySlot{
		SlotName: "origin",
		Path:     filepath.Join(dir, "origin.sock"),
		Build: func() *proxy.Proxy {
			originGen++
			cfg := proxy.Config{
				Name:        fmt.Sprintf("origin-g%d", originGen),
				Role:        proxy.RoleOrigin,
				AppServers:  []string{app.Addr()},
				Brokers:     []string{brokerLn.Addr().String()},
				DrainPeriod: 400 * time.Millisecond,
			}
			if originCfg != nil {
				originCfg(&cfg)
			}
			return proxy.New(cfg, nil)
		},
	}
	if err := origin.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(origin.Close)

	tunnelAddr := origin.Current().Addr(proxy.VIPTunnel)
	edgeGen := 0
	edge := &core.ProxySlot{
		SlotName: "edge",
		Path:     filepath.Join(dir, "edge.sock"),
		Build: func() *proxy.Proxy {
			edgeGen++
			cfg := proxy.Config{
				Name:          fmt.Sprintf("edge-g%d", edgeGen),
				Role:          proxy.RoleEdge,
				Origins:       []string{tunnelAddr},
				DrainPeriod:   400 * time.Millisecond,
				StaticContent: map[string][]byte{"/cached": []byte("dsr-bytes")},
			}
			if edgeCfg != nil {
				edgeCfg(&cfg)
			}
			return proxy.New(cfg, nil)
		},
	}
	if err := edge.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)
	return &chaosTopo{broker: broker, brokerLn: brokerLn, app: app, origin: origin, edge: edge}
}

// doHTTP runs one request on a fresh connection and checks the echo.
func doHTTP(addr, method, path string, body []byte) error {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	var r *http1.Request
	if body != nil {
		r = http1.NewRequest(method, path, bytes.NewReader(body), int64(len(body)))
	} else {
		r = http1.NewRequest(method, path, nil, 0)
	}
	if _, err := http1.WriteRequest(conn, r); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	echoed, err := http1.ReadFullBody(resp.Body)
	if err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if body != nil && !bytes.Equal(echoed, body) {
		return fmt.Errorf("echo mismatch: %d bytes, want %d", len(echoed), len(body))
	}
	return nil
}

// httpLoad alternates GETs and POSTs until stop closes.
func httpLoad(addr string, stop chan struct{}, ok, failed *atomic.Int64, lastErr *atomic.Value) chan struct{} {
	done := make(chan struct{})
	body := bytes.Repeat([]byte("post-payload "), 300) // ~3.9 KiB
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = doHTTP(addr, "GET", "/hello", nil)
			} else {
				err = doHTTP(addr, "POST", "/upload", body)
			}
			if err != nil {
				failed.Add(1)
				lastErr.Store(err)
			} else {
				ok.Add(1)
			}
		}
	}()
	return done
}

// TestChaosRollingRestartZeroDisruption is the headline: transport-level
// faults (delays, read stalls, split writes) on every hop, an origin
// restart AND an edge restart under live HTTP load plus a relayed MQTT
// session — and the client sees zero failures. The MQTT session must
// survive the origin restart via DCR (§4.2).
func TestChaosRollingRestartZeroDisruption(t *testing.T) {
	transportOnly := faults.Scenario{
		Seed:             101,
		DialDelayRate:    0.3,
		DialDelayMax:     5 * time.Millisecond,
		WriteDelayRate:   0.15,
		WriteDelayMax:    2 * time.Millisecond,
		PartialWriteRate: 0.2,
		ReadStallRate:    0.15,
		ReadStallMax:     2 * time.Millisecond,
	}
	originDial := faults.NewInjector(transportOnly)
	edgeDial := faults.NewInjector(faults.Scenario(transportOnly))
	originAccept := faults.NewInjector(faults.Scenario{
		Seed:             202,
		PartialWriteRate: 0.2,
		ReadStallRate:    0.1,
		ReadStallMax:     2 * time.Millisecond,
	})
	brokerAccept := faults.NewInjector(faults.Scenario{
		Seed:          303,
		ReadStallRate: 0.1,
		ReadStallMax:  2 * time.Millisecond,
	})

	tp := buildChaosTopo(t,
		func(cfg *proxy.Config) { cfg.Faults = originDial; cfg.AcceptFaults = originAccept },
		func(cfg *proxy.Config) { cfg.Faults = edgeDial },
	)
	tp.broker.SetFaults(brokerAccept)

	addr := tp.edge.Current().Addr(proxy.VIPWeb)
	stop := make(chan struct{})
	var ok, failed atomic.Int64
	var lastErr atomic.Value
	done := httpLoad(addr, stop, &ok, &failed, &lastErr)

	// A relayed MQTT session rides through the origin restart.
	mconn, err := net.DialTimeout("tcp", tp.edge.Current().Addr(proxy.VIPMQTT), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mc := mqtt.NewClient(mconn, "user-chaos", true)
	if _, err := mc.Connect(0, 5*time.Second); err != nil {
		t.Fatalf("mqtt connect: %v", err)
	}
	defer mc.Disconnect()
	if err := mc.Subscribe(5*time.Second, "notif/user-chaos"); err != nil {
		t.Fatal(err)
	}

	time.Sleep(100 * time.Millisecond) // let load ramp on gen 1

	if err := tp.origin.Restart(); err != nil {
		t.Fatalf("origin restart: %v", err)
	}
	// DCR: the relay must come back attached (same client conn) after the
	// draining origin solicits a re_connect. The session stays attached
	// through its old path until the re_connect moves it, so attachment
	// alone does not say the splice is done; the Edge's ack count does.
	// (Restart used to return 50 ms after the drain began, which hid the
	// difference.)
	deadline := time.Now().Add(5 * time.Second)
	for !(tp.broker.SessionAttached("user-chaos") && tp.edge.Current().Metrics().CounterValue("edge.mqtt.reconnect.ack") > 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-mc.Done():
		t.Fatal("MQTT client dropped during origin restart")
	default:
	}
	if n := tp.broker.Publish("notif/user-chaos", []byte("post-restart")); n != 1 {
		t.Fatalf("post-restart publish delivered to %d sessions", n)
	}
	select {
	case m := <-mc.Messages():
		if string(m.Payload) != "post-restart" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-restart notification lost")
	}
	if err := mc.Ping(5 * time.Second); err != nil {
		t.Fatalf("post-restart ping: %v", err)
	}

	// MQTT disconnects cleanly before the edge restart: an edge restart
	// terminates long-lived client transports after the drain window by
	// design (the paper drains for 20 minutes; clients reconnect).
	mc.Disconnect()

	if err := tp.edge.Restart(); err != nil {
		t.Fatalf("edge restart: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // load runs across the drain

	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed under faults+restarts; last: %v",
			f, f+ok.Load(), lastErr.Load())
	}
	if ok.Load() < 20 {
		t.Fatalf("only %d requests completed — load loop starved", ok.Load())
	}

	// The schedules actually fired (otherwise this test proves nothing).
	for name, in := range map[string]*faults.Injector{
		"origin-dial": originDial, "edge-dial": edgeDial, "origin-accept": originAccept,
	} {
		if in.InjectedTotal() == 0 {
			t.Errorf("injector %s never fired", name)
		}
	}
	// Classification: the surviving generations saw no user-facing errors.
	edgeReg := tp.edge.Current().Metrics()
	for _, c := range []string{"edge.http.errors.no_origin", "edge.http.errors.open_stream", "edge.http.errors.upstream"} {
		if v := edgeReg.CounterValue(c); v != 0 {
			t.Errorf("%s = %d on the serving edge generation", c, v)
		}
	}
	if v := tp.origin.Current().Metrics().CounterValue("origin.http.ppr_exhausted"); v != 0 {
		t.Errorf("origin.http.ppr_exhausted = %d", v)
	}
}

// TestChaosDialFailuresAbsorbedByRetries injects hard faults — failed
// dials and RST-style aborts — on the origin→app-server hop. The §4.4
// retry path (now paced by faults.Backoff) must absorb every one: the
// client sees only 200s while origin.http.attempt_errors counts the
// carnage underneath.
func TestChaosDialFailuresAbsorbedByRetries(t *testing.T) {
	hard := faults.NewInjector(faults.Scenario{
		Seed:         404,
		DialFailRate: 0.25,
		AbortRate:    0.1,
		MaxOps:       8,
	})
	tp := buildChaosTopo(t, func(cfg *proxy.Config) {
		cfg.Faults = hard
		cfg.PPRRetries = 15
		cfg.RetryBackoff = faults.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2}
	}, nil)

	addr := tp.edge.Current().Addr(proxy.VIPWeb)
	for i := 0; i < 150; i++ {
		if err := doHTTP(addr, "GET", "/r", nil); err != nil {
			t.Fatalf("request %d escaped the retry net: %v", i, err)
		}
	}
	if hard.Injected(faults.OpFailDial) == 0 {
		t.Fatal("no dial failures injected — scenario rates too low for the traffic")
	}
	if hard.Injected(faults.OpAbort) == 0 {
		t.Fatal("no aborts injected")
	}
	if tp.origin.Current().Metrics().CounterValue("origin.http.attempt_errors") == 0 {
		t.Fatal("origin absorbed zero attempt errors — faults never reached the retry path")
	}
}

// TestChaosUDPBoundedLoss covers the §3 UDP story: datagram drops on the
// client path are absorbed by bounded retransmission, across an edge
// restart (the UDP socket transfers; new flows land on the new
// generation). "Bounded" means every request completes within the retry
// budget — and the drop schedule demonstrably fired.
func TestChaosUDPBoundedLoss(t *testing.T) {
	dir := t.TempDir()
	gen := 0
	edge := &core.ProxySlot{
		SlotName: "edge-q",
		Path:     filepath.Join(dir, "edge-q.sock"),
		Build: func() *proxy.Proxy {
			gen++
			return proxy.New(proxy.Config{
				Name:          fmt.Sprintf("edge-q-g%d", gen),
				Role:          proxy.RoleEdge,
				Origins:       []string{"127.0.0.1:1"}, // static-only
				EnableQUIC:    true,
				DrainPeriod:   500 * time.Millisecond,
				StaticContent: map[string][]byte{"/video/seg1": []byte("segment-one")},
			}, nil)
		},
	}
	if err := edge.Start(); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	serverAddr, err := net.ResolveUDPAddr("udp", edge.Current().Addr(proxy.VIPQUIC))
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	drops := faults.NewInjector(faults.Scenario{Seed: 505, DropRate: 0.25, MaxOps: 1024})
	fpc := drops.PacketConn(pc)

	const retryBudget = 10
	request := func(typ quicx.PacketType, id quicx.ConnID) error {
		raw := quicx.Marshal(quicx.Packet{Type: typ, Conn: id, Payload: []byte("/video/seg1")})
		buf := make([]byte, 64<<10)
		for attempt := 0; attempt < retryBudget; attempt++ {
			if _, err := fpc.WriteTo(raw, serverAddr); err != nil {
				return err
			}
			fpc.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			n, _, err := fpc.ReadFrom(buf)
			if err != nil {
				continue // reply or request dropped: retransmit
			}
			p, err := quicx.Unmarshal(buf[:n])
			if err != nil || p.Conn != id {
				continue
			}
			if !bytes.HasSuffix(p.Payload, []byte("|segment-one")) {
				return fmt.Errorf("reply = %q", p.Payload)
			}
			return nil
		}
		return errors.New("request lost beyond the retry budget")
	}

	// Flow 1 on generation 1.
	if err := request(quicx.PktInitial, 1); err != nil {
		t.Fatalf("open flow 1: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := request(quicx.PktData, 1); err != nil {
			t.Fatalf("flow 1 send %d: %v", i, err)
		}
	}

	if err := edge.Restart(); err != nil {
		t.Fatalf("edge restart: %v", err)
	}

	// Fresh flows land on generation 2 over the same, never-closed socket.
	for id := quicx.ConnID(2); id < 7; id++ {
		if err := request(quicx.PktInitial, id); err != nil {
			t.Fatalf("post-restart flow %d: %v", id, err)
		}
		if err := request(quicx.PktData, id); err != nil {
			t.Fatalf("post-restart flow %d data: %v", id, err)
		}
	}

	if drops.Injected(faults.OpDropPacket) == 0 {
		t.Fatal("no datagrams dropped — the loss schedule never fired")
	}
}
