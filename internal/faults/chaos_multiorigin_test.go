// Multi-Origin DCR chaos: the §4.2 requirement the single-origin suite
// cannot exercise — when the Origin relaying an MQTT session drains for a
// restart, the Edge must re_connect through a DIFFERENT healthy Origin
// (the draining instance's address is excluded, and after a Socket
// Takeover its successor shares that address). The session must survive
// with zero client-visible disruption while transport faults run on every
// hop.
package faults_test

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/core"
	"zdr/internal/faults"
	"zdr/internal/mqtt"
	"zdr/internal/proxy"
)

// multiOriginTopo is a deployment with one Edge fanning out to two
// independently restartable Origins sharing one broker + app tier.
type multiOriginTopo struct {
	broker  *mqtt.Broker
	origins [2]*core.ProxySlot
	edge    *core.ProxySlot
}

func buildMultiOriginTopo(t *testing.T, originCfg, edgeCfg func(*proxy.Config)) *multiOriginTopo {
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

	tp := &multiOriginTopo{broker: broker}
	tunnels := make([]string, 0, 2)
	for i := range tp.origins {
		i := i
		gen := 0
		slot := &core.ProxySlot{
			SlotName: fmt.Sprintf("origin-%c", 'a'+i),
			Path:     filepath.Join(dir, fmt.Sprintf("origin-%c.sock", 'a'+i)),
			Build: func() *proxy.Proxy {
				gen++
				cfg := proxy.Config{
					Name:        fmt.Sprintf("origin-%c-g%d", 'a'+i, gen),
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
		if err := slot.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(slot.Close)
		tp.origins[i] = slot
		tunnels = append(tunnels, slot.Current().Addr(proxy.VIPTunnel))
	}

	edgeGen := 0
	tp.edge = &core.ProxySlot{
		SlotName: "edge",
		Path:     filepath.Join(dir, "edge.sock"),
		Build: func() *proxy.Proxy {
			edgeGen++
			cfg := proxy.Config{
				Name:        fmt.Sprintf("edge-g%d", edgeGen),
				Role:        proxy.RoleEdge,
				Origins:     tunnels,
				DrainPeriod: 400 * time.Millisecond,
			}
			if edgeCfg != nil {
				edgeCfg(&cfg)
			}
			return proxy.New(cfg, nil)
		},
	}
	if err := tp.edge.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.edge.Close)
	return tp
}

func TestChaosMultiOriginDCRReconnect(t *testing.T) {
	transport := faults.Scenario{
		Seed:             606,
		DialDelayRate:    0.3,
		DialDelayMax:     5 * time.Millisecond,
		WriteDelayRate:   0.15,
		WriteDelayMax:    2 * time.Millisecond,
		PartialWriteRate: 0.2,
		ReadStallRate:    0.15,
		ReadStallMax:     2 * time.Millisecond,
	}
	originDial := faults.NewInjector(transport)
	edgeDial := faults.NewInjector(faults.Scenario(transport))
	tp := buildMultiOriginTopo(t,
		func(cfg *proxy.Config) { cfg.Faults = originDial },
		func(cfg *proxy.Config) { cfg.Faults = edgeDial },
	)

	// A persistent MQTT session relayed Edge → some Origin → broker.
	mconn, err := net.DialTimeout("tcp", tp.edge.Current().Addr(proxy.VIPMQTT), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mc := mqtt.NewClient(mconn, "user-dcr-multi", true)
	if _, err := mc.Connect(0, 5*time.Second); err != nil {
		t.Fatalf("mqtt connect: %v", err)
	}
	defer mc.Disconnect()
	if err := mc.Subscribe(5*time.Second, "notif/user-dcr-multi"); err != nil {
		t.Fatal(err)
	}

	// Find which Origin carries the relay; the other must pick it up.
	relayIdx := -1
	deadline := time.Now().Add(3 * time.Second)
	for relayIdx < 0 && time.Now().Before(deadline) {
		for i, o := range tp.origins {
			if o.Current().Metrics().CounterValue("origin.mqtt.relays") > 0 {
				relayIdx = i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if relayIdx < 0 {
		t.Fatal("no origin reports the MQTT relay")
	}
	relaying, other := tp.origins[relayIdx], tp.origins[1-relayIdx]

	// Restart the relaying Origin. Its drain solicits re_connect; the
	// Edge must route the resume around the draining instance — and
	// around its successor, which inherits the same tunnel address via
	// Socket Takeover.
	if err := relaying.Restart(); err != nil {
		t.Fatalf("restart of relaying origin: %v", err)
	}

	// The session stays attached through its old path until the
	// re_connect moves it: the Edge's ack count is what says the splice is
	// done. (Restart used to return 50 ms after the drain began, which hid
	// the difference.)
	deadline = time.Now().Add(5 * time.Second)
	for !(tp.broker.SessionAttached("user-dcr-multi") && tp.edge.Current().Metrics().CounterValue("edge.mqtt.reconnect.ack") > 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !tp.broker.SessionAttached("user-dcr-multi") {
		t.Fatal("broker session never re-attached after the relaying origin drained")
	}
	select {
	case <-mc.Done():
		t.Fatal("MQTT client dropped during the origin restart")
	default:
	}

	// The resume went through the OTHER Origin — §4.2's "another healthy
	// LB" — not through the restarted slot's new generation.
	if got := other.Current().Metrics().CounterValue("origin.mqtt.resume_ack"); got < 1 {
		t.Errorf("other origin origin.mqtt.resume_ack = %d, want >= 1", got)
	}
	if got := relaying.Current().Metrics().CounterValue("origin.mqtt.resume_ack"); got != 0 {
		t.Errorf("restarted origin's new generation handled %d resumes; the draining address must be excluded", got)
	}
	if got := other.Current().Metrics().CounterValue("origin.mqtt.resume_refused"); got != 0 {
		t.Errorf("origin.mqtt.resume_refused = %d, want 0", got)
	}
	if got := tp.edge.Current().Metrics().CounterValue("edge.mqtt.reconnect.ack"); got < 1 {
		t.Errorf("edge.mqtt.reconnect.ack = %d, want >= 1", got)
	}

	// The session works end-to-end through its new path.
	if n := tp.broker.Publish("notif/user-dcr-multi", []byte("via-other-origin")); n != 1 {
		t.Fatalf("post-restart publish delivered to %d sessions, want 1", n)
	}
	select {
	case m := <-mc.Messages():
		if string(m.Payload) != "via-other-origin" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-restart notification lost")
	}
	if err := mc.Ping(5 * time.Second); err != nil {
		t.Fatalf("post-restart ping: %v", err)
	}

	// The fault schedules demonstrably ran.
	if originDial.InjectedTotal() == 0 {
		t.Error("origin-side injector never fired")
	}
	if edgeDial.InjectedTotal() == 0 {
		t.Error("edge-side injector never fired")
	}
}
