package experiments

import (
	"fmt"
	"net"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/mqtt"
	"zdr/internal/proxy"
)

// Testbed is a real localhost deployment of the full topology: MQTT
// broker, app servers, Origin proxies, one Edge proxy. The real-socket
// experiments (F9, F12, F17, T-A) run against it.
type Testbed struct {
	Broker     *mqtt.Broker
	BrokerAddr string
	Apps       []*appserver.Server
	AppAddrs   []string
	Origins    []*proxy.Proxy
	Edge       *proxy.Proxy

	brokerLn net.Listener
}

// TestbedConfig sizes the deployment.
type TestbedConfig struct {
	Apps        int
	Origins     int
	AppMode     appserver.Mode
	DrainPeriod time.Duration
}

// NewTestbed deploys the topology.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.Apps <= 0 {
		cfg.Apps = 1
	}
	if cfg.Origins <= 0 {
		cfg.Origins = 1
	}
	if cfg.DrainPeriod <= 0 {
		cfg.DrainPeriod = 200 * time.Millisecond
	}
	tb := &Testbed{}
	ok := false
	defer func() {
		if !ok {
			tb.Close()
		}
	}()

	tb.Broker = mqtt.NewBroker("broker-1", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tb.brokerLn = ln
	tb.BrokerAddr = ln.Addr().String()
	go tb.Broker.Serve(ln)

	for i := 0; i < cfg.Apps; i++ {
		as := appserver.New(appserver.Config{
			Name:         fmt.Sprintf("as-%d", i),
			Mode:         cfg.AppMode,
			DrainPeriod:  50 * time.Millisecond,
			GraceWindow:  300 * time.Millisecond,
			GraceSilence: 60 * time.Millisecond,
		}, nil)
		addr, err := as.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		tb.Apps = append(tb.Apps, as)
		tb.AppAddrs = append(tb.AppAddrs, addr)
	}

	var originAddrs []string
	for i := 0; i < cfg.Origins; i++ {
		o := proxy.New(proxy.Config{
			Name:        fmt.Sprintf("origin-%d", i),
			Role:        proxy.RoleOrigin,
			AppServers:  tb.AppAddrs,
			Brokers:     []string{tb.BrokerAddr},
			DrainPeriod: cfg.DrainPeriod,
		}, nil)
		if err := o.Listen(); err != nil {
			return nil, err
		}
		tb.Origins = append(tb.Origins, o)
		originAddrs = append(originAddrs, o.Addr(proxy.VIPTunnel))
	}

	tb.Edge = proxy.New(proxy.Config{
		Name:          "edge-0",
		Role:          proxy.RoleEdge,
		Origins:       originAddrs,
		DrainPeriod:   cfg.DrainPeriod,
		StaticContent: map[string][]byte{"/static/ping": []byte("pong")},
	}, nil)
	if err := tb.Edge.Listen(); err != nil {
		return nil, err
	}
	ok = true
	return tb, nil
}

// Close tears everything down.
func (tb *Testbed) Close() {
	if tb.Edge != nil {
		tb.Edge.Close()
	}
	for _, o := range tb.Origins {
		o.Close()
	}
	for _, as := range tb.Apps {
		as.Close()
	}
	if tb.brokerLn != nil {
		tb.brokerLn.Close()
	}
	if tb.Broker != nil {
		tb.Broker.Close()
	}
}

// DialMQTT connects an MQTT client through the edge.
func (tb *Testbed) DialMQTT(userID string, timeout time.Duration) (*mqtt.Client, error) {
	conn, err := net.DialTimeout("tcp", tb.Edge.Addr(proxy.VIPMQTT), timeout)
	if err != nil {
		return nil, err
	}
	c := mqtt.NewClient(conn, userID, true)
	if _, err := c.Connect(0, timeout); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// ServingOrigin returns the index of the Origin currently relaying MQTT
// connections, or -1.
func (tb *Testbed) ServingOrigin() int {
	for i, o := range tb.Origins {
		if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
			return i
		}
	}
	return -1
}
