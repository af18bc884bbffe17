package experiments

import (
	"fmt"
	"net"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/mqtt"
	"zdr/internal/proxy"
)

// testbed is a real localhost deployment of the full topology: MQTT
// broker, app servers, Origin proxies, one Edge proxy. The real-socket
// experiments (F9, F12, F17, T-A) run against it.
type testbed struct {
	broker     *mqtt.Broker
	brokerAddr string
	apps       []*appserver.Server
	appAddrs   []string
	origins    []*proxy.Proxy
	edge       *proxy.Proxy

	brokerLn net.Listener
}

// testbedConfig sizes the deployment.
type testbedConfig struct {
	apps        int
	origins     int
	drainPeriod time.Duration
}

// newTestbed deploys the topology.
func newTestbed(cfg testbedConfig) (*testbed, error) {
	if cfg.apps <= 0 {
		cfg.apps = 1
	}
	if cfg.origins <= 0 {
		cfg.origins = 1
	}
	if cfg.drainPeriod <= 0 {
		cfg.drainPeriod = 200 * time.Millisecond
	}
	tb := &testbed{}
	ok := false
	defer func() {
		if !ok {
			tb.close()
		}
	}()

	tb.broker = mqtt.NewBroker("broker-1", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tb.brokerLn = ln
	tb.brokerAddr = ln.Addr().String()
	go tb.broker.Serve(ln)

	for i := 0; i < cfg.apps; i++ {
		as := appserver.New(appserver.Config{
			Name:         fmt.Sprintf("as-%d", i),
			Mode:         appserver.ModePPR,
			DrainPeriod:  50 * time.Millisecond,
			GraceWindow:  300 * time.Millisecond,
			GraceSilence: 60 * time.Millisecond,
		}, nil)
		addr, err := as.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		tb.apps = append(tb.apps, as)
		tb.appAddrs = append(tb.appAddrs, addr)
	}

	var originAddrs []string
	for i := 0; i < cfg.origins; i++ {
		o := proxy.New(proxy.Config{
			Name:        fmt.Sprintf("origin-%d", i),
			Role:        proxy.RoleOrigin,
			AppServers:  tb.appAddrs,
			Brokers:     []string{tb.brokerAddr},
			DrainPeriod: cfg.drainPeriod,
		}, nil)
		if err := o.Listen(); err != nil {
			return nil, err
		}
		tb.origins = append(tb.origins, o)
		originAddrs = append(originAddrs, o.Addr(proxy.VIPTunnel))
	}

	tb.edge = proxy.New(proxy.Config{
		Name:          "edge-0",
		Role:          proxy.RoleEdge,
		Origins:       originAddrs,
		DrainPeriod:   cfg.drainPeriod,
		StaticContent: map[string][]byte{"/static/ping": []byte("pong")},
	}, nil)
	if err := tb.edge.Listen(); err != nil {
		return nil, err
	}
	ok = true
	return tb, nil
}

// close tears everything down.
func (tb *testbed) close() {
	if tb.edge != nil {
		tb.edge.Close()
	}
	for _, o := range tb.origins {
		o.Close()
	}
	for _, as := range tb.apps {
		as.Close()
	}
	if tb.brokerLn != nil {
		tb.brokerLn.Close()
	}
	if tb.broker != nil {
		tb.broker.Close()
	}
}

// dialMQTT connects an MQTT client through the edge.
func (tb *testbed) dialMQTT(userID string, timeout time.Duration) (*mqtt.Client, error) {
	conn, err := net.DialTimeout("tcp", tb.edge.Addr(proxy.VIPMQTT), timeout)
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

// servingOrigin returns the index of the Origin currently relaying MQTT
// connections, or -1.
func (tb *testbed) servingOrigin() int {
	for i, o := range tb.origins {
		if o.Metrics().GaugeValue("origin.mqtt.active") > 0 {
			return i
		}
	}
	return -1
}
