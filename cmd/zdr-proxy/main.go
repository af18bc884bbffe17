// Command zdr-proxy runs a Proxygen-style L7 proxy (Edge or Origin role)
// with Socket Takeover support. It is the production-shaped deployment of
// the library: run the first generation with -takeover-path, then deploy a
// new binary with the same flags plus -takeover-from to restart with zero
// downtime — the new process receives the listening sockets over the UNIX
// socket and the old one drains and exits.
//
// Example (Origin):
//
//	zdr-proxy -role origin -app 127.0.0.1:9001 -broker 127.0.0.1:9100 \
//	          -tunnel 127.0.0.1:8300 -health 127.0.0.1:8301 \
//	          -takeover-path /tmp/origin.sock
//
// Example (Edge):
//
//	zdr-proxy -role edge -origin 127.0.0.1:8300 \
//	          -web 127.0.0.1:8080 -mqtt 127.0.0.1:8883 -health 127.0.0.1:8081 \
//	          -takeover-path /tmp/edge.sock
//
// Zero-downtime restart of either:
//
//	zdr-proxy <same flags> -takeover-from /tmp/edge.sock
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/metrics"
	"zdr/internal/netx"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

func main() {
	role := flag.String("role", "edge", "proxy role: edge | origin")
	name := flag.String("name", "", "instance name (default <role>-<pid>)")
	origins := flag.String("origin", "", "comma-separated origin tunnel addresses (edge role)")
	originHealth := flag.String("origin-health", "", "comma-separated origin health VIP addresses, parallel to -origin (enables load probing for -steering prequal)")
	steering := flag.String("steering", "", "origin steering policy: maglev | prequal (edge role; empty keeps legacy round-robin failover)")
	apps := flag.String("app", "", "comma-separated app server addresses (origin role)")
	brokers := flag.String("broker", "", "comma-separated MQTT broker addresses (origin role)")
	web := flag.String("web", "", "web VIP bind address (edge)")
	mqttAddr := flag.String("mqtt", "", "mqtt VIP bind address (edge)")
	tunnel := flag.String("tunnel", "", "tunnel VIP bind address (origin)")
	health := flag.String("health", "", "health VIP bind address")
	drain := flag.Duration("drain", 20*time.Second, "drain period on shutdown")
	takeoverPath := flag.String("takeover-path", "", "UNIX socket path to serve Socket Takeover on")
	takeoverFrom := flag.String("takeover-from", "", "take the listening sockets over from the instance at this path")
	admin := flag.String("admin", "", "admin endpoint bind address (/metrics, /healthz, /debug/release, /debug/disruption); empty disables")
	profile := flag.Bool("profile", false, "expose /debug/pprof/ and sample Go runtime gauges on the admin endpoint")
	generation := flag.Int("generation", 1, "process generation for disruption-ledger attribution (bump on each deploy)")
	flag.Parse()

	cfg := proxy.Config{
		Name:        *name,
		DrainPeriod: *drain,
		VIPAddrs:    map[string]string{},
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("%s-%d", *role, os.Getpid())
	}
	switch *role {
	case "edge":
		cfg.Role = proxy.RoleEdge
		cfg.Origins = split(*origins)
		if len(cfg.Origins) == 0 {
			fatal("edge role requires -origin")
		}
		setAddr(cfg.VIPAddrs, proxy.VIPWeb, *web)
		setAddr(cfg.VIPAddrs, proxy.VIPMQTT, *mqttAddr)
		cfg.Steering = *steering
		cfg.OriginHealth = split(*originHealth)
		if n := len(cfg.OriginHealth); n != 0 && n != len(cfg.Origins) {
			fatal("-origin-health must list one health address per -origin entry (%d vs %d)", n, len(cfg.Origins))
		}
	case "origin":
		cfg.Role = proxy.RoleOrigin
		cfg.AppServers = split(*apps)
		cfg.Brokers = split(*brokers)
		if len(cfg.AppServers) == 0 && len(cfg.Brokers) == 0 {
			fatal("origin role requires -app and/or -broker")
		}
		setAddr(cfg.VIPAddrs, proxy.VIPTunnel, *tunnel)
	default:
		fatal("unknown role %q", *role)
	}
	setAddr(cfg.VIPAddrs, proxy.VIPHealth, *health)
	if *admin != "" {
		cfg.Trace = obs.NewTracer(cfg.Name)
	}

	// Every terminal connection failure is attributed to (cause, release
	// phase, generation) in the ledger, served at /debug/disruption and
	// scraped by the operator's telemetry pipeline.
	led := disrupt.New(cfg.Name, 0)
	cfg.Ledger = led
	cfg.Generation = *generation

	p := proxy.New(cfg, nil)
	if *admin != "" {
		a := &obs.Admin{
			Service:      cfg.Name,
			Registry:     p.Metrics(),
			Tracer:       p.Tracer(),
			Draining:     p.Draining,
			ReleaseState: p.ReleaseState,
			Profile:      *profile,
			Extra:        []*metrics.Registry{netx.RelayMetrics()},
			Debug: map[string]func() any{
				"disruption": func() any { return led.ReportRecent(64) },
			},
		}
		if *profile {
			stopStats := obs.StartRuntimeStats(p.Metrics(), 0)
			defer stopStats()
		}
		srv, err := a.Start(*admin)
		if err != nil {
			fatal("admin listener: %v", err)
		}
		defer srv.Close()
		fmt.Printf("%s: admin on http://%s\n", cfg.Name, srv.Addr())
	}
	if *takeoverFrom != "" {
		res, err := p.TakeoverFrom(*takeoverFrom)
		if err != nil {
			// A pre-commit abort (takeover.ErrAborted) means the old
			// instance kept serving and a redeploy can simply run again;
			// either way this process has nothing to serve.
			fatal("takeover from %s: %v", *takeoverFrom, err)
		}
		fmt.Printf("%s: took over %d sockets in %v via protocol v%d (old instance draining)\n",
			cfg.Name, len(res.VIPs), res.Duration, res.Proto)
	} else {
		if err := p.Listen(); err != nil {
			fatal("listen: %v", err)
		}
		fmt.Printf("%s: listening\n", cfg.Name)
	}
	for _, vip := range []string{proxy.VIPWeb, proxy.VIPMQTT, proxy.VIPTunnel, proxy.VIPHealth} {
		if addr := p.Addr(vip); addr != "" {
			fmt.Printf("  %-7s %s\n", vip, addr)
		}
	}
	if *takeoverPath != "" {
		if err := serveTakeoverWithRetry(p, *takeoverPath); err != nil {
			fatal("takeover server: %v", err)
		}
		fmt.Printf("  takeover path %s armed\n", *takeoverPath)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: draining for %v ...\n", cfg.Name, *drain)
	p.Shutdown()
	fmt.Printf("%s: bye\n", cfg.Name)
}

// serveTakeoverWithRetry absorbs the window in which the previous
// generation's takeover server is still releasing the socket path.
func serveTakeoverWithRetry(p *proxy.Proxy, path string) error {
	bo := faults.Backoff{Base: 50 * time.Millisecond, Max: 250 * time.Millisecond, Factor: 2, Attempts: 20}
	return bo.Retry(context.Background(), func() error {
		return p.ServeTakeover(path)
	})
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func setAddr(m map[string]string, vip, addr string) {
	if addr != "" {
		m[vip] = addr
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
