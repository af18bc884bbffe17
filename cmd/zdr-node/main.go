// Command zdr-node runs one node of a topology spec (fleet.Spec as JSON,
// see internal/fleet/testdata/spec.json): the broker, an app server, an
// Origin or an Edge, wired from the state files its upstream tier wrote
// in the spec's dir. SIGTERM drains it. Started again while it runs, a
// proxy node takes the sockets over through <dir>/<node>.sock: a release
// is the same command started again.
//
//	zdr-node -spec topo.json -node origin-00 &
//	zdr-node -spec topo.json -node origin-00 &   # releases origin-00
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zdr/internal/core"
	"zdr/internal/disrupt"
	"zdr/internal/fleet"
	"zdr/internal/metrics"
	"zdr/internal/netx"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

func main() {
	specPath := flag.String("spec", "", "topology spec file (JSON)")
	name := flag.String("node", "", "node to run: broker, as-NN, origin-NN or edge-NN")
	admin := flag.String("admin", "", "admin endpoint bind address (/metrics, /healthz, /debug/release, /debug/disruption); empty disables")
	profile := flag.Bool("profile", false, "expose /debug/pprof/ and sample Go runtime gauges on the admin endpoint")
	flag.Parse()

	var spec fleet.Spec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		log.Fatalf("spec: %v", err)
	}
	// Every terminal connection failure is attributed to (cause, release
	// phase, generation) in the ledger, served at /debug/disruption.
	led, tracer := disrupt.New(*name, 0), (*obs.Tracer)(nil)
	if *admin != "" {
		tracer = obs.NewTracer(*name)
	}
	spec.Build = func(_ int, cfg *proxy.Config) { cfg.Ledger, cfg.Trace = led, tracer }
	start := time.Now()
	n, err := fleet.StartNode(spec, *name)
	if errors.Is(err, core.ErrTakeoverNotArmed) {
		log.Printf("serving on, maybe with the only listeners left: %v", err)
	} else if err != nil {
		log.Fatalf("%v", err)
	}
	if n.Proxy != nil && n.Proxy.State().Takeovers > 0 {
		fmt.Printf("%s: took over %d sockets in %v (old instance draining)\n", *name, len(n.Proxy.Current().VIPAddrs()), time.Since(start))
	} else {
		fmt.Printf("%s: listening\n", *name)
	}
	for _, vip := range []string{proxy.VIPWeb, proxy.VIPMQTT, proxy.VIPTunnel, proxy.VIPHealth, proxy.VIPQUIC, "http"} {
		if addr := n.Addr(vip); addr != "" {
			fmt.Printf("  %-7s %s\n", vip, addr)
		}
	}
	a := &obs.Admin{Service: *name, Registry: n.Reg, Draining: n.Draining, Profile: *profile,
		Extra: []*metrics.Registry{netx.RelayMetrics()},
		Debug: map[string]func() any{"disruption": func() any { return led.ReportRecent(64) }}}
	if n.Proxy != nil {
		if n.Proxy.State().ArmError == "" {
			fmt.Printf("  takeover path %s armed\n", n.Proxy.Path)
		}
		p := n.Proxy.Current()
		a.Tracer, a.ReleaseState = p.Tracer(), p.ReleaseState
	}
	if *admin != "" {
		if *profile {
			defer obs.StartRuntimeStats(n.Reg, 0)()
		}
		srv, err := a.Start(*admin)
		if err != nil {
			log.Fatalf("admin listener: %v", err)
		}
		defer srv.Close()
		fmt.Printf("%s: admin on http://%s\n", *name, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: draining ...\n", *name)
	n.Stop()
	fmt.Printf("%s: bye\n", *name)
}
