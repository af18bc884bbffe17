// Command zdr-broker runs the MQTT pub/sub back-end. Sessions are keyed by
// user-id and retain connection context across relay hand-overs, which is
// the server side of Downstream Connection Reuse.
//
// Usage:
//
//	zdr-broker -addr 127.0.0.1:9100
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"zdr/internal/mqtt"
	"zdr/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	name := flag.String("name", "", "broker name (default broker-<pid>)")
	admin := flag.String("admin", "", "admin endpoint bind address (/metrics, /healthz); empty disables")
	profile := flag.Bool("profile", false, "expose /debug/pprof/ and sample Go runtime gauges on the admin endpoint")
	flag.Parse()
	if *name == "" {
		*name = fmt.Sprintf("broker-%d", os.Getpid())
	}

	b := mqtt.NewBroker(*name, nil)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: serving MQTT on %s\n", *name, ln.Addr())
	go b.Serve(ln)
	if *admin != "" {
		a := &obs.Admin{Service: *name, Registry: b.Metrics(), Profile: *profile}
		if *profile {
			stopStats := obs.StartRuntimeStats(b.Metrics(), 0)
			defer stopStats()
		}
		srv, err := a.Start(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("%s: admin on http://%s\n", *name, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	ln.Close()
	b.Close()
	fmt.Printf("%s: bye (%d sessions)\n", *name, b.SessionCount())
}
