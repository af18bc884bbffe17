// Command zdr-appserver runs an HHVM-style application server with
// Partial Post Replay. SIGTERM triggers the paper's restart behaviour:
// drain briefly, hand in-flight POSTs back to the downstream proxy with
// 379, exit.
//
// Usage:
//
//	zdr-appserver -addr 127.0.0.1:9001 -mode ppr -drain 12s
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/http1"
	"zdr/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	name := flag.String("name", "", "instance name (default appserver-<pid>)")
	mode := flag.String("mode", "ppr", "in-flight POST handling on restart: ppr | 500 | 307")
	drain := flag.Duration("drain", 12*time.Second, "drain period")
	admin := flag.String("admin", "", "admin endpoint bind address (/metrics, /healthz); empty disables")
	profile := flag.Bool("profile", false, "expose /debug/pprof/ and sample Go runtime gauges on the admin endpoint")
	flag.Parse()

	var m appserver.Mode
	switch *mode {
	case "ppr":
		m = appserver.ModePPR
	case "500":
		m = appserver.ModeFail500
	case "307":
		m = appserver.ModeRedirect307
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *name == "" {
		*name = fmt.Sprintf("appserver-%d", os.Getpid())
	}

	srv := appserver.New(appserver.Config{
		Name:        *name,
		Mode:        m,
		DrainPeriod: *drain,
		Handler: func(req *http1.Request, body []byte) *http1.Response {
			// Echo service: the default app load generators drive;
			// GETs answer with a small status document.
			if req.Method == "GET" {
				doc := fmt.Sprintf("ok %s %s\n", *name, req.Target)
				return http1.NewResponse(200, bytes.NewReader([]byte(doc)), int64(len(doc)))
			}
			return http1.NewResponse(200, bytes.NewReader(body), int64(len(body)))
		},
	}, nil)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: serving on %s (mode=%s drain=%v)\n", *name, bound, *mode, *drain)
	if *admin != "" {
		a := &obs.Admin{Service: *name, Registry: srv.Metrics(), Draining: srv.Draining, Profile: *profile}
		if *profile {
			stopStats := obs.StartRuntimeStats(srv.Metrics(), 0)
			defer stopStats()
		}
		asrv, err := a.Start(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer asrv.Close()
		fmt.Printf("%s: admin on http://%s\n", *name, asrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: restart signalled; draining and handing back in-flight POSTs\n", *name)
	srv.Shutdown()
	fmt.Printf("%s: bye\n", *name)
}
