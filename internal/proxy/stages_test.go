package proxy

import (
	"bufio"
	"net"
	"testing"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/faults"
	"zdr/internal/h2t"
	"zdr/internal/http1"
)

// bareOrigin is a tunnel endpoint that hands every stream it accepts to
// serve, each on a goroutine of its own, and returns its address. Its
// sessions end when the Edge closes its tunnels.
func bareOrigin(t *testing.T, serve func(*h2t.Stream)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sess := h2t.NewSession(c, false)
			go func() {
				for {
					st, err := sess.Accept()
					if err != nil {
						return
					}
					go serve(st)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// ledgered starts a proxy of cfg's role with a ledger of its own.
func ledgered(t *testing.T, cfg Config) (*Proxy, *disrupt.Ledger) {
	t.Helper()
	led := disrupt.New(cfg.Name, 256)
	cfg.Ledger = led
	p := New(cfg, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, led
}

// statusOf sends a GET to web and returns the status it is answered with.
func statusOf(web string) (int, error) {
	conn, err := net.DialTimeout("tcp", web, 2*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/api/feed", nil, 0)); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// TestTerminalStages drives one request into each HTTP terminal stage of
// the tunnelled path and checks what the stage table says of it: the
// status the client gets, one ledger event of the stage's kind and cause
// at the tier that gave up, and one increment of the stage's counter.
func TestTerminalStages(t *testing.T) {
	hold := func(*h2t.Stream) {} // never answers
	reset := func(st *h2t.Stream) { st.Reset() }
	edgeTo := func(t *testing.T, origin string, cfg Config) (*Proxy, *disrupt.Ledger) {
		cfg.Name, cfg.Role, cfg.Origins = "edge-st", RoleEdge, []string{origin}
		return ledgered(t, cfg)
	}
	originFor := func(t *testing.T, cfg Config) (*Proxy, *disrupt.Ledger) {
		cfg.Name, cfg.Role, cfg.RetryBackoff = "origin-st", RoleOrigin, backoffForTests
		return ledgered(t, cfg)
	}
	for _, c := range []struct {
		name, kind, cause, counter string
		status                     int
		// start returns the Edge's web VIP, the proxy that records the
		// stage, its ledger, and what cuts the request once it is in
		// flight (nil for none).
		start func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func())
	}{
		{"no-origin", "reset", "edge:no-origin", "edge.http.errors.no_origin", 503,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				e, led := edgeTo(t, "127.0.0.1:1", Config{dialTimeout: 200 * time.Millisecond})
				return e.Addr(VIPWeb), e, led, nil
			}},
		{"open-stream", "reset", "edge:open-stream", "edge.http.errors.open_stream", 502,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				// Every read and write of the tunnel connection fails.
				in := faults.NewInjector(faults.Scenario{Seed: 1, AbortRate: 1})
				e, led := edgeTo(t, bareOrigin(t, reset), Config{Faults: in})
				return e.Addr(VIPWeb), e, led, nil
			}},
		{"upstream-timeout", "timeout", "edge:upstream", "edge.http.errors.upstream", 504,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				e, led := edgeTo(t, bareOrigin(t, hold), Config{upstreamResponseTimeout: 100 * time.Millisecond})
				return e.Addr(VIPWeb), e, led, nil
			}},
		{"upstream-reset", "reset", "edge:upstream", "edge.http.errors.upstream", 502,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				e, led := edgeTo(t, bareOrigin(t, reset), Config{})
				return e.Addr(VIPWeb), e, led, nil
			}},
		{"ppr-exhausted", "reset", "origin:ppr-exhausted", "origin.http.ppr_exhausted", 500,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				o, led := originFor(t, Config{AppServers: []string{"127.0.0.1:1"}, PPRRetries: 1})
				e, _ := edgeTo(t, o.Addr(VIPTunnel), Config{})
				return e.Addr(VIPWeb), o, led, nil
			}},
		{"drain-expired", "reset", "drain-expired", "", 502,
			func(t *testing.T) (string, *Proxy, *disrupt.Ledger, func()) {
				arrived, release := make(chan struct{}, 1), make(chan struct{})
				app := newScriptedApp(t, func(_, _ int, _ *http1.Request, _ []byte) (string, bool) {
					arrived <- struct{}{}
					<-release
					return okReply("ok"), false
				})
				t.Cleanup(func() { close(release) })
				o, led := originFor(t, Config{AppServers: []string{app.ln.Addr().String()}})
				e, _ := edgeTo(t, o.Addr(VIPTunnel), Config{})
				// The Origin's generation ends under the request: the
				// forced end of its drain.
				return e.Addr(VIPWeb), o, led, func() { <-arrived; o.Close() }
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			web, rec, led, cut := c.start(t)
			got := make(chan int, 1)
			go func() {
				status, err := statusOf(web)
				if err != nil {
					t.Error(err)
				}
				got <- status
			}()
			if cut != nil {
				cut()
			}
			if status := <-got; status != c.status {
				t.Fatalf("status %d, want %d", status, c.status)
			}
			var ends []string
			for _, ev := range led.Recent(256) {
				if ev.Kind == "reset" || ev.Kind == "timeout" {
					ends = append(ends, ev.Kind+" "+ev.Cause)
				}
			}
			if want := c.kind + " " + c.cause; len(ends) != 1 || ends[0] != want {
				t.Fatalf("%s's ledger ends the request with %q, want [%s]", rec.Name(), ends, want)
			}
			if c.counter != "" {
				if n := rec.Metrics().CounterValue(c.counter); n != 1 {
					t.Fatalf("%s = %d, want 1", c.counter, n)
				}
			}
		})
	}
}
