package faults_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/fleet"
	"zdr/internal/http1"
	"zdr/internal/proxy"
)

// slowPOST uploads body in pieces with a pause between them, so that an
// app-server restart finds it mid-body (the PPR case), and checks the echo.
func slowPOST(addr string, body []byte, pieces int, pause time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n", len(body)); err != nil {
		return fmt.Errorf("write head: %w", err)
	}
	step := (len(body) + pieces - 1) / pieces
	for off := 0; off < len(body); off += step {
		end := min(off+step, len(body))
		if _, err := conn.Write(body[off:end]); err != nil {
			return fmt.Errorf("write body: %w", err)
		}
		time.Sleep(pause)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
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
	if !bytes.Equal(echoed, body) {
		return fmt.Errorf("echo mismatch: %d bytes, want %d", len(echoed), len(body))
	}
	return nil
}

// TestChaosAppServerRestartKeepAlive rolls restarts over two app servers
// while GETs and 256 KiB POSTs ride the Origin's warm keep-alive
// connections to them. A restarting server is the hard case for a pool:
// its idle connections die, the one request that raced the drain must be
// served or resent rather than reset, and a POST caught mid-body must
// still come back as a 379 and be replayed byte for byte. The client sees
// nothing; the books say what happened underneath.
func TestChaosAppServerRestartKeepAlive(t *testing.T) {
	originLedger, edgeLedger := disrupt.New("origin", 0), disrupt.New("edge", 0)
	top := newTopology(t, fleet.Spec{
		Apps:    2,
		Origins: 1,
		Edges:   1,
		Drain:   100 * time.Millisecond,
		Build: func(_ int, cfg *proxy.Config) {
			cfg.Ledger = originLedger
			if cfg.Role == proxy.RoleEdge {
				cfg.Ledger = edgeLedger
			}
		},
	})
	apps := top.Apps
	addr := top.Edges[0].Addr(proxy.VIPWeb)

	post := make([]byte, 256<<10)
	for i := range post {
		post[i] = byte(i*7 + i>>8)
	}

	stop := make(chan struct{})
	var ok, failed atomic.Int64
	var lastErr atomic.Value
	var wg sync.WaitGroup
	worker := func(op func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(); err != nil {
					failed.Add(1)
					lastErr.Store(err.Error())
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	worker(func() error { return doHTTP(addr, "GET", "/hello", nil) })
	worker(func() error { return doHTTP(addr, "GET", "/hello", nil) })
	worker(func() error { return doHTTP(addr, "POST", "/upload", post) })
	// In flight for over half a second, the line quiet for longer than the
	// app server's GraceSilence (100 ms) between pieces: a restart that
	// catches it gets a partial body, not a late-completing one, and must
	// hand it back.
	worker(func() error { return slowPOST(addr, post, 4, 150*time.Millisecond) })

	time.Sleep(100 * time.Millisecond) // warm the pool
	reg := top.Origins[0].Reg
	if reg.CounterValue("origin.upstream.reuses") == 0 {
		t.Fatal("no app-server connection was reused before the first restart")
	}
	const restarts = 8
	for i := 0; i < restarts; i++ {
		if err := apps[i%2].Target.Restart(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		time.Sleep(60 * time.Millisecond) // the pool re-warms on the new generation
	}
	close(stop)
	wg.Wait()

	if f := failed.Load(); f != 0 {
		for _, ev := range originLedger.Recent(400) {
			if ev.Kind != "accept" {
				t.Logf("origin ledger: %s %s %s", ev.Kind, ev.Cause, ev.Detail)
			}
		}
		t.Fatalf("%d of %d requests failed across %d app-server restarts; last: %v", f, f+ok.Load(), restarts, lastErr.Load())
	}
	if ok.Load() < 100 {
		t.Fatalf("only %d requests completed — load loop starved", ok.Load())
	}
	replays := reg.CounterValue("origin.http.ppr_replays")
	if replays == 0 {
		t.Fatal("no PPR replay observed: no restart caught a POST mid-body")
	}
	for name, l := range map[string]*disrupt.Ledger{"origin": originLedger, "edge": edgeLedger} {
		rep := l.ReportRecent(0)
		if rep.ByKind["reset"] != 0 || rep.ByKind["timeout"] != 0 {
			t.Errorf("%s ledger has terminal events: %+v (cells %+v)", name, rep.ByKind, rep.Cells)
		}
	}
	// Exact books: a ledger retry is a failed attempt or a 379 replay. A
	// stale-reuse resend is neither — it is counted in stale_retries and
	// nowhere else.
	attemptErrs, stale := reg.CounterValue("origin.http.attempt_errors"), reg.CounterValue("origin.upstream.stale_retries")
	if got := originLedger.ReportRecent(0).ByKind["retry"]; got != attemptErrs+replays {
		t.Errorf("origin ledger retries = %d, want attempt_errors %d + ppr_replays %d (stale_retries %d must add none)", got, attemptErrs, replays, stale)
	}
	if reg.CounterValue("origin.upstream.discarded") == 0 {
		t.Error("no idle connection was ever discarded: the restarts never met a warm pool")
	}
	if reg.CounterValue("origin.http.ppr_exhausted") != 0 {
		t.Errorf("ppr_exhausted = %d", reg.CounterValue("origin.http.ppr_exhausted"))
	}
	t.Logf("%d ok; dials %d reuses %d stale_retries %d discarded %d attempt_errors %d ppr_replays %d",
		ok.Load(), reg.CounterValue("origin.upstream.dials"), reg.CounterValue("origin.upstream.reuses"), stale,
		reg.CounterValue("origin.upstream.discarded"), attemptErrs, replays)
}
