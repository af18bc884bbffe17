package faults_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/faults"
	"zdr/internal/fleet"
	"zdr/internal/http1"
	"zdr/internal/proxy"
)

// getCached sends a GET for the Edge's cached content on an open
// connection and returns the reply's Via.
func getCached(c net.Conn) (string, error) {
	if _, err := http1.WriteRequest(c, http1.NewRequest("GET", "/cached", nil, 0)); err != nil {
		return "", err
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(c))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	_, err = http1.ReadFullBody(resp.Body)
	return resp.Header.Get("Via"), err
}

// TestChaosEdgeRestartKeepsIdleKeepAlives drives an Edge holding idle
// keep-alive connections through a Socket Takeover restart while transport
// faults run on the upstream dial path. Fresh-connection load sees zero
// failures; the idle connections keep being served by the draining
// generation, are closed when its drain ends, and a connection made after
// the restart is the new generation's.
func TestChaosEdgeRestartKeepsIdleKeepAlives(t *testing.T) {
	dialFaults := faults.NewInjector(faults.Scenario{
		Seed:             515,
		DialDelayRate:    0.3,
		DialDelayMax:     5 * time.Millisecond,
		WriteDelayRate:   0.15,
		WriteDelayMax:    2 * time.Millisecond,
		PartialWriteRate: 0.2,
		ReadStallRate:    0.15,
		ReadStallMax:     2 * time.Millisecond,
	})
	tp := buildChaosTopo(t, nil, func(cfg *proxy.Config) { cfg.Faults = dialFaults })
	addr := tp.edge.Current().Addr(proxy.VIPWeb)
	oldGen := tp.edge.Current().Name()

	// Each idle connection is served once, by generation 1, and falls silent.
	idle := make([]net.Conn, 24)
	for i := range idle {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle[i] = c
		if via, err := getCached(c); err != nil || via != oldGen {
			t.Fatalf("idle conn %d: served by %q, %v", i, via, err)
		}
	}

	stop := make(chan struct{})
	var ok, failed atomic.Int64
	var lastErr atomic.Value
	done := httpLoad(addr, stop, &ok, &failed, &lastErr)
	time.Sleep(100 * time.Millisecond)
	if err := tp.edge.Restart(); err != nil {
		t.Fatalf("edge restart: %v", err)
	}
	newGen := tp.edge.Current().Name()
	if newGen == oldGen {
		t.Fatal("restart did not swap generations")
	}

	for i, c := range idle {
		if via, err := getCached(c); err != nil || via != oldGen {
			t.Fatalf("idle conn %d during the drain: served by %q, %v", i, via, err)
		}
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d fresh-conn requests failed across the restart; last: %v", f, f+ok.Load(), lastErr.Load())
	}
	if ok.Load() < 20 {
		t.Fatalf("only %d requests completed — load loop starved", ok.Load())
	}
	if dialFaults.InjectedTotal() == 0 {
		t.Fatal("fault schedule never fired")
	}

	for i, c := range idle {
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("idle conn %d still open after its generation's drain: %v", i, err)
		}
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if via, err := getCached(c); err != nil || via != newGen {
		t.Fatalf("after the restart: served by %q, %v", via, err)
	}
}

// TestChaosFaultWrappedKeepAliveServes: an accepted connection that a
// fault wrapper hides the descriptor of is read by a loop of Reads instead
// of waits in RawConn.Read, and still serves every request of a keep-alive
// connection under split writes and read stalls.
func TestChaosFaultWrappedKeepAliveServes(t *testing.T) {
	acceptFaults := faults.NewInjector(faults.Scenario{
		Seed:             616,
		PartialWriteRate: 0.3,
		ReadStallRate:    0.2,
		ReadStallMax:     2 * time.Millisecond,
	})
	edge := newTopology(t, fleet.Spec{
		Edges: 1,
		Drain: 100 * time.Millisecond,
		Build: func(_ int, cfg *proxy.Config) {
			cfg.StaticContent = map[string][]byte{"/cached": []byte("dsr-bytes")}
			cfg.AcceptFaults = acceptFaults
		},
	}).Edges[0]

	conn, err := net.DialTimeout("tcp", edge.Addr(proxy.VIPWeb), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if _, err := getCached(conn); err != nil {
			t.Fatalf("request %d on a fault-wrapped conn: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if acceptFaults.InjectedTotal() == 0 {
		t.Fatal("accept-side fault schedule never fired")
	}
}
