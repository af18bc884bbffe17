package proxy

import (
	"bytes"
	"testing"

	"zdr/internal/appserver"
	"zdr/internal/http1"
	"zdr/internal/racetest"
)

// originForward stands an Origin up in front of a real app server on
// loopback and returns BenchmarkForwardHTTPKeepAlive's operation: one
// small GET through the Origin's whole forward path — tunnel stream in,
// pooled app-server connection, inline exchange, response relayed back.
// The tunnel client's own costs (one stream, reading the body) are in
// it. Once tb is done, it checks that the app-server connection was kept.
func originForward(tb testing.TB) func() {
	payload := bytes.Repeat([]byte("x"), 64)
	as := appserver.New(appserver.Config{Name: "as-bench", Handler: func(*http1.Request, []byte) *http1.Response {
		return http1.NewResponse(200, bytes.NewReader(payload), int64(len(payload)))
	}}, nil)
	addr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(as.Close)
	o, tun := startOrigin(tb, Config{AppServers: []string{addr}})
	get := func() {
		code, body, err := tun.do("GET", "/dyn/64", nil)
		if err != nil || code != 200 || len(body) != len(payload) {
			tb.Fatalf("status %d, %d bytes, err %v", code, len(body), err)
		}
	}
	get() // warm-up
	tb.Cleanup(func() {
		if dials := o.Metrics().CounterValue("origin.upstream.dials"); dials != 1 {
			tb.Errorf("%d app-server dials: the connection was not kept", dials)
		}
	})
	return get
}

func BenchmarkForwardHTTPKeepAlive(b *testing.B) {
	get := originForward(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// TestForwardAllocations bounds what BenchmarkForwardHTTPKeepAlive times:
// a small GET through the Origin, the tunnel client's costs and the app
// server's counted, makes at most ten allocations.
func TestForwardAllocations(t *testing.T) {
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(500, originForward(t)); n > 10 {
		t.Errorf("keep-alive GET through the Origin: %v allocs process-wide, want <= 10", n)
	} else {
		t.Logf("keep-alive GET through the Origin: %v allocs process-wide", n)
	}
}
