package proxy

import (
	"bytes"
	"testing"

	"zdr/internal/appserver"
	"zdr/internal/http1"
)

// BenchmarkForwardHTTPKeepAlive is one small GET through the Origin's
// whole forward path — tunnel stream in, pooled app-server connection,
// inline exchange, response relayed back — against a real app server on
// loopback. The tunnel client's own costs (one stream, reading the body)
// are in the figure.
func BenchmarkForwardHTTPKeepAlive(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 64)
	as := appserver.New(appserver.Config{Name: "as-bench", Handler: func(*http1.Request, []byte) *http1.Response {
		return http1.NewResponse(200, bytes.NewReader(payload), int64(len(payload)))
	}}, nil)
	addr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer as.Close()
	o, tun := startOrigin(b, Config{AppServers: []string{addr}})
	if code, _, err := tun.do("GET", "/dyn/64", nil); err != nil || code != 200 {
		b.Fatalf("warm-up: status %d, err %v", code, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, body, err := tun.do("GET", "/dyn/64", nil)
		if err != nil || code != 200 || len(body) != len(payload) {
			b.Fatalf("status %d, %d bytes, err %v", code, len(body), err)
		}
	}
	b.StopTimer()
	if dials := o.Metrics().CounterValue("origin.upstream.dials"); dials != 1 {
		b.Fatalf("%d app-server dials for %d requests: the connection was not kept", dials, b.N+1)
	}
}
