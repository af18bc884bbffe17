package proxy

import (
	"net"
	"testing"
	"time"

	"zdr/internal/h2t"
	"zdr/internal/mqtt"
	"zdr/internal/obs"
)

// TestEdgeForwardsOnlyATraceThatParses: the Edge is the trust boundary for
// the trace context an MQTT user carries in its CONNECT properties. With
// tracing off at the Edge, a value that is not a span context goes no
// further than the Edge, and one that is reaches the Origin as it came.
func TestEdgeForwardsOnlyATraceThatParses(t *testing.T) {
	fields := make(chan string, 1)
	origin := bareOrigin(t, func(st *h2t.Stream) {
		fields <- st.Fields().Get(obs.TraceHeader)
		st.Reset()
	})
	e := New(Config{Name: "edge-trust", Role: RoleEdge, Origins: []string{origin}}, nil)
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	for _, c := range []struct{ sent, want string }{
		{"not-a-trace", ""},
		{"zdr1-0123456789abcdef-fedcba9876543210", "zdr1-0123456789abcdef-fedcba9876543210"},
	} {
		conn, err := net.DialTimeout("tcp", e.Addr(VIPMQTT), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		err = mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: "user-trust", CleanSession: true,
			Properties: map[string]string{obs.TraceHeader: c.sent}})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-fields:
			if got != c.want {
				t.Errorf("CONNECT with %s %q reached the Origin with %q, want %q", obs.TraceHeader, c.sent, got, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("CONNECT with %s %q never reached the Origin", obs.TraceHeader, c.sent)
		}
		conn.Close()
	}
}
