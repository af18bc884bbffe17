package http1

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"zdr/internal/netx"
)

// requestEcho serves every request with its method, target and body echoed
// in the reply's body, and says stop after a request to /last.
type requestEcho struct{ conn net.Conn }

func (r *requestEcho) ServeRequest(req *Request, _ *bufio.Reader) bool {
	body, err := ReadFullBody(req.Body)
	if err != nil {
		return false
	}
	said := fmt.Sprintf("%s %s %q", req.Method, req.Target, body)
	resp := NewResponse(200, strings.NewReader(said), int64(len(said)))
	if _, err := WriteResponse(r.conn, resp); err != nil {
		return false
	}
	return req.Target != "/last"
}

// TestKeepAliveServesHoweverRequestsArrive: whole in one wake, two to a
// wake, a body with its head or behind it, a head in two pieces, over a
// descriptor in reach (served in the wake where the wake holds them
// whole) and over one that is hidden (the loop of Reads): the same
// requests reach the handler in the same order; Serve ends with nil when
// the handler says stop and with io.EOF when the peer hangs up.
func TestKeepAliveServesHoweverRequestsArrive(t *testing.T) {
	pipe := func(t *testing.T) (client, server net.Conn) { return net.Pipe() }
	tcp := func(t *testing.T) (client, server net.Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if server, err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		return client, server
	}
	for name, pair := range map[string]func(*testing.T) (net.Conn, net.Conn){"tcp": tcp, "pipe": pipe} {
		for _, last := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/last=%v", name, last), func(t *testing.T) {
				client, server := pair(t)
				defer client.Close()
				var k KeepAlive
				k.Init(server, &requestEcho{server})
				done := make(chan error, 1)
				go func() {
					err := k.Serve()
					k.Close()
					done <- err
				}()
				br := bufio.NewReader(client)
				expect := func(want string) {
					t.Helper()
					client.SetReadDeadline(time.Now().Add(5 * time.Second))
					resp, err := ReadResponse(br)
					if err != nil {
						t.Fatalf("waiting for %q: %v", want, err)
					}
					if body, _ := ReadFullBody(resp.Body); string(body) != want {
						t.Fatalf("got %q, want %q", body, want)
					}
				}
				// A failed send shows as the reply that does not come.
				send := func(s string) { io.WriteString(client, s) }
				before := netx.WakeReads()
				send("GET /whole HTTP/1.1\r\n\r\n")
				expect(`GET /whole ""`)
				if reads := netx.WakeReads() - before; name == "tcp" && reads > 2 {
					t.Errorf("a request that arrived whole cost %d reads", reads)
				}
				go send("GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n")
				expect(`GET /one ""`)
				expect(`GET /two ""`)
				go send("POST /with HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody")
				expect(`POST /with "body"`)
				go func() {
					send("POST /behind HTTP/1.1\r\nContent-Length: 6\r\n\r\nla")
					time.Sleep(5 * time.Millisecond)
					send("ter!")
				}()
				expect(`POST /behind "later!"`)
				go func() {
					send("POST /chunked HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
				}()
				expect(`POST /chunked "abc"`)
				go func() {
					send("GET /sp")
					time.Sleep(5 * time.Millisecond)
					send("lit HTTP/1.1\r\n\r")
					time.Sleep(5 * time.Millisecond)
					send("\nGET /after HTTP/1.1\r\n\r\n")
				}()
				expect(`GET /split ""`)
				expect(`GET /after ""`)
				if last {
					go send("GET /last HTTP/1.1\r\n\r\nGET /never HTTP/1.1\r\n\r\n")
					expect(`GET /last ""`)
				} else {
					client.Close()
				}
				select {
				case err := <-done:
					if last && err != nil || !last && err != io.EOF {
						t.Fatalf("Serve returned %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Serve did not return")
				}
			})
		}
	}
}

func TestHeadBuffered(t *testing.T) {
	for in, want := range map[string]bool{
		"":                                   false,
		"GET / HTTP/1.1\r\n":                 false,
		"GET / HTTP/1.1\r\n\r":               false,
		"GET / HTTP/1.1\r\n\r\n":             true,
		"GET / HTTP/1.1\r\nA: b\r\n\r\nbody": true,
		"GET / HTTP/1.1\n\n":                 false, // a head it misses is read the slower way
	} {
		br := bufio.NewReader(strings.NewReader(in))
		if got := HeadBuffered(br); got != want {
			t.Errorf("HeadBuffered(%q) = %v, want %v", in, got, want)
		}
		if rest, _ := io.ReadAll(br); string(rest) != in {
			t.Errorf("HeadBuffered(%q) consumed: %q is left", in, rest)
		}
	}
}
