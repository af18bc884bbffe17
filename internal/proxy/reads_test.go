package proxy

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/h2t"
	"zdr/internal/http1"
	"zdr/internal/mqtt"
	"zdr/internal/netx"
)

// readSyscalls returns /proc/self/io's syscr: the read(2)-family calls
// this process has made. recvmsg(2) is not among them; WakeReaders count
// theirs (netx.WakeReads).
func readSyscalls(t *testing.T) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("syscr: ")); ok {
			n, err := strconv.ParseUint(string(v), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("no syscr in /proc/self/io")
	return 0
}

// cannedReplies answers every request head on its connection with the
// same small reply. It reads through a WakeReader, so none of its reads
// is in syscr: run against it, a client shows what the client reads.
type cannedReplies struct {
	conn net.Conn
	buf  [512]byte
}

func (c *cannedReplies) ReadBuf() []byte { return c.buf[:] }
func (c *cannedReplies) ServeWake(n int) bool {
	for i := bytes.Count(c.buf[:n], []byte("\r\n\r\n")); i > 0; i-- {
		io.WriteString(c.conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}
	return false
}

// TestOneReadPerHopPerMessage is TestOneWritePerHopPerMessage's twin for
// the other direction, on bare TCP connections: a keep-alive GET through
// edge, origin and app server is five messages read by the program — the
// request at the edge, its HEADERS at the origin, the request at the app
// server, the reply at the origin, its frames at the edge — and costs it
// a read each, plus the one at the origin's checkout that finds the
// pooled connection quiet and alive: six, where conn.Read's read-EAGAIN-
// wait-read made ten and a peek. Counted from /proc/self/io and
// netx.WakeReads, the client's own reads taken off.
func TestOneReadPerHopPerMessage(t *testing.T) {
	as := appserver.New(appserver.Config{Name: "as"}, nil)
	asAddr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)
	origin := New(Config{Name: "origin", Role: RoleOrigin, AppServers: []string{asAddr}}, nil)
	if err := origin.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(origin.Close)
	edge := New(Config{Name: "edge", Role: RoleEdge, Origins: []string{origin.Addr(VIPTunnel)}}, nil)
	if err := edge.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)

	stub, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close() })
	go func() {
		for {
			conn, err := stub.Accept()
			if err != nil {
				return
			}
			c := &cannedReplies{conn: conn}
			var w netx.WakeReader
			w.Init(conn, c)
			go func() { w.Run(); conn.Close() }()
		}
	}()

	const gets = 2000
	// run makes the GETs on one keep-alive connection to addr and returns
	// the reads the process made meanwhile, by who counts them.
	run := func(addr string) (syscr, wake uint64) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		get := func() {
			if _, err := io.WriteString(conn, "GET /api/feed HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http1.ReadResponse(br)
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("GET: %v, %v", resp, err)
			}
			if _, err := http1.ReadFullBody(resp.Body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			get() // dials the tunnel and the app-server connection
		}
		syscr, wake = readSyscalls(t), netx.WakeReads()
		for i := 0; i < gets; i++ {
			get()
		}
		return readSyscalls(t) - syscr, netx.WakeReads() - wake
	}
	mine, _ := run(stub.Addr().String())
	syscr, wake := run(edge.Addr(VIPWeb))
	perGet := (float64(syscr) - float64(mine) + float64(wake)) / gets
	t.Logf("per GET: %.3f reads by the program (%.3f read(2) beyond the client's %.3f, %.3f recvmsg(2))",
		perGet, (float64(syscr)-float64(mine))/gets, float64(mine)/gets, float64(wake)/gets)
	if perGet > 6*1.1 {
		t.Errorf("%.2f reads per GET, want 6: one per message per hop and the origin's liveness read", perGet)
	}
}

// TestOneReadPerMQTTPacketPerHop is TestOneWritePerMQTTPacketPerHop's twin
// on bare TCP connections: a QoS 1 publish of a user to itself is read by
// the program five times — the PUBLISH at the edge, its DATA frame at the
// origin, the PUBLISH at the broker, delivery and PUBACK in one segment at
// the origin, their frame at the edge — at one read each, all of them a
// WakeReader's (conn.Read's read-EAGAIN-wait-read made ten). Counted from
// netx.WakeReads and /proc/self/io as TestOneReadPerHopPerMessage counts,
// but with no stub to take the client's own reads off: a stub answers so
// fast that the client's read sometimes finds the answer there and is one
// read(2), not the two it is behind five hops. The client's blocking read
// of an answer that comes in one segment is two at most, and that bound is
// what is taken off.
func TestOneReadPerMQTTPacketPerHop(t *testing.T) {
	tp := startTopology(t, 0, 1)
	var pub, reply bytes.Buffer
	payload := make([]byte, 128)
	mqtt.Encode(&pub, &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "self/reader", Payload: payload, QoS: 1, PacketID: 7})
	mqtt.Encode(&reply, &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "self/reader", Payload: payload})
	mqtt.Encode(&reply, &mqtt.Packet{Type: mqtt.PUBACK, PacketID: 7})

	conn, err := net.Dial("tcp", tp.edge.Addr(VIPMQTT))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.CONNECT, ClientID: "reader", CleanSession: true})
	if p, err := mqtt.Decode(conn); err != nil || p.Type != mqtt.CONNACK {
		t.Fatalf("CONNACK: %+v, %v", p, err)
	}
	mqtt.Encode(conn, &mqtt.Packet{Type: mqtt.SUBSCRIBE, PacketID: 1, TopicFilters: []string{"self/reader"}})
	if p, err := mqtt.Decode(conn); err != nil || p.Type != mqtt.SUBACK {
		t.Fatalf("SUBACK: %+v, %v", p, err)
	}

	got := make([]byte, reply.Len())
	publish := func() {
		if _, err := conn.Write(pub.Bytes()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, reply.Bytes()) {
			t.Fatalf("publish answered %x, %v", got, err)
		}
	}
	for i := 0; i < 10; i++ {
		publish()
	}
	const publishes = 2000
	syscr, wake := readSyscalls(t), netx.WakeReads()
	for i := 0; i < publishes; i++ {
		publish()
	}
	perSyscr, perWake := float64(readSyscalls(t)-syscr)/publishes, float64(netx.WakeReads()-wake)/publishes
	t.Logf("per publish: %.3f recvmsg(2) by the program, %.3f read(2) by the process, of which the client's are at most 2", perWake, perSyscr)
	if perWake > 5*1.1 {
		t.Errorf("%.2f reads per publish by the program's WakeReaders, want 5: one per packet per hop", perWake)
	}
	if perSyscr > 2.5 {
		t.Errorf("%.2f read(2) per publish, want the client's own 2 at most: every program read is a WakeReader's", perSyscr)
	}
}

// TestForwardUpstreamWaitsForTheSplice: a client write that finds its
// stream dead waits for the DCR splice, not for a fixed time: a splice
// that has happened costs nothing, one that comes is taken when it comes,
// and only one that never comes costs the whole wait.
func TestForwardUpstreamWaitsForTheSplice(t *testing.T) {
	a, b := net.Pipe()
	client, server := h2t.NewSession(a, true), h2t.NewSession(b, false)
	defer client.Close()
	defer server.Close()
	got := make(chan string, 4)
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func() {
				p := make([]byte, 16)
				if n, _ := st.Read(p); n > 0 {
					got <- string(p[:n])
				}
			}()
		}
	}()
	open := func() *h2t.Stream {
		st, err := client.OpenStreamWith(nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	dead := open()
	dead.Reset()

	r := &mqttRelay{stream: open()}
	t0 := time.Now()
	if st := r.streamAfter(dead, time.Hour); st != r.stream || time.Since(t0) > time.Second {
		t.Fatalf("a splice that had happened was waited for (%v)", time.Since(t0))
	}

	r = &mqttRelay{stream: dead}
	live := open()
	go func() {
		time.Sleep(time.Millisecond)
		r.swapStream(live)
	}()
	if !r.forwardUpstream([]byte("spliced")) {
		t.Fatal("the write did not take the splice that came")
	}
	select {
	case s := <-got:
		if s != "spliced" {
			t.Fatalf("the new stream carried %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing arrived on the new stream")
	}

	r = &mqttRelay{stream: dead}
	t0 = time.Now()
	if r.forwardUpstream([]byte("lost")) || time.Since(t0) < spliceWait {
		t.Fatalf("with no splice the write gave up after %v, want %v", time.Since(t0), spliceWait)
	}
}
