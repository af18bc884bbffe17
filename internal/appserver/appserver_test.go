package appserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zdr/internal/http1"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "as-1"
	}
	s := New(cfg, nil)
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dialReq(t *testing.T, addr string, req *http1.Request) (*http1.Response, net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http1.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	return resp, conn, br
}

func TestServeSimpleRequests(t *testing.T) {
	s := startServer(t, Config{})
	body := "upload-data"
	resp, conn, _ := dialReq(t, s.Addr(), http1.NewRequest("POST", "/api", strings.NewReader(body), int64(len(body))))
	defer conn.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Served-By") != "as-1" {
		t.Fatal("X-Served-By missing")
	}
	b, _ := http1.ReadFullBody(resp.Body)
	if string(b) != body {
		t.Fatalf("echo = %q", b)
	}
}

func TestKeepAlive(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/ping", nil, 0)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := http1.ReadResponse(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		http1.ReadFullBody(resp.Body)
	}
}

func TestCustomHandler(t *testing.T) {
	s := startServer(t, Config{Handler: func(req *http1.Request, body []byte) *http1.Response {
		if req.Target == "/404" {
			return http1.NewResponse(404, nil, 0)
		}
		return http1.NewResponse(200, strings.NewReader("ok"), 2)
	}})
	resp, conn, _ := dialReq(t, s.Addr(), http1.NewRequest("GET", "/404", nil, 0))
	conn.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestPPROnRestart: a POST whose body is mid-flight when Shutdown begins
// receives 379 + the partial body (§4.3).
func TestPPROnRestart(t *testing.T) {
	s := startServer(t, Config{Mode: ModePPR, DrainPeriod: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send head + half the body, then stall.
	partial := bytes.Repeat([]byte("A"), 1000)
	head := "POST /upload HTTP/1.1\r\nContent-Length: 2000\r\n\r\n"
	if _, err := conn.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(partial); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the server consume the half

	go s.Shutdown()

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !http1.IsPartialPostReplay(resp) {
		t.Fatalf("status = %d %q, want 379 PartialPOST", resp.StatusCode, resp.StatusMessage)
	}
	if resp.Header.Get(http1.EchoPseudoHeader(":method")) != "POST" {
		t.Fatal("method echo missing")
	}
	if resp.Header.Get(http1.EchoPseudoHeader(":path")) != "/upload" {
		t.Fatal("path echo missing")
	}
	if resp.Header.Get("X-Original-Content-Length") != "2000" {
		t.Fatal("original content length missing")
	}
	got, _ := http1.ReadFullBody(resp.Body)
	if !bytes.Equal(got, partial) {
		t.Fatalf("partial body: got %d bytes, want %d identical bytes", len(got), len(partial))
	}
	if s.Metrics().CounterValue("appserver.status.379") != 1 {
		t.Fatal("379 not counted")
	}
}

// TestPPREchoesWhatArrivesBehindThe379: the proxy stops forwarding when it
// sees the 379's head, so what it wrote just before that — here one more
// piece, sent after the head has been read — must still be in the echo.
// (An echo cut off at the server's last read made the replayed request
// short: the next app server waited for the missing bytes and the client
// timed out.)
func TestPPREchoesWhatArrivesBehindThe379(t *testing.T) {
	s := startServer(t, Config{
		Mode: ModePPR, DrainPeriod: 50 * time.Millisecond,
		GraceWindow: 150 * time.Millisecond, GraceSilence: 50 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /upload HTTP/1.1\r\nContent-Length: 2000\r\n\r\nfirst-piece ")); err != nil {
		t.Fatal(err)
	}
	for s.Metrics().CounterValue("appserver.requests") == 0 {
		time.Sleep(time.Millisecond)
	}
	go s.Shutdown()

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !http1.IsPartialPostReplay(resp) {
		t.Fatalf("status = %d %q, want 379 PartialPOST", resp.StatusCode, resp.StatusMessage)
	}
	// The head is here; a proxy's write that was already under way lands now.
	if _, err := conn.Write([]byte("late-piece")); err != nil {
		t.Fatal(err)
	}
	got, err := http1.ReadFullBody(resp.Body)
	if err != nil || string(got) != "first-piece late-piece" {
		t.Fatalf("echo = %q, %v; want every byte sent before the proxy could stop", got, err)
	}
}

// TestFail500OnRestart is the §4.3 option-(i) baseline.
func TestFail500OnRestart(t *testing.T) {
	s := startServer(t, Config{Mode: ModeFail500, DrainPeriod: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("POST /u HTTP/1.1\r\nContent-Length: 100\r\n\r\nhalf"))
	time.Sleep(100 * time.Millisecond)
	go s.Shutdown()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

// TestRedirect307OnRestart is the §4.3 option-(ii) baseline.
func TestRedirect307OnRestart(t *testing.T) {
	s := startServer(t, Config{Mode: ModeRedirect307, DrainPeriod: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("POST /retry-me HTTP/1.1\r\nContent-Length: 100\r\n\r\nhalf"))
	time.Sleep(100 * time.Millisecond)
	go s.Shutdown()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 307 || resp.Header.Get("Location") != "/retry-me" {
		t.Fatalf("resp = %d %v", resp.StatusCode, resp.Header)
	}
}

// TestChunkedPPR: a chunked upload interrupted by restart also hands back
// its partial body (the §5.2 chunked corner case) — a few bytes, and one
// of several KiB, whose room grew on the way.
func TestChunkedPPR(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 600) // 9,600 bytes
	for _, c := range []struct {
		name   string
		chunks []string // the last is cut off mid-chunk
		want   string
	}{
		// Declare 10 bytes, deliver 3.
		{"small", []string{"5\r\nhello\r\n", "a\r\nwor"}, "hellowor"},
		{"past 4 KiB", []string{"5\r\nhello\r\n", fmt.Sprintf("%x\r\n%s\r\n", len(big), big), "3000\r\n" + big[:5000]}, "hello" + big + big[:5000]},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := startServer(t, Config{Mode: ModePPR, DrainPeriod: 50 * time.Millisecond})
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.Write([]byte("POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"))
			for _, chunk := range c.chunks {
				conn.Write([]byte(chunk))
			}
			time.Sleep(100 * time.Millisecond)
			go s.Shutdown()
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				t.Fatal(err)
			}
			if !http1.IsPartialPostReplay(resp) {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if got, _ := http1.ReadFullBody(resp.Body); string(got) != c.want {
				t.Fatalf("partial chunked body: %d bytes, want %d identical bytes", len(got), len(c.want))
			}
		})
	}
}

// TestPPRKickLandsInALargeRead: the drain kick finds the body's read
// parked with most of a 1 MiB room still to fill. What arrived before it
// — an odd number of bytes, in writes of odd sizes — is the 379's echo,
// exactly.
func TestPPRKickLandsInALargeRead(t *testing.T) {
	s := startServer(t, Config{Mode: ModePPR, DrainPeriod: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := make([]byte, 300_001)
	for i := range sent {
		sent[i] = byte(i * 7 % 251)
	}
	if _, err := conn.Write([]byte("POST /upload HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	for i, rest := 0, sent; len(rest) > 0; i++ {
		n := min(len(rest), []int{1, 4093, 3, 65537, 7, 12289}[i%6])
		if _, err := conn.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	time.Sleep(100 * time.Millisecond) // let the server read it all and park
	go s.Shutdown()

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !http1.IsPartialPostReplay(resp) || resp.Header.Get("X-Original-Content-Length") != "1048576" {
		t.Fatalf("status %d %q, original length %q; want 379 PartialPOST of 1048576", resp.StatusCode, resp.StatusMessage, resp.Header.Get("X-Original-Content-Length"))
	}
	if got, err := http1.ReadFullBody(resp.Body); err != nil || !bytes.Equal(got, sent) {
		t.Fatalf("echo: %d bytes (%v), want the %d sent, identical", len(got), err, len(sent))
	}
}

// readSyscalls returns /proc/self/io's syscr: the read(2)-family calls
// this process has made. recvmsg(2), which an app server waits for a
// request head with, is not among them.
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

// countedReads reads a connection with read(2) calls it counts, every one
// of them, those that find nothing included: they are the client's share
// of syscr.
type countedReads struct {
	rc    syscall.RawConn
	calls uint64
}

func (r *countedReads) Read(p []byte) (n int, err error) {
	rerr := r.rc.Read(func(fd uintptr) bool {
		for {
			r.calls++
			if n, err = syscall.Read(int(fd), p); err != syscall.EINTR {
				return err != syscall.EAGAIN
			}
		}
	})
	switch {
	case rerr != nil:
		return 0, rerr
	case err != nil:
		return 0, err
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// writeCounter is a connection the app server accepted, with the size of
// every Write made on it kept. It is a *net.TCPConn all the same, so the
// server waits on it and reads it as it does any other.
type writeCounter struct {
	*net.TCPConn
	mu     sync.Mutex
	writes []int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, len(p))
	c.mu.Unlock()
	return c.TCPConn.Write(p)
}

type countingListener struct {
	net.Listener
	accepted chan *writeCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &writeCounter{TCPConn: conn.(*net.TCPConn)}
	l.accepted <- c
	return c, nil
}

// TestLargeBodyReadsWhatTheSocketHolds: a 1 MiB POST echoed over bare
// loopback TCP. The app server reads the body into the buffer the handler
// is given, each read as large as what the socket holds — a few reads,
// where 4 KiB at a time made more than 256 — and the echo leaves from that
// buffer: two writes, the head and then the body. Reads are counted from
// /proc/self/io with the client's own taken off.
func TestLargeBodyReadsWhatTheSocketHolds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *writeCounter, 1)
	s := New(Config{Name: "as-1"}, nil)
	s.Serve(countingListener{ln, accepted})
	t.Cleanup(s.Close)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	client := &countedReads{rc: rc}
	br := bufio.NewReader(client)

	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i * 13 % 253)
	}
	msg := append([]byte(fmt.Sprintf("POST /up HTTP/1.1\r\nContent-Length: %d\r\n\r\n", len(body))), body...)
	const posts = 4
	for i := 0; i < posts; i++ {
		syscr, mine := readSyscalls(t), client.calls
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		resp, err := http1.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("POST %d: %+v, %v", i, resp, err)
		}
		if got, err := http1.ReadFullBody(resp.Body); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("POST %d: echo of %d bytes (%v), want the %d sent, identical", i, len(got), err, len(body))
		}
		reads := readSyscalls(t) - syscr - (client.calls - mine)
		t.Logf("POST %d: %d reads by the app server", i, reads)
		if reads > 32 {
			t.Errorf("POST %d: the app server made %d reads of a 1 MiB body, want at most 32", i, reads)
		}
	}
	c := <-accepted
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.writes) != 2*posts {
		t.Fatalf("the app server's writes: %v, want the head and then the body, per POST", c.writes)
	}
	for i := 0; i < posts; i++ {
		if c.writes[2*i] >= 256 || c.writes[2*i+1] != len(body) {
			t.Fatalf("the app server's writes: %v, want the head and then the body, per POST", c.writes)
		}
	}
}

// TestDrainCompletesFinishedRequests: a request whose body fully arrived
// before the drain still gets its 200 during the drain period.
func TestDrainCompletesFinishedRequests(t *testing.T) {
	slow := make(chan struct{})
	s := startServer(t, Config{
		DrainPeriod: 500 * time.Millisecond,
		Handler: func(req *http1.Request, body []byte) *http1.Response {
			<-slow // simulate slow app logic
			return http1.NewResponse(200, strings.NewReader("done"), 4)
		},
	})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := "all-here"
	if _, err := http1.WriteRequest(conn, http1.NewRequest("POST", "/x", strings.NewReader(body), int64(len(body)))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // body fully at server, handler blocked
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(slow)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("completed request failed during drain: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	<-done
}

// TestNoNewConnectionsWhileDraining: the §2.3 draining semantics.
func TestNoNewConnectionsWhileDraining(t *testing.T) {
	s := startServer(t, Config{DrainPeriod: 300 * time.Millisecond})
	go s.Shutdown()
	time.Sleep(50 * time.Millisecond)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		return // listener already closed: acceptable
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := http1.ReadResponse(bufio.NewReader(conn)); err == nil {
		t.Fatal("draining server answered a new connection")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s := startServer(t, Config{DrainPeriod: 10 * time.Millisecond})
	s.Shutdown()
	s.Shutdown()
	s.Close()
}

func TestGETUnaffectedByDrainSignalRace(t *testing.T) {
	// GETs (no body) served normally right up to the drain.
	s := startServer(t, Config{})
	for i := 0; i < 10; i++ {
		resp, conn, _ := dialReq(t, s.Addr(), http1.NewRequest("GET", "/", nil, 0))
		conn.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
}

// TestDrainHandshake is the keep-alive side of a restart as the pooling
// proxy sees it: the dial is refused from the first instant, a response
// written while draining says Connection: close and is the last on its
// connection, an idle connection gets one last call of GraceSilence — a
// request that raced the drain is served, not reset — and is then closed
// with nothing unread.
func TestDrainHandshake(t *testing.T) {
	s := startServer(t, Config{DrainPeriod: 150 * time.Millisecond, GraceSilence: 60 * time.Millisecond})

	// Two warm keep-alive connections; neither response mentions closing.
	resp, raced, racedBR := dialReq(t, s.Addr(), http1.NewRequest("GET", "/a", nil, 0))
	defer raced.Close()
	if v := resp.Header.Get("Connection"); v != "" {
		t.Fatalf("Connection: %q on a response written while serving", v)
	}
	_, quiet, quietBR := dialReq(t, s.Addr(), http1.NewRequest("GET", "/b", nil, 0))
	defer quiet.Close()
	if got := s.Metrics().CounterValue("appserver.conns.accepted"); got != 2 {
		t.Fatalf("appserver.conns.accepted = %d, want 2", got)
	}

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	deadline := time.Now().Add(time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()

	if c, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("a draining server accepted a dial")
	}

	// The request that was on the wire before its sender could know.
	time.Sleep(10 * time.Millisecond)
	if _, err := http1.WriteRequest(raced, http1.NewRequest("GET", "/raced", nil, 0)); err != nil {
		t.Fatal(err)
	}
	raced.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http1.ReadResponse(racedBR)
	if err != nil {
		t.Fatalf("request that raced the drain on an idle connection: %v", err)
	}
	if resp.StatusCode != 200 || resp.Header.Get("Connection") != "close" {
		t.Fatalf("status %d, Connection %q; want 200 and close", resp.StatusCode, resp.Header.Get("Connection"))
	}
	if _, err := racedBR.ReadByte(); err == nil {
		t.Fatal("connection still open after a Connection: close response")
	}

	// The connection nobody used is closed after the last call, cleanly.
	quiet.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := quietBR.ReadByte(); err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("idle connection after the last call: %v, want EOF", err)
	}
	if waited := time.Since(t0); waited < 40*time.Millisecond || waited > time.Second {
		t.Fatalf("idle connection closed %v after the drain began, want about GraceSilence (60ms)", waited)
	}
	<-done
}

// TestBodyPoolAllocation: the first pooled body makes the whole list,
// bodies beyond it come from the heap and are not kept, and what the list
// holds survives collections (a sync.Pool drops it after two and can
// strand it after one).
func TestBodyPoolAllocation(t *testing.T) {
	first := getBody()
	if len(bodyPool) == 0 { // bodyPoolKeep-1, less what an earlier test's server has yet to put back
		t.Fatal("the first body did not fill the list")
	}
	held := map[*[]byte]bool{first: true}
	for i := 0; i < bodyPoolKeep; i++ { // one more than the list has
		held[getBody()] = true
	}
	for bp := range held {
		putBody(bp)
	}
	if n := len(bodyPool); n != bodyPoolKeep {
		t.Fatalf("the list holds %d buffers, want %d", n, bodyPoolKeep)
	}
	runtime.GC()
	runtime.GC()
	var got []*[]byte
	for i := 0; i < bodyPoolKeep; i++ {
		bp := getBody()
		if !held[bp] {
			t.Fatalf("buffer %d was re-made across two collections", i)
		}
		got = append(got, bp)
	}
	for _, bp := range got {
		putBody(bp)
	}
}

// TestPipelinedRequestsDoNotAlias: a connection reads every request into
// the one Request it keeps. Two arrive in one write, the first with twelve
// fields (more than a Header has room for in itself) and a body, the
// second with two and none: the handler sees each as it was sent, on the
// same Request, and the strings it kept from the first are what they were.
func TestPipelinedRequestsDoNotAlias(t *testing.T) {
	type seen struct {
		req                   *http1.Request
		method, target, last  string
		fields                int
		length                int64
		body                  string
		hasLast, bodyReadable bool
	}
	var mu sync.Mutex
	var got []seen
	s := startServer(t, Config{Handler: func(req *http1.Request, body []byte) *http1.Response {
		mu.Lock()
		got = append(got, seen{req, req.Method, req.Target, req.Header.Get("X-Field-9"), req.Header.Len(),
			req.ContentLength, string(body), req.Header.Has("X-Field-9"), req.Body != nil})
		mu.Unlock()
		return http1.NewResponse(200, nil, 0)
	}})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := "POST /first HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n"
	for i := 0; i < 10; i++ {
		first += "X-Field-" + string(rune('0'+i)) + ": value-" + string(rune('0'+i)) + "\r\n"
	}
	if _, err := conn.Write([]byte(first + "\r\nhello" + "GET /second HTTP/1.1\r\nHost: b\r\nAccept: */*\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if resp, err := http1.ReadResponse(br); err != nil || resp.StatusCode != 200 {
			t.Fatalf("response %d: %+v, %v", i, resp, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].req != got[1].req {
		t.Fatalf("handler calls: %+v; want two, on the connection's one Request", got)
	}
	got[0].req, got[1].req = nil, nil
	if want := (seen{nil, "POST", "/first", "value-9", 12, 5, "hello", true, true}); got[0] != want {
		t.Errorf("first request: %+v, want %+v", got[0], want)
	}
	if want := (seen{nil, "GET", "/second", "", 2, 0, "", false, false}); got[1] != want {
		t.Errorf("second request: %+v, want %+v", got[1], want)
	}
}

// TestBodyPastTheBoundIs413: a request body longer than maxBody is not
// held. One declared longer is answered 413 before a byte of it is sent,
// a chunked one once it passes the bound. Either answer ends the
// connection, and only when what the client still sends has stopped
// coming: the client reads a FIN, not a reset, and the handler never runs.
func TestBodyPastTheBoundIs413(t *testing.T) {
	chunk := append([]byte(fmt.Sprintf("%x\r\n", 1<<20)), bytes.Repeat([]byte("b"), 1<<20)...)
	chunk = append(chunk, "\r\n"...)
	for _, tc := range []struct {
		name, framing string
		before        int // chunks sent before the answer is read; four follow it
	}{
		{"declared", "Content-Length: 10737418240", 0},
		{"chunked", "Transfer-Encoding: chunked", maxBody>>20 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int32
			s := startServer(t, Config{GraceSilence: 250 * time.Millisecond, GraceWindow: 5 * time.Second,
				Handler: func(*http1.Request, []byte) *http1.Response {
					served.Add(1)
					return http1.NewResponse(200, nil, 0)
				}})
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			send := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := conn.Write(chunk); err != nil {
						t.Fatalf("sending the body: %v", err)
					}
				}
			}
			if _, err := conn.Write([]byte("POST /upload HTTP/1.1\r\n" + tc.framing + "\r\n\r\n")); err != nil {
				t.Fatal(err)
			}
			send(tc.before)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(conn)
			resp, err := http1.ReadResponse(br)
			if err != nil || resp.StatusCode != 413 || !resp.Header.HasToken("Connection", "close") {
				t.Fatalf("answer %+v, %v; want 413 with Connection: close", resp, err)
			}
			send(4)
			if n, err := io.Copy(io.Discard, br); n != 0 || err != nil {
				t.Fatalf("after the 413: %d more bytes, %v; want a FIN", n, err)
			}
			if served.Load() != 0 {
				t.Fatal("the handler ran")
			}
		})
	}
}
