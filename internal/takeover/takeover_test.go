package takeover

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"zdr/internal/netx"
)

func mustListen(t *testing.T, vips ...VIP) *ListenerSet {
	t.Helper()
	s, err := Listen(vips...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pair(t *testing.T) (a, b *net.UnixConn) {
	t.Helper()
	a, b, err := netx.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestListenerSetBasics(t *testing.T) {
	s := mustListen(t,
		VIP{Name: "https", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.TCP("https") == nil || s.UDP("quic") == nil {
		t.Fatal("lookups failed")
	}
	if s.TCP("quic") != nil || s.UDP("https") != nil {
		t.Fatal("cross-network lookup should be nil")
	}
	if s.TCP("absent") != nil {
		t.Fatal("absent lookup should be nil")
	}
	vips := s.VIPs()
	if vips[0].Name != "https" || vips[1].Name != "quic" {
		t.Fatalf("vip order = %v", vips)
	}
}

func TestListenerSetRejectsDuplicateNames(t *testing.T) {
	s := mustListen(t, VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	ln, err := netx.ListenTCPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.AddTCP("a", ln); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestListenRejectsUnknownNetwork(t *testing.T) {
	if _, err := Listen(VIP{Name: "x", Network: "sctp", Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

// TestHandoffEndToEnd is the core Socket Takeover test: old instance holds
// bound TCP+UDP VIPs, hands them to a new instance over a socketpair, the
// new instance serves connections on the very same sockets.
func TestHandoffEndToEnd(t *testing.T) {
	old := mustListen(t,
		VIP{Name: "https", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	tcpAddr := old.TCP("https").Addr().String()
	udpAddr := old.UDP("quic").LocalAddr().String()

	a, b := pair(t)
	var (
		wg      sync.WaitGroup
		sendRes *Result
		sendErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendRes, sendErr = Handoff(a, old, HandoffOptions{})
	}()
	got, recvRes, err := Receive(b, ReceiveOptions{})
	wg.Wait()
	if err != nil || sendErr != nil {
		t.Fatalf("receive err=%v send err=%v", err, sendErr)
	}
	defer got.Close()
	if recvRes.OrphanedFDs != 0 {
		t.Fatalf("orphaned fds = %d", recvRes.OrphanedFDs)
	}
	if len(sendRes.VIPs) != 2 || sendRes.VIPs[0].Name != "https" {
		t.Fatalf("send result vips = %v", sendRes.VIPs)
	}
	if got.TCP("https").Addr().String() != tcpAddr {
		t.Fatalf("reconstructed tcp bound to %s, want %s", got.TCP("https").Addr(), tcpAddr)
	}
	if got.UDP("quic").LocalAddr().String() != udpAddr {
		t.Fatalf("reconstructed udp bound to %s, want %s", got.UDP("quic").LocalAddr(), udpAddr)
	}

	// Old instance terminates (closes its sockets); new instance must
	// still serve both protocols with zero downtime.
	old.Close()

	acceptErr := make(chan error, 1)
	go func() {
		c, err := got.TCP("https").Accept()
		if err == nil {
			c.Write([]byte("hi"))
			c.Close()
		}
		acceptErr <- err
	}()
	c, err := net.DialTimeout("tcp", tcpAddr, 2*time.Second)
	if err != nil {
		t.Fatalf("tcp dial after takeover: %v", err)
	}
	buf := make([]byte, 2)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("tcp read after takeover: %v", err)
	}
	c.Close()
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	uc, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	uc.Write([]byte("ping"))
	got.UDP("quic").SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := got.UDP("quic").ReadFromUDP(buf[:2])
	if err != nil || n == 0 {
		t.Fatalf("udp read after takeover: n=%d err=%v", n, err)
	}
}

// TestHandoffManyVIPs transfers a realistic VIP count in one message.
func TestHandoffManyVIPs(t *testing.T) {
	var vips []VIP
	for i := 0; i < 20; i++ {
		vips = append(vips, VIP{Name: fmt.Sprintf("vip-%02d", i), Network: NetworkTCP, Addr: "127.0.0.1:0"})
	}
	old := mustListen(t, vips...)
	a, b := pair(t)
	go Handoff(a, old, HandoffOptions{})
	got, res, err := Receive(b, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 20 || res.OrphanedFDs != 0 {
		t.Fatalf("len=%d orphans=%d", got.Len(), res.OrphanedFDs)
	}
	for i, v := range got.VIPs() {
		if v.Name != fmt.Sprintf("vip-%02d", i) {
			t.Fatalf("order broken at %d: %s", i, v.Name)
		}
	}
}

// TestReceiveRejectsBadMagic covers the §5.1 mis-deployment guard.
func TestReceiveRejectsBadMagic(t *testing.T) {
	a, b := pair(t)
	go func() {
		payload := []byte(`{"magic":1,"version":1,"vips":[]}`)
		writeFrame(a, msgManifest, payload, nil)
		readFrame(a) // drain the nack
	}()
	_, _, err := Receive(b, ReceiveOptions{timeout: time.Second})
	if !errors.Is(err, errBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReceiveRejectsBadVersion(t *testing.T) {
	a, b := pair(t)
	go func() {
		payload := []byte(`{"magic":23108,"version":9,"vips":[]}`)
		writeFrame(a, msgManifest, payload, nil)
		readFrame(a)
	}()
	_, _, err := Receive(b, ReceiveOptions{timeout: time.Second})
	if err == nil || errors.Is(err, errBadMagic) {
		t.Fatalf("err = %v, want version error", err)
	}
}

// TestReceiveClosesStrayFDs: more FDs than manifest entries → the receiver
// must close the strays (orphan prevention) and still succeed.
func TestReceiveClosesStrayFDs(t *testing.T) {
	set := mustListen(t,
		VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "b", Network: NetworkTCP, Addr: "127.0.0.1:0"},
	)
	a, b := pair(t)
	go func() {
		// Manifest declares only VIP "a" but both FDs ride along.
		m := manifest{Magic: magic, Version: version, Proto: protoTwoPhase, VIPs: set.VIPs()[:1]}
		payload, _ := mustJSON(m)
		fds, _ := set.fds()
		writeFrame(a, msgManifest, payload, fds)
		for _, fd := range fds {
			closeFDs([]int{fd})
		}
		readFrame(a)
		writeFrame(a, msgCommit, nil, nil)
	}()
	got, res, err := Receive(b, ReceiveOptions{timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 1 {
		t.Fatalf("adopted %d, want 1", got.Len())
	}
	if res.OrphanedFDs != 1 {
		t.Fatalf("orphans = %d, want 1", res.OrphanedFDs)
	}
}

// TestReceiveFailsOnMissingFDs: manifest promises more sockets than were
// attached → hard error, old instance keeps serving.
func TestReceiveFailsOnMissingFDs(t *testing.T) {
	set := mustListen(t, VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, b := pair(t)
	handErr := make(chan error, 1)
	go func() {
		m := manifest{Magic: magic, Version: version, Proto: protoTwoPhase, VIPs: append(set.VIPs(), VIP{Name: "ghost", Network: NetworkTCP, Addr: "127.0.0.1:1"})}
		payload, _ := mustJSON(m)
		fds, _ := set.fds()
		err := writeFrame(a, msgManifest, payload, fds)
		closeFDs(fds)
		if err != nil {
			handErr <- err
			return
		}
		_, ackPayload, _, err := readFrame(a)
		if err != nil {
			handErr <- err
			return
		}
		if string(ackPayload) == "" {
			handErr <- errors.New("empty ack")
			return
		}
		handErr <- nil
	}()
	_, _, err := Receive(b, ReceiveOptions{timeout: time.Second})
	if err == nil {
		t.Fatal("expected error for missing fds")
	}
	if err := <-handErr; err != nil {
		t.Fatalf("sender side: %v", err)
	}
}

func TestHandoffTimeout(t *testing.T) {
	set := mustListen(t, VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, _ := pair(t)
	// Nobody ever reads on b → ack never arrives → Handoff must time out.
	start := time.Now()
	_, err := Handoff(a, set, HandoffOptions{timeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not honoured")
	}
}

// TestServerConnect exercises the filesystem-path flow the real deployment
// uses (steps A–F with a named socket).
func TestServerConnect(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	path := filepath.Join(t.TempDir(), "takeover.sock")

	drained := make(chan Result, 1)
	srv := &Server{Set: set, OnDrainStart: func(r Result) { drained <- r }}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(path) }()

	// Wait for the socket file to appear.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, _, err := Connect(path, ConnectOptions{ReceiveOptions: ReceiveOptions{timeout: 500 * time.Millisecond}})
		if err == nil {
			// Closed here: a set left to the collector closes its socket
			// under a later test's fd ledger.
			got.Close()
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("connect never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case r := <-drained:
		if len(r.VIPs) != 1 || r.VIPs[0].Name != "web" {
			t.Fatalf("drain result = %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDrainStart never fired")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
}

// TestTakeoverUnderLoad drives continuous TCP connections through a restart
// and requires zero failures — the paper's headline property.
func TestTakeoverUnderLoad(t *testing.T) {
	old := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	addr := old.TCP("web").Addr().String()

	// Old instance serving loop: echo one byte then close.
	serve := func(ln *net.TCPListener) {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := c.Read(buf); err == nil {
					c.Write(buf)
				}
			}(c)
		}
	}
	go serve(old.TCP("web"))

	// Client load: sequential request loop, every one must succeed.
	stop := make(chan struct{})
	clientErr := make(chan error, 1)
	var served int
	go func() {
		defer close(clientErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				clientErr <- fmt.Errorf("dial: %w", err)
				return
			}
			c.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Write([]byte("x")); err != nil {
				clientErr <- fmt.Errorf("write: %w", err)
				c.Close()
				return
			}
			buf := make([]byte, 1)
			if _, err := c.Read(buf); err != nil {
				clientErr <- fmt.Errorf("read: %w", err)
				c.Close()
				return
			}
			c.Close()
			served++
		}
	}()

	time.Sleep(50 * time.Millisecond) // let some load flow to the old instance

	// Restart: hand off to the new instance mid-load.
	a, b := pair(t)
	go Handoff(a, old, HandoffOptions{})
	newSet, _, err := Receive(b, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer newSet.Close()
	go serve(newSet.TCP("web"))
	// Old instance drains (stops accepting) and terminates. Closing its
	// listener copy does not close the shared socket.
	old.Close()

	time.Sleep(100 * time.Millisecond) // load now flows to the new instance
	close(stop)
	if err, ok := <-clientErr; ok && err != nil {
		t.Fatalf("client observed a failure across restart: %v", err)
	}
	if served < 10 {
		t.Fatalf("only %d requests served; load generator broken?", served)
	}
}

func mustJSON(v any) ([]byte, error) {
	return json.Marshal(v)
}

// TestHandoffMeta: side-band metadata (e.g. the UDP user-space-routing
// forward address) rides the manifest to the receiver.
func TestHandoffMeta(t *testing.T) {
	set := mustListen(t, VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, b := pair(t)
	go Handoff(a, set, HandoffOptions{meta: map[string]string{"quic-forward": "127.0.0.1:9999"}})
	got, res, err := Receive(b, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if res.Meta["quic-forward"] != "127.0.0.1:9999" {
		t.Fatalf("meta = %v", res.Meta)
	}
}

// TestHandoffNilMeta: plain Handoff leaves Meta empty.
func TestHandoffNilMeta(t *testing.T) {
	set := mustListen(t, VIP{Name: "a", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	a, b := pair(t)
	go Handoff(a, set, HandoffOptions{})
	got, res, err := Receive(b, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if len(res.Meta) != 0 {
		t.Fatalf("meta = %v, want empty", res.Meta)
	}
}

// TestCloseTCPKeepsUDP: the drain path must retain UDP handles.
func TestCloseTCPKeepsUDP(t *testing.T) {
	set := mustListen(t,
		VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"},
		VIP{Name: "quic", Network: NetworkUDP, Addr: "127.0.0.1:0"},
	)
	if err := set.CloseTCP(); err != nil {
		t.Fatal(err)
	}
	if set.TCP("web") != nil {
		t.Fatal("TCP handle survived CloseTCP")
	}
	pc := set.UDP("quic")
	if pc == nil {
		t.Fatal("UDP handle removed by CloseTCP")
	}
	// The UDP socket must still be writable.
	if _, err := pc.WriteToUDP([]byte("x"), pc.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatalf("UDP socket dead after CloseTCP: %v", err)
	}
}

// TestHandoffVeryManyVIPs transfers more sockets than fit in one
// SCM_RIGHTS message, exercising the FD continuation frames.
func TestHandoffVeryManyVIPs(t *testing.T) {
	var vips []VIP
	for i := 0; i < 150; i++ {
		vips = append(vips, VIP{Name: fmt.Sprintf("vip-%03d", i), Network: NetworkTCP, Addr: "127.0.0.1:0"})
	}
	old := mustListen(t, vips...)
	a, b := pair(t)
	handErr := make(chan error, 1)
	go func() {
		_, err := Handoff(a, old, HandoffOptions{timeout: 10 * time.Second})
		handErr <- err
	}()
	got, res, err := Receive(b, ReceiveOptions{timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if err := <-handErr; err != nil {
		t.Fatal(err)
	}
	if got.Len() != 150 || res.OrphanedFDs != 0 {
		t.Fatalf("len=%d orphans=%d", got.Len(), res.OrphanedFDs)
	}
	// Order must be preserved across chunk boundaries.
	for i, v := range got.VIPs() {
		want := fmt.Sprintf("vip-%03d", i)
		if v.Name != want {
			t.Fatalf("vip %d = %s, want %s", i, v.Name, want)
		}
		if got.TCP(v.Name).Addr().String() != old.TCP(want).Addr().String() {
			t.Fatalf("vip %s bound to the wrong socket", v.Name)
		}
	}
}
