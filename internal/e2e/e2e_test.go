// Package e2e tests the production deployment shape: separate OS
// processes exchanging listening sockets through the real zdr-proxy
// binary. Everything else in the repository exercises the mechanisms
// in-process; this package proves the FD hand-off works across an actual
// process boundary, exactly as deployed (§4.1, Fig. 5).
package e2e

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/mqtt"
)

var proxyBin, appserverBin, brokerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "zdr-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, b := range []struct {
		out *string
		pkg string
	}{
		{&proxyBin, "zdr/cmd/zdr-proxy"},
		{&appserverBin, "zdr/cmd/zdr-appserver"},
		{&brokerBin, "zdr/cmd/zdr-broker"},
	} {
		*b.out = filepath.Join(dir, filepath.Base(b.pkg))
		cmd := exec.Command("go", "build", "-o", *b.out, b.pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building", b.pkg, ":", err)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func startProc(t *testing.T, bin, outFile string, args ...string) *proc {
	t.Helper()
	f, err := os.Create(outFile)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, out: f, path: outFile}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		f.Close()
	})
	return p
}

// proc wraps one zdr-proxy process.
type proc struct {
	cmd  *exec.Cmd
	out  *os.File
	path string
}

func startProxy(t *testing.T, outFile string, args ...string) *proc {
	t.Helper()
	f, err := os.Create(outFile)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(proxyBin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, out: f, path: outFile}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		f.Close()
	})
	return p
}

// waitOutput polls the process log for a substring.
func (p *proc) waitOutput(t *testing.T, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		b, _ := os.ReadFile(p.path)
		if strings.Contains(string(b), substr) {
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("process output never contained %q; log so far:\n%s", substr, b)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// TestCrossProcessTakeover: generation 1 and generation 2 are separate OS
// processes. Gen 2 receives the sockets via SCM_RIGHTS over the takeover
// path, gen 1 drains and exits, and a client hammering the web VIP sees
// zero failures.
func TestCrossProcessTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	addrs := freeAddrs(t, 3)
	webAddr, mqttAddr, healthAddr := addrs[0], addrs[1], addrs[2]
	takeoverPath := filepath.Join(dir, "edge.sock")

	common := []string{
		"-role", "edge",
		"-origin", "127.0.0.1:1", // static-only edge; origin never dialed
		"-web", webAddr, "-mqtt", mqttAddr, "-health", healthAddr,
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}

	gen1 := startProxy(t, filepath.Join(dir, "gen1.log"), append([]string{"-name", "gen1"}, common...)...)
	gen1.waitOutput(t, "takeover path", 5*time.Second)

	// The edge serves /static/ping from its built-in nothing... it has no
	// static content via flags, so use the health VIP as the probe target
	// and MQTT VIP reachability as the serving signal. For HTTP we accept
	// 5xx responses — the point is the LISTENER never goes away and every
	// request gets an answer.
	var served, failed atomic.Int64
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", webAddr, 2*time.Second)
			if err != nil {
				failed.Add(1)
				return
			}
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/x", nil, 0)); err != nil {
				failed.Add(1)
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				failed.Add(1)
				conn.Close()
				return
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			served.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(200 * time.Millisecond)

	if err := (&katran.HCProber{}).Probe(healthAddr, time.Second); err != nil {
		t.Fatalf("gen1 health probe: %v", err)
	}

	// Generation 2: a different PROCESS takes the sockets over.
	gen2 := startProxy(t, filepath.Join(dir, "gen2.log"),
		append([]string{"-name", "gen2", "-takeover-from", takeoverPath}, common...)...)
	gen2.waitOutput(t, "took over", 5*time.Second)
	gen2.waitOutput(t, "takeover path", 5*time.Second) // re-armed for the next release

	// Gen 1 exits after its drain (SIGTERM then wait).
	gen1.cmd.Process.Signal(syscall.SIGTERM)
	waitExit := make(chan error, 1)
	go func() { waitExit <- gen1.cmd.Wait() }()
	select {
	case <-waitExit:
	case <-time.After(10 * time.Second):
		t.Fatal("gen1 never exited after SIGTERM")
	}

	// Load continues against gen2's process.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-loadDone
	if failed.Load() > 0 {
		t.Fatalf("%d requests failed across the cross-process takeover (served %d)", failed.Load(), served.Load())
	}
	if served.Load() < 50 {
		t.Fatalf("only %d requests served; load generator broken?", served.Load())
	}
	// Health checks now answered by gen2 (step F).
	if err := (&katran.HCProber{}).Probe(healthAddr, time.Second); err != nil {
		t.Fatalf("health probe after takeover: %v", err)
	}
}

// TestCrossProcessTakeoverAbort is the §5.1 crash window across a real
// process boundary: a "new generation" dials the takeover path, takes
// part of the hand-off, and dies before the ACK. The running process must
// roll back — stay active, keep serving, count the abort in its STATS
// dump — and a real second-generation process must then take over cleanly.
func TestCrossProcessTakeoverAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	addrs := freeAddrs(t, 2)
	webAddr, healthAddr := addrs[0], addrs[1]
	takeoverPath := filepath.Join(dir, "edge.sock")

	common := []string{
		"-role", "edge",
		"-origin", "127.0.0.1:1", // static-only edge; origin never dialed
		"-web", webAddr, "-health", healthAddr,
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}
	gen1 := startProxy(t, filepath.Join(dir, "gen1.log"), append([]string{"-name", "gen1"}, common...)...)
	gen1.waitOutput(t, "takeover path", 5*time.Second)

	var served, failed atomic.Int64
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", webAddr, 2*time.Second)
			if err != nil {
				failed.Add(1)
				return
			}
			if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/x", nil, 0)); err != nil {
				failed.Add(1)
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			resp, err := http1.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				failed.Add(1)
				conn.Close()
				return
			}
			http1.ReadFullBody(resp.Body)
			conn.Close()
			served.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)

	// The dying receiver: this TEST process connects to the takeover
	// path, reads the start of the manifest — the moment the FDs are in
	// flight — and slams the connection shut without ACKing.
	crash, err := net.Dial("unix", takeoverPath)
	if err != nil {
		t.Fatalf("dialing takeover path: %v", err)
	}
	crash.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := crash.Read(make([]byte, 256)); err != nil {
		t.Fatalf("fake receiver read: %v", err)
	}
	crash.Close()

	// The abort shows up in the release signal (§6): STATS must count it
	// while the instance stays active (never started draining).
	stats := func() string {
		conn, err := net.DialTimeout("tcp", healthAddr, time.Second)
		if err != nil {
			return ""
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write([]byte("STATS\n"))
		var out []byte
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				return string(out)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	var dump string
	for {
		dump = stats()
		if strings.Contains(dump, "counter proxy.takeover_aborts 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abort never counted; STATS:\n%s", dump)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !strings.Contains(dump, "status active") {
		t.Fatalf("gen1 not active after aborted handoff; STATS:\n%s", dump)
	}

	// The real release now goes through: a second PROCESS takes over.
	gen2 := startProxy(t, filepath.Join(dir, "gen2.log"),
		append([]string{"-name", "gen2", "-takeover-from", takeoverPath}, common...)...)
	gen2.waitOutput(t, "took over", 5*time.Second)
	gen2.waitOutput(t, "takeover path", 5*time.Second)

	gen1.cmd.Process.Signal(syscall.SIGTERM)
	waitExit := make(chan error, 1)
	go func() { waitExit <- gen1.cmd.Wait() }()
	select {
	case <-waitExit:
	case <-time.After(10 * time.Second):
		t.Fatal("gen1 never exited after SIGTERM")
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-loadDone
	if failed.Load() > 0 {
		t.Fatalf("%d requests failed across the aborted + real takeover (served %d)", failed.Load(), served.Load())
	}
	if served.Load() < 50 {
		t.Fatalf("only %d requests served; load generator broken?", served.Load())
	}
}

// TestCrossProcessTopology runs the full paper topology as five separate
// OS processes — broker, app server, Origin proxy (two generations), Edge
// proxy — and exercises both user protocols across a cross-process Origin
// takeover: an HTTP request path and a persistent MQTT connection kept
// alive by DCR-capable infrastructure.
func TestCrossProcessTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	a := freeAddrs(t, 7)
	brokerAddr, asAddr := a[0], a[1]
	tunnelAddr, originHealth := a[2], a[3]
	webAddr, mqttAddr, edgeHealth := a[4], a[5], a[6]
	takeoverPath := filepath.Join(dir, "origin.sock")

	broker := startProc(t, brokerBin, filepath.Join(dir, "broker.log"), "-addr", brokerAddr, "-name", "broker-1")
	broker.waitOutput(t, "serving MQTT", 5*time.Second)

	appsrv := startProc(t, appserverBin, filepath.Join(dir, "as.log"),
		"-addr", asAddr, "-name", "as-1", "-mode", "ppr", "-drain", "200ms")
	appsrv.waitOutput(t, "serving on", 5*time.Second)

	originArgs := []string{
		"-role", "origin",
		"-app", asAddr, "-broker", brokerAddr,
		"-tunnel", tunnelAddr, "-health", originHealth,
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}
	origin1 := startProxy(t, filepath.Join(dir, "origin1.log"), append([]string{"-name", "origin1"}, originArgs...)...)
	origin1.waitOutput(t, "takeover path", 5*time.Second)

	edge := startProxy(t, filepath.Join(dir, "edge.log"),
		"-role", "edge", "-origin", tunnelAddr,
		"-web", webAddr, "-mqtt", mqttAddr, "-health", edgeHealth,
		"-drain", "500ms")
	edge.waitOutput(t, "listening", 5*time.Second)

	// HTTP through the whole chain.
	get := func() (int, string, error) {
		conn, err := net.DialTimeout("tcp", webAddr, 2*time.Second)
		if err != nil {
			return 0, "", err
		}
		defer conn.Close()
		if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", "/hello", nil, 0)); err != nil {
			return 0, "", err
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		resp, err := http1.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			return 0, "", err
		}
		body, err := http1.ReadFullBody(resp.Body)
		if err != nil {
			return 0, "", err
		}
		return resp.StatusCode, string(body), nil
	}
	code, body, err := get()
	if err != nil || code != 200 || !strings.Contains(body, "as-1") {
		t.Fatalf("pre-restart request: code=%d body=%q err=%v", code, body, err)
	}

	// Persistent MQTT connection through edge → origin1 → broker.
	mc, err := net.DialTimeout("tcp", mqttAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := mqtt.NewClient(mc, "user-e2e", true)
	if _, err := client.Connect(0, 5*time.Second); err != nil {
		t.Fatalf("mqtt connect: %v", err)
	}
	defer client.Disconnect()
	if err := client.Ping(3 * time.Second); err != nil {
		t.Fatalf("mqtt ping: %v", err)
	}

	// Cross-process Origin takeover.
	origin2 := startProxy(t, filepath.Join(dir, "origin2.log"),
		append([]string{"-name", "origin2", "-takeover-from", takeoverPath}, originArgs...)...)
	origin2.waitOutput(t, "took over", 5*time.Second)

	// origin1 drains and exits.
	origin1.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { origin1.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("origin1 never exited")
	}

	// HTTP must keep working via origin2 (the edge re-dials the same
	// tunnel address, landing on the new process).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body, err = get()
		if err == nil && code == 200 && strings.Contains(body, "as-1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart request never succeeded: code=%d body=%q err=%v", code, body, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The MQTT connection must have survived via DCR (origin1 solicited,
	// the edge re_connected through the shared tunnel address → origin2,
	// the broker spliced the session).
	select {
	case <-client.Done():
		t.Fatal("MQTT connection dropped across the cross-process origin restart")
	default:
	}
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatalf("post-restart mqtt ping: %v", err)
	}
}
