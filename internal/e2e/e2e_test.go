// Package e2e tests the production deployment shape: separate OS
// processes exchanging listening sockets through the real zdr-proxy
// binary. Everything else in the repository exercises the mechanisms
// in-process; this package proves the FD hand-off works across an actual
// process boundary, exactly as deployed (§4.1, Fig. 5), and between two
// builds: the tree under test and its predecessor, in both directions.
package e2e

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/mqtt"
)

var (
	proxyBin, appserverBin, brokerBin string
	// prevProxyBin is zdr-proxy built from prevRev, the predecessor
	// build; prevErr says why there is none.
	prevProxyBin, prevRev string
	prevErr               error
)

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
	prevProxyBin, prevRev, prevErr = buildPrev(dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildPrev builds zdr-proxy from the predecessor build into dir: the
// commit ZDR_PREV names, or else the nearest of the last 20 commits whose
// Go sources differ from the tree under test (a commit that only edits
// documents builds this tree again and would test nothing). The commit is
// extracted with git archive, so the repository's own state is untouched.
func buildPrev(dir string) (bin, rev string, err error) {
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", args...).Output()
		return strings.TrimSpace(string(out)), err
	}
	root, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return "", "", fmt.Errorf("no git history to build a predecessor from: %v", err)
	}
	rev = os.Getenv("ZDR_PREV")
	for i := 0; rev == "" && i <= 20; i++ {
		c, err := git("-C", root, "rev-parse", "--verify", "-q", fmt.Sprintf("HEAD~%d^{commit}", i))
		if err != nil {
			break // history ends here (or the clone is shallow)
		}
		err = exec.Command("git", "-C", root, "diff", "--quiet", c, "--", "*.go", "go.mod").Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == 1 {
			rev = c
		} else if err != nil {
			return "", "", fmt.Errorf("git diff against %s: %v", c, err)
		}
	}
	if rev == "" {
		return "", "", errors.New("no commit among the last 20 has Go sources that differ from the tree under test")
	}
	if desc, err := git("-C", root, "log", "-1", "--format=%h %s", rev); err == nil {
		rev = desc
	}
	src := filepath.Join(dir, "prev-src")
	if err := os.Mkdir(src, 0o755); err != nil {
		return "", rev, err
	}
	archive := exec.Command("git", "-C", root, "archive", strings.Fields(rev)[0])
	untar := exec.Command("tar", "-x", "-C", src)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", rev, err
	}
	if err := untar.Start(); err != nil {
		return "", rev, err
	}
	aerr := archive.Run()
	if err := errors.Join(aerr, untar.Wait()); err != nil {
		return "", rev, fmt.Errorf("extracting %s: %v", rev, err)
	}
	bin = filepath.Join(dir, "prev-zdr-proxy")
	build := exec.Command("go", "build", "-o", bin, "./cmd/zdr-proxy")
	build.Dir = src
	if out, err := build.CombinedOutput(); err != nil {
		return "", rev, fmt.Errorf("building zdr-proxy at %s: %v\n%s", rev, err, out)
	}
	return bin, rev, nil
}

// needPrev returns the predecessor's zdr-proxy, or skips the test saying
// why there is none.
func needPrev(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns processes")
	}
	if prevProxyBin == "" {
		t.Skipf("no predecessor build: %v", prevErr)
	}
	t.Logf("predecessor: %s", prevRev)
	return prevProxyBin
}

// proc is one daemon process; its combined output goes to its log file.
type proc struct {
	cmd  *exec.Cmd
	path string
	done chan struct{} // closed once the process has exited
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
	p := &proc{cmd: cmd, path: outFile, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		f.Close()
		close(p.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	return p
}

// field waits for the process log to match pattern and returns the first
// submatch.
func (p *proc) field(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, _ := os.ReadFile(p.path)
		if m := re.FindSubmatch(b); m != nil {
			return string(m[1])
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never matched %q; log so far:\n%s", filepath.Base(p.path), pattern, b)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitOutput waits for the process log to contain substr.
func (p *proc) waitOutput(t *testing.T, substr string) {
	t.Helper()
	p.field(t, "("+regexp.QuoteMeta(substr)+")")
}

// vip is the address zdr-proxy printed for a VIP it serves.
func (p *proc) vip(t *testing.T, name string) string {
	t.Helper()
	return p.field(t, `(?m)^  `+name+` +(\S+)$`)
}

// stop sends SIGTERM and waits for the process to exit.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never exited after SIGTERM", filepath.Base(p.path))
	}
}

// counter reads one counter from the process's admin /metrics.
func (p *proc) counter(t *testing.T, name string) int {
	t.Helper()
	client := http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + p.field(t, `admin on http://(\S+)`) + "/metrics")
	if err != nil {
		t.Fatalf("%s /metrics: %v", filepath.Base(p.path), err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// get sends one GET on a fresh connection and reads the response.
func get(addr, path string) (int, string, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return 0, "", err
	}
	defer conn.Close()
	if _, err := http1.WriteRequest(conn, http1.NewRequest("GET", path, nil, 0)); err != nil {
		return 0, "", err
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http1.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0, "", err
	}
	body, err := http1.ReadFullBody(resp.Body)
	return resp.StatusCode, string(body), err
}

// getLoop sends back-to-back GETs until finish. A GET that cannot connect,
// send or read its response — or, when want is set, whose status is not
// want — counts as failed and ends the loop.
type getLoop struct {
	served, failed atomic.Int64
	stop, done     chan struct{}
}

func startGetLoop(addr, path string, want int) *getLoop {
	l := &getLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			if code, _, err := get(addr, path); err != nil || want != 0 && code != want {
				l.failed.Add(1)
				return
			}
			l.served.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	return l
}

// finish stops the loop and fails the test on any failed GET.
func (l *getLoop) finish(t *testing.T, what string) {
	t.Helper()
	close(l.stop)
	<-l.done
	if l.failed.Load() > 0 {
		t.Fatalf("%d requests failed across %s (served %d)", l.failed.Load(), what, l.served.Load())
	}
	if l.served.Load() < 50 {
		t.Fatalf("only %d requests served; load generator broken?", l.served.Load())
	}
}

// checkLease asserts the post-commit lease was held on both sides of a
// finished hand-off: the old process counted the receiver's READY on its
// own admin endpoint (not handed off). A READY exists only in v3, and
// this build refuses any other revision as sender or receiver, so the
// count shows both ends ran the lease whichever of them is the
// predecessor.
func checkLease(t *testing.T, old *proc) {
	t.Helper()
	if n := old.counter(t, "zdr_proxy_takeover_readies"); n != 1 {
		t.Fatalf("old generation's proxy.takeover_readies = %d, want 1", n)
	}
}

// releaseEdge runs an Edge generation of oldBin under a GET loop and
// releases it to a generation of newBin as separate OS processes: the new
// one receives the sockets via SCM_RIGHTS over the takeover path, the old
// one drains and exits, and the client sees zero failures.
func releaseEdge(t *testing.T, oldBin, newBin string) {
	dir := t.TempDir()
	takeoverPath := filepath.Join(dir, "edge.sock")
	common := []string{
		"-role", "edge",
		"-origin", "127.0.0.1:1", // static-only edge; origin never dialed
		"-web", "127.0.0.1:0", "-mqtt", "127.0.0.1:0", "-health", "127.0.0.1:0",
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}
	gen1 := startProc(t, oldBin, filepath.Join(dir, "gen1.log"), append([]string{"-name", "gen1", "-admin", "127.0.0.1:0"}, common...)...)
	gen1.waitOutput(t, "takeover path")
	webAddr, healthAddr := gen1.vip(t, "web"), gen1.vip(t, "health")

	// The edge has no static content and no origin, so every GET gets a
	// 5xx: the point is the LISTENER never goes away and every request
	// gets an answer.
	load := startGetLoop(webAddr, "/x", 0)
	time.Sleep(200 * time.Millisecond)
	if err := (&katran.HCProber{}).Probe(healthAddr, time.Second); err != nil {
		t.Fatalf("gen1 health probe: %v", err)
	}

	// Generation 2: a different PROCESS takes the sockets over.
	gen2 := startProc(t, newBin, filepath.Join(dir, "gen2.log"),
		append([]string{"-name", "gen2", "-takeover-from", takeoverPath}, common...)...)
	gen2.waitOutput(t, "took over")
	gen2.waitOutput(t, "takeover path") // re-armed for the next release
	checkLease(t, gen1)

	gen1.stop(t)
	// Load continues against gen2's process.
	time.Sleep(300 * time.Millisecond)
	load.finish(t, "the cross-process takeover")
	// Health checks now answered by gen2 (step F).
	if err := (&katran.HCProber{}).Probe(healthAddr, time.Second); err != nil {
		t.Fatalf("health probe after takeover: %v", err)
	}
}

// releaseOrigin runs the full paper topology as five separate OS
// processes — broker, app server, Origin proxy (a generation of oldBin,
// then one of newBin), Edge proxy — and exercises both user protocols
// across a cross-process Origin takeover: a GET loop through the whole
// chain and a persistent MQTT connection kept alive by DCR.
func releaseOrigin(t *testing.T, oldBin, newBin string) {
	dir := t.TempDir()
	takeoverPath := filepath.Join(dir, "origin.sock")

	broker := startProc(t, brokerBin, filepath.Join(dir, "broker.log"), "-addr", "127.0.0.1:0", "-name", "broker-1")
	brokerAddr := broker.field(t, `serving MQTT on (\S+)`)
	appsrv := startProc(t, appserverBin, filepath.Join(dir, "as.log"),
		"-addr", "127.0.0.1:0", "-name", "as-1", "-mode", "ppr", "-drain", "200ms")
	asAddr := appsrv.field(t, `serving on (\S+)`)

	originArgs := []string{
		"-role", "origin",
		"-app", asAddr, "-broker", brokerAddr,
		"-tunnel", "127.0.0.1:0", "-health", "127.0.0.1:0",
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}
	origin1 := startProc(t, oldBin, filepath.Join(dir, "origin1.log"), append([]string{"-name", "origin1", "-admin", "127.0.0.1:0"}, originArgs...)...)
	origin1.waitOutput(t, "takeover path")

	edge := startProc(t, proxyBin, filepath.Join(dir, "edge.log"),
		"-role", "edge", "-origin", origin1.vip(t, "tunnel"),
		"-web", "127.0.0.1:0", "-mqtt", "127.0.0.1:0", "-health", "127.0.0.1:0",
		"-drain", "500ms")
	edge.waitOutput(t, "listening")
	webAddr, mqttAddr := edge.vip(t, "web"), edge.vip(t, "mqtt")

	// HTTP through the whole chain.
	code, body, err := get(webAddr, "/hello")
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

	// Cross-process Origin takeover under the GET loop.
	load := startGetLoop(webAddr, "/hello", 200)
	time.Sleep(200 * time.Millisecond)
	origin2 := startProc(t, newBin, filepath.Join(dir, "origin2.log"),
		append([]string{"-name", "origin2", "-takeover-from", takeoverPath}, originArgs...)...)
	origin2.waitOutput(t, "took over")
	checkLease(t, origin1)

	// origin1 drains and exits; HTTP keeps working via origin2 (the edge
	// re-dials the same tunnel address, landing on the new process).
	origin1.stop(t)
	time.Sleep(300 * time.Millisecond)
	load.finish(t, "the cross-process origin takeover")
	code, body, err = get(webAddr, "/hello")
	if err != nil || code != 200 || !strings.Contains(body, "as-1") {
		t.Fatalf("post-restart request: code=%d body=%q err=%v", code, body, err)
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

// TestCrossProcessTakeover: an Edge release between two processes of the
// build under test.
func TestCrossProcessTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	releaseEdge(t, proxyBin, proxyBin)
}

// TestCrossProcessTopology: an Origin release between two processes of
// the build under test, inside the five-process topology.
func TestCrossProcessTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	releaseOrigin(t, proxyBin, proxyBin)
}

// TestCrossBuildEdge releases an Edge from the predecessor build to the
// build under test and back (a rollback): the N−1 rule, checked between
// two real builds rather than emulated inside one.
func TestCrossBuildEdge(t *testing.T) {
	prev := needPrev(t)
	t.Run("prev-to-head", func(t *testing.T) { releaseEdge(t, prev, proxyBin) })
	t.Run("head-to-prev", func(t *testing.T) { releaseEdge(t, proxyBin, prev) })
}

// TestCrossBuildOrigin is TestCrossBuildEdge for the Origin, with the
// build under test's Edge, broker and app server around it, so its h2t
// tunnel also meets the predecessor's.
func TestCrossBuildOrigin(t *testing.T) {
	prev := needPrev(t)
	t.Run("prev-to-head", func(t *testing.T) { releaseOrigin(t, prev, proxyBin) })
	t.Run("head-to-prev", func(t *testing.T) { releaseOrigin(t, proxyBin, prev) })
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
	takeoverPath := filepath.Join(dir, "edge.sock")
	common := []string{
		"-role", "edge",
		"-origin", "127.0.0.1:1", // static-only edge; origin never dialed
		"-web", "127.0.0.1:0", "-health", "127.0.0.1:0",
		"-drain", "500ms",
		"-takeover-path", takeoverPath,
	}
	gen1 := startProc(t, proxyBin, filepath.Join(dir, "gen1.log"), append([]string{"-name", "gen1"}, common...)...)
	gen1.waitOutput(t, "takeover path")
	webAddr, healthAddr := gen1.vip(t, "web"), gen1.vip(t, "health")

	load := startGetLoop(webAddr, "/x", 0)
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
		out, _ := io.ReadAll(conn)
		return string(out)
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
	gen2 := startProc(t, proxyBin, filepath.Join(dir, "gen2.log"),
		append([]string{"-name", "gen2", "-takeover-from", takeoverPath}, common...)...)
	gen2.waitOutput(t, "took over")
	gen2.waitOutput(t, "takeover path")

	gen1.stop(t)
	time.Sleep(300 * time.Millisecond)
	load.finish(t, "the aborted + real takeover")
}
