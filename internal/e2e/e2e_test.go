// Package e2e tests the production deployment shape: every node of a
// topology spec is a zdr-node process, and a release is the same command
// started again, so the sockets cross a real process boundary (§4.1,
// Fig. 5), between processes of one build and between the tree under
// test and its predecessor build, in both directions.
package e2e

import (
	"bufio"
	"cmp"
	"encoding/json"
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

	"zdr/internal/fleet"
	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/mqtt"
)

var (
	nodeBin string
	// prevBin is the predecessor build's zdr-node, or its zdr-proxy when
	// prevFlags; prevErr says why there is none.
	prevBin, prevRev string
	prevFlags        bool
	prevErr          error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "zdr-e2e")
	if err == nil {
		nodeBin = filepath.Join(dir, "zdr-node")
		err = goBuild("", nodeBin, "zdr/cmd/zdr-node")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prevBin, prevRev, prevFlags, prevErr = buildPrev(dir)
	code := m.Run()
	os.RemoveAll(dir) // os.Exit skips deferred calls
	os.Exit(code)
}

// goBuild builds package pkg of the module at src ("" for this one)
// into out.
func goBuild(src, out, pkg string) error {
	build := exec.Command("go", "build", "-o", out, pkg)
	build.Dir = src
	if b, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s: %v\n%s", pkg, err, b)
	}
	return nil
}

// buildPrev builds the predecessor build's daemon into dir: zdr-node, or
// zdr-proxy (flags) where the predecessor has no zdr-node. The
// predecessor is the commit ZDR_PREV names, or else the nearest of the
// last 20 commits whose Go sources differ from the tree under test (a
// commit that only edits documents builds this tree again and would test
// nothing). The commit is extracted with git archive, so the
// repository's own state is untouched.
func buildPrev(dir string) (bin, rev string, flags bool, err error) {
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", args...).Output()
		return strings.TrimSpace(string(out)), err
	}
	root, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return "", "", false, fmt.Errorf("no git history to build a predecessor from: %v", err)
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
			return "", "", false, fmt.Errorf("git diff against %s: %v", c, err)
		}
	}
	if rev == "" {
		return "", "", false, errors.New("no commit among the last 20 has Go sources that differ from the tree under test")
	}
	if desc, err := git("-C", root, "log", "-1", "--format=%h %s", rev); err == nil {
		rev = desc
	}
	src, tarball := filepath.Join(dir, "prev-src"), filepath.Join(dir, "prev.tar")
	for _, cmd := range [][]string{
		{"git", "-C", root, "archive", "-o", tarball, strings.Fields(rev)[0]},
		{"mkdir", src},
		{"tar", "-x", "-C", src, "-f", tarball},
	} {
		if out, err := exec.Command(cmd[0], cmd[1:]...).CombinedOutput(); err != nil {
			return "", rev, false, fmt.Errorf("extracting %s: %v\n%s", rev, err, out)
		}
	}
	pkg := "zdr/cmd/zdr-node"
	if _, err := os.Stat(filepath.Join(src, "cmd/zdr-node")); err != nil {
		pkg, flags = "zdr/cmd/zdr-proxy", true
	}
	bin = filepath.Join(dir, "prev-"+filepath.Base(pkg))
	if err := goBuild(src, bin, pkg); err != nil {
		return "", rev, flags, fmt.Errorf("at %s: %v", rev, err)
	}
	return bin, rev, flags, nil
}

// spawns skips a test that spawns processes under -short.
func spawns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
}

// needPrev returns the predecessor's daemon, or skips the test saying
// why there is none.
func needPrev(t *testing.T) string {
	t.Helper()
	spawns(t)
	if prevBin == "" {
		t.Skipf("no predecessor build: %v", prevErr)
	}
	t.Logf("predecessor: %s", prevRev)
	return prevBin
}

// deployment is a topology spec written to a directory of its own,
// which also holds its nodes' takeover paths, state files and logs.
type deployment struct {
	fleet.Spec
	path string
}

func newDeployment(t *testing.T, spec fleet.Spec) *deployment {
	t.Helper()
	spec.Dir = t.TempDir()
	d := &deployment{Spec: spec, path: filepath.Join(spec.Dir, "topo.json")}
	b, _ := json.Marshal(spec) // a Spec's Build hook is not encoded
	if err := os.WriteFile(d.path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return d
}

// start runs node from bin, with an admin endpoint when admin is set,
// and returns once it serves. Started while the node runs, it releases
// the node.
func (d *deployment) start(t *testing.T, bin, node string, admin bool) *proc {
	t.Helper()
	var extra []string
	if admin {
		extra = []string{"-admin", "127.0.0.1:0"}
	}
	if bin == prevBin && prevFlags {
		return d.startFlagProxy(t, node, extra)
	}
	p := startProc(t, bin, d.Dir, node, append([]string{"-spec", d.path, "-node", node}, extra...)...)
	p.field(t, `(takeover path|listening)`)
	return p
}

// state reads node's state file, zero before the node wrote one.
func (d *deployment) state(node string) (st struct {
	Gen   int               `json:"gen"`
	Addrs map[string]string `json:"addrs"`
}) {
	b, _ := os.ReadFile(filepath.Join(d.Dir, node+".json"))
	json.Unmarshal(b, &st)
	return st
}

// startFlagProxy is start for a predecessor that predates zdr-node: it
// runs proxy node as the flag-speaking zdr-proxy, with flags derived from
// the spec as zdr-node reads it, and writes the state file that build
// does not, from the VIPs it printed.
func (d *deployment) startFlagProxy(t *testing.T, node string, extra []string) *proc {
	t.Helper()
	upstream := func(prefix string, count int, vip string) string {
		var addrs []string
		for i := range count {
			addrs = append(addrs, d.state(fmt.Sprintf("%s-%02d", prefix, i)).Addrs[vip])
		}
		return strings.Join(addrs, ",")
	}
	st, sock := d.state(node), filepath.Join(d.Dir, node+".sock")
	args := append(extra, "-name", node, "-generation", strconv.Itoa(st.Gen+1), "-drain", d.Drain.String(),
		"-takeover-path", sock, "-health", "127.0.0.1:0")
	if _, err := os.Stat(sock); err == nil {
		args = append(args, "-takeover-from", sock)
	}
	if strings.HasPrefix(node, "origin-") {
		args = append(args, "-role", "origin", "-tunnel", "127.0.0.1:0", "-app", upstream("as", d.Apps, "http"),
			"-broker", d.state("broker").Addrs["mqtt"])
	} else { // that build requires an Origin: without one, an address nobody answers on
		args = append(args, "-role", "edge", "-origin", cmp.Or(upstream("origin", d.Origins, "tunnel"), "127.0.0.1:1"),
			"-web", "127.0.0.1:0", "-mqtt", "127.0.0.1:0")
	}
	p := startProc(t, prevBin, d.Dir, node, args...)
	p.field(t, "(takeover path)")
	st.Gen, st.Addrs = st.Gen+1, map[string]string{}
	b, _ := os.ReadFile(p.path)
	for _, m := range regexp.MustCompile(`(?m)^  (\w+) +(\S+)$`).FindAllSubmatch(b, -1) {
		st.Addrs[string(m[1])] = string(m[2])
	}
	if b, err := json.Marshal(st); err != nil || os.WriteFile(filepath.Join(d.Dir, node+".json"), b, 0o644) != nil {
		t.Fatalf("writing %s's state file: %v", node, err)
	}
	return p
}

// proc is one daemon process; its combined output goes to its log file.
type proc struct {
	cmd  *exec.Cmd
	path string
	done chan struct{} // closed once the process has exited
}

// startProc runs bin with args, its output in a log file of its own in
// dir named for node.
func startProc(t *testing.T, bin, dir, node string, args ...string) *proc {
	t.Helper()
	f, err := os.CreateTemp(dir, node+"-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // the child has its own copy
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, path: f.Name(), done: make(chan struct{})}
	go func() { cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { cmd.Process.Kill(); <-p.done })
	return p
}

// poll calls try every 25 ms until it reports done, and fails the test
// after 5 s with what it last saw.
func poll(t *testing.T, what string, try func() (seen string, done bool)) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		seen, done := try()
		if done {
			return seen
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s; last seen:\n%s", what, seen)
		}
	}
}

// field waits for the process log to match pattern and returns the first
// submatch.
func (p *proc) field(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	var m [][]byte
	poll(t, filepath.Base(p.path)+" never matched "+pattern, func() (string, bool) {
		b, _ := os.ReadFile(p.path)
		m = re.FindSubmatch(b)
		return string(b), m != nil
	})
	return string(m[1])
}

// vip is the address the daemon printed for a VIP it serves.
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

// getLoop GETs path from addr back to back until the returned finish,
// which fails the test if a GET could not connect, send or read its
// response, or got a status other than want (when set), or if fewer than
// 50 were served.
func getLoop(t *testing.T, addr, path string, want int) (finish func(what string)) {
	var stop atomic.Bool
	done := make(chan error, 1)
	served := 0
	go func() {
		for !stop.Load() {
			if code, _, err := get(addr, path); err != nil || want != 0 && code != want {
				done <- fmt.Errorf("a GET failed: status %d, %v", code, err)
				return
			}
			served++
			time.Sleep(time.Millisecond)
		}
		done <- nil
	}()
	return func(what string) {
		t.Helper()
		stop.Store(true)
		if err := <-done; err != nil || served < 50 {
			t.Fatalf("across %s: %d requests served, then %v", what, served, err)
		}
	}
}

// checkLease asserts the post-commit lease was held on both sides of a
// finished hand-off: the old process counted the receiver's READY on its
// own admin endpoint. Only v3 has a READY, and this build refuses any
// other revision either way, so both ends ran the lease.
func checkLease(t *testing.T, old *proc) {
	t.Helper()
	resp, err := (&http.Client{Timeout: 2 * time.Second}).Get("http://" + old.field(t, `admin on http://(\S+)`) + "/metrics")
	if err != nil {
		t.Fatalf("old generation's /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !regexp.MustCompile(`(?m)^zdr_proxy_takeover_readies 1$`).Match(body) {
		t.Fatalf("old generation's proxy.takeover_readies is not 1:\n%s", body)
	}
}

// releaseEdge runs an Edge generation of oldBin under a GET loop and
// releases it to a generation of newBin as separate OS processes: the new
// one receives the sockets via SCM_RIGHTS over the takeover path, the old
// one drains and exits, and the client sees zero failures.
func releaseEdge(t *testing.T, oldBin, newBin string) {
	// An Edge without Origins: every GET gets a 5xx. The point is the
	// LISTENER never goes away and every request gets an answer.
	d := newDeployment(t, fleet.Spec{Edges: 1, Drain: 500 * time.Millisecond})
	gen1 := d.start(t, oldBin, "edge-00", true)
	webAddr, healthAddr := gen1.vip(t, "web"), gen1.vip(t, "health")

	finish := getLoop(t, webAddr, "/x", 0)
	time.Sleep(200 * time.Millisecond)
	if err := (&katran.HCProber{}).Probe(healthAddr, time.Second); err != nil {
		t.Fatalf("gen1 health probe: %v", err)
	}

	// Generation 2: the node started again, in another PROCESS, takes over.
	gen2 := d.start(t, newBin, "edge-00", false)
	gen2.field(t, "(took over)") // and re-armed for the next release
	checkLease(t, gen1)

	gen1.stop(t)
	// Load continues against gen2's process.
	time.Sleep(300 * time.Millisecond)
	finish("the cross-process takeover")
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
	d := newDeployment(t, fleet.Spec{Broker: true, Apps: 1, Origins: 1, Edges: 1, Drain: 500 * time.Millisecond})
	d.start(t, nodeBin, "broker", false)
	d.start(t, nodeBin, "as-00", false)
	origin1 := d.start(t, oldBin, "origin-00", true)
	edge := d.start(t, nodeBin, "edge-00", false)
	webAddr, mqttAddr := edge.vip(t, "web"), edge.vip(t, "mqtt")

	// HTTP through the whole chain.
	chain := func(when string) {
		if code, body, err := get(webAddr, "/hello"); err != nil || code != 200 || !strings.Contains(body, "as-00") {
			t.Fatalf("%s request: code=%d body=%q err=%v", when, code, body, err)
		}
	}
	chain("pre-restart")

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
	finish := getLoop(t, webAddr, "/hello", 200)
	time.Sleep(200 * time.Millisecond)
	origin2 := d.start(t, newBin, "origin-00", false)
	origin2.field(t, "(took over)")
	checkLease(t, origin1)

	// origin1 drains and exits; HTTP keeps working via origin2 (the edge
	// re-dials the same tunnel address, landing on the new process).
	origin1.stop(t)
	time.Sleep(300 * time.Millisecond)
	finish("the cross-process origin takeover")
	chain("post-restart")

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
	spawns(t)
	releaseEdge(t, nodeBin, nodeBin)
}

// TestCrossProcessTopology: an Origin release between two processes of
// the build under test, inside the five-process topology.
func TestCrossProcessTopology(t *testing.T) {
	spawns(t)
	releaseOrigin(t, nodeBin, nodeBin)
}

// TestCrossBuildEdge releases an Edge from the predecessor build to the
// build under test and back (a rollback): the N−1 rule, checked between
// two real builds rather than emulated inside one.
func TestCrossBuildEdge(t *testing.T) {
	prev := needPrev(t)
	t.Run("prev-to-head", func(t *testing.T) { releaseEdge(t, prev, nodeBin) })
	t.Run("head-to-prev", func(t *testing.T) { releaseEdge(t, nodeBin, prev) })
}

// TestCrossBuildOrigin is TestCrossBuildEdge for the Origin, with the
// build under test's Edge, broker and app server around it, so its h2t
// tunnel also meets the predecessor's.
func TestCrossBuildOrigin(t *testing.T) {
	prev := needPrev(t)
	t.Run("prev-to-head", func(t *testing.T) { releaseOrigin(t, prev, nodeBin) })
	t.Run("head-to-prev", func(t *testing.T) { releaseOrigin(t, nodeBin, prev) })
}

// TestCrossProcessTakeoverAbort is the §5.1 crash window across a real
// process boundary: a "new generation" dials the takeover path, takes
// part of the hand-off, and dies before the ACK. The running process must
// roll back — stay active, keep serving, count the abort in its STATS
// dump — and a real second-generation process must then take over cleanly.
func TestCrossProcessTakeoverAbort(t *testing.T) {
	spawns(t)
	d := newDeployment(t, fleet.Spec{Edges: 1, Drain: 500 * time.Millisecond})
	gen1 := d.start(t, nodeBin, "edge-00", false)
	webAddr, healthAddr := gen1.vip(t, "web"), gen1.vip(t, "health")

	finish := getLoop(t, webAddr, "/x", 0)
	time.Sleep(150 * time.Millisecond)

	// The dying receiver: this TEST process connects to the takeover
	// path, reads the start of the manifest — the moment the FDs are in
	// flight — and slams the connection shut without ACKing.
	crash, err := net.Dial("unix", filepath.Join(d.Dir, "edge-00.sock"))
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
	dump := poll(t, "abort never counted in STATS", func() (string, bool) {
		conn, err := net.DialTimeout("tcp", healthAddr, time.Second)
		if err != nil {
			return err.Error(), false
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write([]byte("STATS\n"))
		out, _ := io.ReadAll(conn)
		return string(out), strings.Contains(string(out), "counter proxy.takeover_aborts 1")
	})
	if !strings.Contains(dump, "status active") {
		t.Fatalf("gen1 not active after aborted handoff; STATS:\n%s", dump)
	}

	// The real release now goes through: a second PROCESS takes over.
	gen2 := d.start(t, nodeBin, "edge-00", false)
	gen2.field(t, "(took over)")

	gen1.stop(t)
	time.Sleep(300 * time.Millisecond)
	finish("the aborted + real takeover")
}
