// Package idleconns is the million-flow takeover demo, as a test: an Edge
// holding a herd of established, idle connections hands off to a new
// generation; what each connection costs while it waits, the hand-off's
// wall time, the reconnect storm when the old generation exits, and the
// flow table's O(1) routing flip through katran.LB.AdvanceGeneration are
// measured and asserted. CI runs it as its takeover smoke:
//
//	go test -run TestRunScaled -count=1 -v ./internal/idleconns
//
// The process's fd limit bounds how many real sockets it can open (each
// in-process connection burns two descriptors), so the connection count
// scales down to that budget; the flow count does not.
package idleconns

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/proxy"
)

// TestRunScaled drives the demo at CI scale: the conn count rides the fd
// budget down, the flow table still proves the O(1) epoch flip, and the
// reconnect storm must fully absorb.
func TestRunScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("demo harness is seconds-long; skipped in -short")
	}
	rep, err := run(t.TempDir(), 512, 100_000, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.conns == 0 || rep.conns > 512 {
		t.Fatalf("conns = %d", rep.conns)
	}
	if rep.drainedSampleHits != 0 {
		t.Fatalf("%d drained-generation hits", rep.drainedSampleHits)
	}
	if rep.reconnectOK != rep.conns {
		t.Fatalf("reconnect %d/%d", rep.reconnectOK, rep.conns)
	}
	if rep.takeoverMs <= 0 {
		t.Fatalf("takeover wall time %v", rep.takeoverMs)
	}
	if rep.peakRSSKB <= 0 {
		t.Fatalf("peak RSS %d", rep.peakRSSKB)
	}
	if rep.flowTableFlows < 99_000 {
		t.Fatalf("flow table resident %d", rep.flowTableFlows)
	}
}

// TestFDBudget sanity-checks the auto-scaler.
func TestFDBudget(t *testing.T) {
	if b := fdBudget(); b < 64 {
		t.Fatalf("fd budget %d", b)
	}
}

// report is what one run measured.
type report struct {
	conns int // after the fd budget's scaling
	// flowTableFlows is how many of the flows steered through the LB
	// were pinned in its table before the bump.
	flowTableFlows int
	// takeoverMs is the wall time of the receiver's TakeoverFrom.
	takeoverMs float64
	// drainedSampleHits counts sampled flows that a table pin still
	// steered after the invalidating bump: there must be none.
	drainedSampleHits int64
	reconnectOK       int
	peakRSSKB         int64
}

// fdBudget returns how many idle connections the process may hold,
// leaving headroom for listeners, pipes and the runtime. Each in-process
// connection costs two descriptors (client end + accepted end).
func fdBudget() int {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 256
	}
	cur := int(lim.Cur)
	const headroom = 512
	if cur <= headroom {
		return 64
	}
	return (cur - headroom) / 2
}

// run executes the demo: up to conns idle connections, flows flows.
func run(dir string, conns, flows int, logf func(format string, args ...any)) (*report, error) {
	const drainPeriod = 200 * time.Millisecond
	rep := &report{conns: min(conns, fdBudget())}
	if rep.conns != conns {
		logf("idleconns: scaled %d requested conns to %d (fd budget %d)\n", conns, rep.conns, fdBudget())
	}

	// --- Generation 1: the edge holding the idle herd. ---
	static := map[string][]byte{"/static/ping": []byte("pong")}
	oldEdge := proxy.New(proxy.Config{
		Name:          "idleconns-g1",
		Role:          proxy.RoleEdge,
		DrainPeriod:   drainPeriod,
		StaticContent: static,
	}, nil)
	if err := oldEdge.Listen(); err != nil {
		return nil, err
	}
	defer oldEdge.Close()
	sock := filepath.Join(dir, "takeover.sock")
	if err := oldEdge.ServeTakeover(sock); err != nil {
		return nil, err
	}
	addr := oldEdge.Addr(proxy.VIPWeb)

	logf("idleconns: establishing %d idle connections ...\n", rep.conns)
	bytes0, goroutines0 := footprint()
	herd := make([]net.Conn, 0, rep.conns)
	defer func() {
		for _, c := range herd {
			c.Close()
		}
	}()
	for i := 0; i < rep.conns; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial %d/%d: %w", i, rep.conns, err)
		}
		herd = append(herd, c)
	}
	// One request per conn proves each is served, then it goes idle.
	for i, c := range herd {
		if err := oneRequest(c); err != nil {
			return nil, fmt.Errorf("request on conn %d: %w", i, err)
		}
	}
	if n := oldEdge.Metrics().CounterValue("edge.http.requests"); n != int64(len(herd)) {
		return nil, fmt.Errorf("generation 1 served %d requests on %d conns", n, len(herd))
	}
	bytes1, goroutines1 := footprint()
	logf("idleconns: %d connections served and idle: %d B of heap+stack and %.2f goroutines each\n",
		len(herd), (int64(bytes1)-int64(bytes0))/int64(len(herd)), float64(goroutines1-goroutines0)/float64(len(herd)))

	// --- The flows, pinned by the LB's table as their first packets are
	// steered. A flow's second steer is a table hit exactly when its pin
	// is resident. ---
	lb := katran.New("idleconns", katran.Config{FlowTableSize: flows * 2}, nil)
	defer lb.Close()
	for _, name := range []string{"pool-a", "pool-b", "pool-c", "pool-d"} {
		lb.AddBackend(katran.Backend{Name: name, Addr: name}, true)
	}
	key := func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }
	hits := func() int64 { return lb.Metrics().CounterValue("katran.steer.flowtable_hit") }
	for i := 0; i < flows; i++ {
		lb.Steer(key(i))
	}
	h0 := hits()
	for i := 0; i < flows; i++ {
		lb.Steer(key(i))
	}
	rep.flowTableFlows = int(hits() - h0)
	logf("idleconns: flow table resident with %d flows\n", rep.flowTableFlows)

	// --- Generation 2 takes over. ---
	newEdge := proxy.New(proxy.Config{
		Name:          "idleconns-g2",
		Role:          proxy.RoleEdge,
		DrainPeriod:   drainPeriod,
		StaticContent: static,
	}, nil)
	defer newEdge.Close()
	t0 := time.Now()
	res, err := newEdge.TakeoverFrom(sock)
	if err != nil {
		return nil, fmt.Errorf("takeover: %w", err)
	}
	rep.takeoverMs = float64(time.Since(t0).Microseconds()) / 1e3
	logf("idleconns: takeover of %d VIPs in %.2fms with %d conns established\n",
		len(res.VIPs), rep.takeoverMs, len(herd))

	// The routing flip: one epoch bump retargets every flow (katran's
	// TestMillionFlowEpochBump counts that it writes no entry), after
	// which no pin of the drained generation steers a flow.
	t0 = time.Now()
	lb.AdvanceGeneration(true)
	bumpNs := time.Since(t0).Nanoseconds()
	const sample = 4096
	h0 = hits()
	for i := 0; i < sample; i++ {
		lb.Steer(key(i * (flows / sample)))
	}
	rep.drainedSampleHits = hits() - h0
	if rep.drainedSampleHits != 0 {
		return nil, fmt.Errorf("%d flows still routed on the drained generation", rep.drainedSampleHits)
	}
	logf("idleconns: epoch bump over %d flows: %dns, %d drained-generation hits\n",
		flows, bumpNs, rep.drainedSampleHits)

	// --- Reconnect storm. ---
	// Terminating generation 1 severs every idle connection at once;
	// each client re-dials the shared VIP, now answered by generation 2.
	oldEdge.Shutdown()
	storm0 := time.Now()
	var ok atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 256) // don't out-dial the accept queue
	for i := range herd {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			waitClosed(herd[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return
			}
			if err := oneRequest(c); err != nil {
				c.Close()
				return
			}
			herd[i].Close()
			herd[i] = c // keep for final cleanup
			ok.Add(1)
		}(i)
	}
	wg.Wait()
	rep.reconnectOK = int(ok.Load())
	if rep.reconnectOK < len(herd) {
		return nil, fmt.Errorf("reconnect storm: only %d/%d clients re-established", rep.reconnectOK, len(herd))
	}
	logf("idleconns: reconnect storm absorbed: %d/%d clients back in %.1fms\n",
		rep.reconnectOK, len(herd), float64(time.Since(storm0).Microseconds())/1e3)

	rep.peakRSSKB = peakRSSKB()
	logf("idleconns: peak RSS %d KB\n", rep.peakRSSKB)
	return rep, nil
}

// footprint returns the heap and stacks in use after a collection, and
// the goroutines.
func footprint() (bytes uint64, goroutines int) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties what the first left in the pools' victim caches
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse, runtime.NumGoroutine()
}

// oneRequest runs a single keep-alive GET on an established conn.
func oneRequest(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	code, err := http1.Get(conn, "/static/ping")
	if err == nil && code != 200 {
		err = fmt.Errorf("status %d", code)
	}
	return err
}

// waitClosed blocks until the peer closes the connection (the terminate
// sweep), bounded by a deadline so a stuck conn can't hang the storm.
func waitClosed(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	var buf [1]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			return
		}
	}
}

// peakRSSKB reads VmHWM (peak resident set) from /proc/self/status.
func peakRSSKB() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseInt(fields[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
