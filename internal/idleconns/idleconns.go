// Package idleconns is the million-flow takeover acceptance demo: hand
// off an Edge listener carrying a large set of established, mostly-idle
// connections to a new instance, and measure what each of them costs while
// it waits and what the paper's §5 release machinery promises — takeover
// wall time, peak RSS, and reconnect-storm absorption — while a
// generation-tagged flow table holding millions of flows flips its
// routing epoch in O(1).
//
// The container's fd rlimit bounds how many real sockets the harness can
// open (each in-process connection burns two descriptors), so Run
// auto-scales the socket count to the budget and carries the
// million-flow claim with the FlowTable itself: one million resident
// entries cost 16 bytes each, and the epoch bump is asserted to write
// zero of them.
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
	"time"

	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/proxy"
)

// Config parameterises one demo run.
type Config struct {
	// Conns is the requested idle-connection count; the harness scales
	// it down to the fd budget. 0 means "as many as the budget allows".
	Conns int
	// Flows is the flow-table population for the O(1) epoch-bump check.
	// Defaults to 1<<20 (the "million-flow" in the title).
	Flows int
	// DrainPeriod for both proxy generations (0 = 200ms).
	DrainPeriod time.Duration
	// Logf, when set, receives progress lines (e.g. fmt.Printf).
	Logf func(format string, args ...any)
	// Dir is where the takeover socket lives (0 = os.MkdirTemp).
	Dir string
}

// Report is what one run measured.
type Report struct {
	RequestedConns int `json:"requested_conns"`
	Conns          int `json:"conns"` // after fd auto-scale
	FDBudget       int `json:"fd_budget"`

	FlowTableFlows int `json:"flowtable_flows"`

	// IdleBytesPerConn is what the process's heap and stacks in use after a
	// collection grew by, per connection, once every connection has been
	// served one request and waits for the next; GoroutinesPerConn is the
	// same for its goroutines. Both ends of every connection are in this
	// process.
	IdleBytesPerConn  int64   `json:"idle_bytes_per_conn"`
	GoroutinesPerConn float64 `json:"goroutines_per_conn"`

	// TakeoverMs is the wall time of the hand-off protocol exchange as
	// observed by the receiver (listener fds transferred, meta applied).
	TakeoverMs float64 `json:"takeover_ms"`

	// EpochBumpNs is the wall time of FlowTable.Bump(true) with
	// FlowTableFlows entries resident; EpochBumpWrites is how many
	// entries the bump mutated — the O(1) claim requires exactly zero.
	EpochBumpNs     int64  `json:"epoch_bump_ns"`
	EpochBumpWrites uint64 `json:"epoch_bump_writes"`

	// DrainedSampleHits counts sampled flows that still resolved to a
	// backend after the invalidating bump — must be zero (no flow may
	// route on the drained generation's pins).
	DrainedSampleHits int `json:"drained_sample_hits"`

	PeakRSSKB int64 `json:"peak_rss_kb"`

	// Reconnect storm: the old generation terminates, every parked
	// connection dies at once, and every client re-dials the same VIP —
	// now answered by the new generation.
	ReconnectAttempted int     `json:"reconnect_attempted"`
	ReconnectOK        int     `json:"reconnect_ok"`
	ReconnectMs        float64 `json:"reconnect_ms"`
}

// FDBudget returns how many idle connections the process may hold,
// leaving headroom for listeners, pipes and the runtime. Each in-process
// connection costs two descriptors (client end + accepted end).
func FDBudget() int {
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

// Run executes the demo and returns the measurements.
func Run(cfg Config) (*Report, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Flows == 0 {
		cfg.Flows = 1 << 20
	}
	if cfg.DrainPeriod == 0 {
		cfg.DrainPeriod = 200 * time.Millisecond
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "idleconns-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	rep := &Report{RequestedConns: cfg.Conns, FDBudget: FDBudget(), FlowTableFlows: cfg.Flows}
	rep.Conns = rep.FDBudget
	if cfg.Conns > 0 && cfg.Conns < rep.Conns {
		rep.Conns = cfg.Conns
	}
	if rep.Conns != cfg.Conns {
		logf("idleconns: scaled %d requested conns to %d (fd budget %d)\n",
			cfg.Conns, rep.Conns, rep.FDBudget)
	}

	// --- Generation 1: the edge holding the idle herd. ---
	static := map[string][]byte{"/static/ping": []byte("pong")}
	oldEdge := proxy.New(proxy.Config{
		Name:          "idleconns-g1",
		Role:          proxy.RoleEdge,
		DrainPeriod:   cfg.DrainPeriod,
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

	logf("idleconns: establishing %d idle connections ...\n", rep.Conns)
	bytes0, goroutines0 := footprint()
	conns := make([]net.Conn, 0, rep.Conns)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < rep.Conns; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial %d/%d: %w", i, rep.Conns, err)
		}
		conns = append(conns, c)
	}
	// One request per conn proves each is served, then it goes idle.
	for i, c := range conns {
		if err := oneRequest(c); err != nil {
			return nil, fmt.Errorf("request on conn %d: %w", i, err)
		}
	}
	if n := oldEdge.Metrics().CounterValue("edge.http.requests"); n != int64(len(conns)) {
		return nil, fmt.Errorf("generation 1 served %d requests on %d conns", n, len(conns))
	}
	bytes1, goroutines1 := footprint()
	rep.IdleBytesPerConn = (int64(bytes1) - int64(bytes0)) / int64(len(conns))
	rep.GoroutinesPerConn = float64(goroutines1-goroutines0) / float64(len(conns))
	logf("idleconns: %d connections served and idle: %d B of heap+stack and %.2f goroutines each\n",
		len(conns), rep.IdleBytesPerConn, rep.GoroutinesPerConn)

	// --- The million flows. ---
	table := katran.NewFlowTable(cfg.Flows*2, 0)
	backends := []string{"pool-a", "pool-b", "pool-c", "pool-d"}
	table.SetBackends(backends)
	for i := 0; i < cfg.Flows; i++ {
		table.Insert(uint64(i)*0x9e3779b97f4a7c15+1, backends[i%len(backends)])
	}
	// Bucket placement is hashed, so a sliver of inserts can land in full
	// 8-way buckets and evict; require at least 99% residency.
	if got := table.Len(); got < cfg.Flows-cfg.Flows/100 {
		return nil, fmt.Errorf("flow table resident %d, want >= %d", got, cfg.Flows-cfg.Flows/100)
	}
	rep.FlowTableFlows = table.Len()
	logf("idleconns: flow table resident with %d flows (%d shards)\n", table.Len(), table.Shards())

	// --- Generation 2 takes over. ---
	newEdge := proxy.New(proxy.Config{
		Name:          "idleconns-g2",
		Role:          proxy.RoleEdge,
		DrainPeriod:   cfg.DrainPeriod,
		StaticContent: static,
	}, nil)
	defer newEdge.Close()
	res, err := newEdge.TakeoverFrom(sock)
	if err != nil {
		return nil, fmt.Errorf("takeover: %w", err)
	}
	rep.TakeoverMs = float64(res.Duration.Microseconds()) / 1e3
	logf("idleconns: takeover of %d VIPs in %.2fms with %d conns established\n",
		len(res.VIPs), rep.TakeoverMs, len(conns))

	// The routing flip: one epoch bump retargets every flow, writing no
	// entries. This is the O(1) claim, asserted, not assumed.
	w0 := table.EntryWrites()
	t0 := time.Now()
	table.Bump(true)
	rep.EpochBumpNs = time.Since(t0).Nanoseconds()
	rep.EpochBumpWrites = table.EntryWrites() - w0
	if rep.EpochBumpWrites != 0 {
		return nil, fmt.Errorf("epoch bump wrote %d entries; the flip must be O(1)", rep.EpochBumpWrites)
	}
	const sample = 4096
	for i := 0; i < sample; i++ {
		k := uint64(i*(cfg.Flows/sample))*0x9e3779b97f4a7c15 + 1
		if _, ok := table.Lookup(k); ok {
			rep.DrainedSampleHits++
		}
	}
	if rep.DrainedSampleHits != 0 {
		return nil, fmt.Errorf("%d flows still routed on the drained generation", rep.DrainedSampleHits)
	}
	logf("idleconns: epoch bump over %d flows: %dns, %d entry writes, %d drained-generation hits\n",
		cfg.Flows, rep.EpochBumpNs, rep.EpochBumpWrites, rep.DrainedSampleHits)

	// --- Reconnect storm. ---
	// Terminating generation 1 severs every idle connection at once;
	// each client re-dials the shared VIP, now answered by generation 2.
	oldEdge.Shutdown()
	storm0 := time.Now()
	var ok atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 256) // don't out-dial the accept queue
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			waitClosed(conns[i])
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
			conns[i].Close()
			conns[i] = c // keep for final cleanup
			ok.Add(1)
		}(i)
	}
	wg.Wait()
	rep.ReconnectAttempted = len(conns)
	rep.ReconnectOK = int(ok.Load())
	rep.ReconnectMs = float64(time.Since(storm0).Microseconds()) / 1e3
	if rep.ReconnectOK < rep.ReconnectAttempted {
		return nil, fmt.Errorf("reconnect storm: only %d/%d clients re-established",
			rep.ReconnectOK, rep.ReconnectAttempted)
	}
	logf("idleconns: reconnect storm absorbed: %d/%d clients back in %.1fms\n",
		rep.ReconnectOK, rep.ReconnectAttempted, rep.ReconnectMs)

	rep.PeakRSSKB = peakRSSKB()
	logf("idleconns: peak RSS %d KB\n", rep.PeakRSSKB)
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
