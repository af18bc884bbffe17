// Root benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating its rows via internal/experiments) plus the ablation
// benchmarks called out in DESIGN.md §4.
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports experiment-specific metrics (misrouted
// packets, error counts, completion minutes, ...) through b.ReportMetric,
// so the bench output doubles as the headline numbers table.
package zdr_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"zdr/internal/cluster"
	"zdr/internal/consistent"
	"zdr/internal/experiments"
	"zdr/internal/h2t"
	"zdr/internal/katran"
	"zdr/internal/netx"
	"zdr/internal/takeover"
	"zdr/internal/workload"
)

// figure returns the generator experiments.All() registers under id.
func figure(id string) func() (experiments.Table, error) {
	for _, e := range experiments.All() {
		if e.ID == id {
			return e.Run
		}
	}
	panic("no experiment " + id)
}

// runExperiment executes one figure generator b.N times, failing the
// bench if the experiment errors. Allocation counts are reported so the
// figure-level benches double as coarse allocation regressions alongside
// the per-package micro-benchmarks.
func runExperiment(b *testing.B, run func() (experiments.Table, error)) experiments.Table {
	b.Helper()
	b.ReportAllocs()
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// cell parses a numeric table cell (strips %, x and unit suffixes).
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSpace(s)
	for _, suf := range []string{"%", "x", " min", " us"} {
		s = strings.TrimSuffix(s, suf)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func BenchmarkFig2aReleaseCadence(b *testing.B) {
	tab := runExperiment(b, figure("F2a"))
	b.ReportMetric(cell(b, tab.Rows[0][2]), "l7lb-releases/wk-p50")
	b.ReportMetric(cell(b, tab.Rows[1][2]), "app-releases/wk-p50")
}

func BenchmarkFig2bReleaseCauses(b *testing.B) {
	tab := runExperiment(b, figure("F2b"))
	b.ReportMetric(cell(b, tab.Rows[0][1]), "binary-share-%")
}

func BenchmarkFig2cCommitsPerRelease(b *testing.B) {
	tab := runExperiment(b, figure("F2c"))
	b.ReportMetric(cell(b, tab.Rows[0][1]), "commits-p50")
}

func BenchmarkFig2dReuseportMisrouting(b *testing.B) {
	tab := runExperiment(b, figure("F2d"))
	// Last row = 10k flows.
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[1])+cell(b, last[2]), "misrouted-pkts-10kflows")
}

func BenchmarkFig3aCapacityTimeline(b *testing.B) {
	tab := runExperiment(b, figure("F3a"))
	min := 101.0
	for _, row := range tab.Rows {
		if v := cell(b, row[1]); v < min {
			min = v
		}
	}
	b.ReportMetric(min, "min-capacity-%")
}

func BenchmarkFig3bReconnectCPU(b *testing.B) {
	tab := runExperiment(b, figure("F3b"))
	b.ReportMetric(cell(b, tab.Rows[1][3]), "extra-cpu-%-at-10%-restarts")
}

func BenchmarkFig8IdleCPU(b *testing.B) {
	tab := runExperiment(b, figure("F8"))
	b.ReportMetric(cell(b, tab.Rows[1][1]), "hard20-min-idle-%")
	b.ReportMetric(cell(b, tab.Rows[3][1]), "zdr20-min-idle-%")
}

func BenchmarkFig9DCRTimeline(b *testing.B) {
	tab := runExperiment(b, figure("F9"))
	var dcrMin, noMin float64 = 1e18, 1e18
	for i, row := range tab.Rows {
		if i < 4 || i > 7 {
			continue
		}
		if v := cell(b, row[1]); v < dcrMin {
			dcrMin = v
		}
		if v := cell(b, row[3]); v < noMin {
			noMin = v
		}
	}
	b.ReportMetric(dcrMin, "publishes-trough-DCR")
	b.ReportMetric(noMin, "publishes-trough-woutDCR")
}

func BenchmarkFig10UDPMisrouting(b *testing.B) {
	tab := runExperiment(b, figure("F10"))
	b.ReportMetric(cell(b, tab.Rows[0][2]), "misrouted-traditional")
	b.ReportMetric(cell(b, tab.Rows[1][2]), "misrouted-takeover")
}

func BenchmarkFig11PPRDisruption(b *testing.B) {
	tab := runExperiment(b, figure("F11"))
	var worst float64
	for _, row := range tab.Rows {
		if v := cell(b, row[3]); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst-day-%-without-PPR")
}

func BenchmarkFig12ProxyErrors(b *testing.B) {
	tab := runExperiment(b, figure("F12"))
	var trad, zdr float64
	for _, row := range tab.Rows {
		trad += cell(b, row[1])
		zdr += cell(b, row[2])
	}
	b.ReportMetric(trad, "errors-traditional")
	b.ReportMetric(zdr, "errors-zdr")
}

func BenchmarkFig13ReleaseTimeline(b *testing.B) {
	tab := runExperiment(b, figure("F13"))
	minRPS := 10.0
	for _, row := range tab.Rows {
		if v := cell(b, row[1]); v < minRPS {
			minRPS = v
		}
	}
	b.ReportMetric(minRPS, "min-GR-RPS-normalized")
}

func BenchmarkFig15RestartHours(b *testing.B) {
	tab := runExperiment(b, figure("F15"))
	for _, row := range tab.Rows {
		if row[0] == "14:00" {
			b.ReportMetric(cell(b, row[1]), "proxygen-density-14h")
		}
	}
}

func BenchmarkFig16CompletionTime(b *testing.B) {
	tab := runExperiment(b, figure("F16"))
	b.ReportMetric(cell(b, tab.Rows[0][2]), "proxygen-p50-min")
	b.ReportMetric(cell(b, tab.Rows[1][2]), "appserver-p50-min")
}

func BenchmarkFig17TakeoverOverhead(b *testing.B) {
	tab := runExperiment(b, figure("F17"))
	b.ReportMetric(cell(b, tab.Rows[0][1]), "handoff-p50-us")
}

func BenchmarkTblPPRRetries(b *testing.B) {
	tab := runExperiment(b, figure("T-A"))
	b.ReportMetric(cell(b, tab.Rows[0][3]), "budget-exhaustions")
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblationTakeoverVsReconnect compares the cost of handing a
// socket set to a new instance against the cost every client would
// otherwise pay: a full TCP reconnect per connection.
func BenchmarkAblationTakeoverVsReconnect(b *testing.B) {
	b.Run("takeover-3vips", func(b *testing.B) {
		// The protocol every release runs: Server and Connect on a UNIX
		// path, through READY and the drain-start confirmation.
		path := filepath.Join(b.TempDir(), "takeover.sock")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set, err := takeover.Listen(
				takeover.VIP{Name: "a", Network: takeover.NetworkTCP, Addr: "127.0.0.1:0"},
				takeover.VIP{Name: "b", Network: takeover.NetworkTCP, Addr: "127.0.0.1:0"},
				takeover.VIP{Name: "c", Network: takeover.NetworkUDP, Addr: "127.0.0.1:0"},
			)
			if err != nil {
				b.Fatal(err)
			}
			srv := &takeover.Server{Set: set}
			if err := srv.Listen(path); err != nil {
				b.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve() }()
			got, _, err := takeover.Connect(path, takeover.ReceiveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			got.Close()
			set.Close()
		}
	})
	b.Run("client-reconnect", func(b *testing.B) {
		b.ReportAllocs()
		ln, err := netx.ListenTCPReusePort("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := netDial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
}

// BenchmarkAblationLRUFlowCache measures collateral flow movement during
// a health flap with and without the §5.1 LRU connection-table cache.
// Flows owned by the flapped backend must move either way; the cache's
// value is pinning every *other* flow through the Maglev reshuffle.
func BenchmarkAblationLRUFlowCache(b *testing.B) {
	run := func(b *testing.B, cacheSize int) {
		b.ReportAllocs()
		collateral := 0
		for iter := 0; iter < b.N; iter++ {
			lb := katran.New("lb", katran.Config{FlowCacheSize: cacheSize}, nil)
			for i := 0; i < 8; i++ {
				lb.AddBackend(katran.Backend{Name: fmt.Sprintf("p%d", i), Addr: "x"}, true)
			}
			before := make([]string, 2000)
			for f := range before {
				bk, err := lb.Steer(uint64(f))
				if err != nil {
					b.Fatal(err)
				}
				before[f] = bk.Name
			}
			lb.SetHealth("p3", false) // mid-flap: table rebuilt without p3
			collateral = 0
			for f := range before {
				if before[f] == "p3" {
					continue // its flows must fail over; not collateral
				}
				bk, _ := lb.Steer(uint64(f))
				if bk.Name != before[f] {
					collateral++
				}
			}
			lb.Close()
		}
		b.ReportMetric(float64(collateral), "collateral-moves-of-2000")
	}
	b.Run("with-cache", func(b *testing.B) { run(b, 1<<16) })
	b.Run("without-cache", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationGoawayDrain contrasts graceful GOAWAY drain with hard
// session close on the Edge↔Origin tunnel: in-flight streams survive the
// former and die with the latter.
func BenchmarkAblationGoawayDrain(b *testing.B) {
	run := func(b *testing.B, graceful bool) {
		b.ReportAllocs()
		survived := 0
		for i := 0; i < b.N; i++ {
			cc, sc := netPipe()
			client := h2t.NewSession(cc, true)
			server := h2t.NewSession(sc, false)
			acceptCh := make(chan *h2t.Stream, 1)
			go func() {
				st, err := server.Accept()
				if err == nil {
					acceptCh <- st
				}
			}()
			st, err := client.OpenStreamWith(nil, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			srvSt := <-acceptCh
			if graceful {
				server.GoAway()
				srvSt.Write([]byte("bye"))
				srvSt.CloseWrite()
				st.CloseWrite()
				if body, err := readAll(st); err == nil && string(body) == "bye" {
					survived++
				}
			} else {
				server.Close()
				st.CloseWrite()
				if _, err := readAll(st); err == nil {
					survived++
				}
			}
			client.Close()
			server.Close()
		}
		b.ReportMetric(float64(survived)/float64(b.N), "in-flight-survival-rate")
	}
	b.Run("goaway", func(b *testing.B) { run(b, true) })
	b.Run("hard-close", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationBufferVsPPR quantifies the §4.3 option-(iii) tradeoff:
// memory the Origin would need to buffer every in-flight POST versus PPR's
// near-zero steady-state cost.
func BenchmarkAblationBufferVsPPR(b *testing.B) {
	b.ReportAllocs()
	var bufferBytes float64
	for i := 0; i < b.N; i++ {
		// 10k concurrent uploads at a mid-size Origin. Fresh seed per
		// iteration so the reported metric is independent of benchtime.
		rng := workload.NewRNG(99)
		var total int64
		for j := 0; j < 10_000; j++ {
			total += workload.PostSizeBytes(rng) / 2 // half-done on average
		}
		bufferBytes = float64(total)
	}
	b.ReportMetric(bufferBytes/(1<<30), "buffer-all-GiB")
	b.ReportMetric(0, "ppr-steady-state-GiB") // PPR buffers nothing at the proxy
}

// BenchmarkMaglevVsRing compares the two consistent-hash schemes.
func BenchmarkMaglevVsRing(b *testing.B) {
	members := make([]string, 64)
	for i := range members {
		members[i] = fmt.Sprintf("proxy-%02d", i)
	}
	b.Run("maglev", func(b *testing.B) {
		m := consistent.NewMaglev(2039, members...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Pick("flow-12345")
		}
	})
	b.Run("ring", func(b *testing.B) {
		r := consistent.NewRing(100, members...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Pick("flow-12345")
		}
	})
}

// BenchmarkClusterReleaseSweep benchmarks the simulator across fleet
// sizes (it must stay fast enough for parameter sweeps).
func BenchmarkClusterReleaseSweep(b *testing.B) {
	for _, machines := range []int{100, 1000} {
		b.Run(fmt.Sprintf("machines-%d", machines), func(b *testing.B) {
			cfg := cluster.Config{
				Machines:      machines,
				BatchFraction: 0.2,
				DrainPeriod:   20 * time.Minute,
				Strategy:      cluster.ZeroDowntime,
				Tick:          30 * time.Second,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cluster.RunRelease(cfg)
			}
		})
	}
}

// --- tiny local helpers (keep the bench file self-contained) ---

func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

func netPipe() (net.Conn, net.Conn) {
	return net.Pipe()
}

func readAll(st *h2t.Stream) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, st); err != nil {
		return buf.Bytes(), err
	}
	return buf.Bytes(), nil
}

func BenchmarkTblHeadlineBenefits(b *testing.B) {
	tab := runExperiment(b, figure("T-B"))
	b.ReportMetric(cell(b, strings.TrimSuffix(tab.Rows[0][2], " min")), "app-release-min")
	b.ReportMetric(cell(b, strings.TrimSuffix(tab.Rows[1][2], " min")), "l7lb-release-min")
}

func BenchmarkTblPeakHourRelease(b *testing.B) {
	tab := runExperiment(b, figure("T-C"))
	// Row 1 = HardRestart at peak: dropped load fraction.
	b.ReportMetric(cell(b, tab.Rows[1][4]), "hard-peak-dropped-%")
	b.ReportMetric(cell(b, tab.Rows[3][4]), "zdr-peak-dropped-%")
}
