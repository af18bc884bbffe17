// Command zdr-operator runs the fleet release control plane against a
// simulated fleet of in-process Edge proxies (real sockets, real Socket
// Takeover hand-offs). It drives a canary-first, health-gated rollout:
// the canary batch restarts into its drain-undo window, serves live
// traffic while the gate watches counters and probes, and is promoted or
// rolled back batch by batch.
//
// The rollout is observable and steerable while it runs:
//
//	/debug/rollout   orchestrator status (batches, verdicts, gate outcome)
//	/debug/fleet     per-node slot state (generation, phase, undo counts)
//	SIGUSR1          resume a paused rollout (re-drive remaining nodes)
//	SIGUSR2          abort a paused rollout
//	SIGINT/SIGTERM   kill the operator mid-rollout (no terminal journal
//	                 record — restart with -resume to recover)
//
// Examples:
//
//	zdr-operator -nodes 24 -canary 2 -journal /tmp/rollout.jsonl -admin 127.0.0.1:9800
//	zdr-operator -nodes 24 -bad                  # watch the gate refuse a broken build
//	zdr-operator -journal /tmp/rollout.jsonl -resume   # recover a killed operator
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"zdr/internal/disrupt"
	"zdr/internal/fleet"
	"zdr/internal/metrics"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

func main() {
	nodes := flag.Int("nodes", 12, "simulated fleet size")
	canary := flag.Int("canary", 1, "canary batch size")
	growth := flag.Int("growth", 2, "batch growth factor after each promoted batch")
	maxBatch := flag.Int("max-batch", 0, "batch size cap (0 = uncapped)")
	healthWindow := flag.Duration("health-window", 2*time.Second, "post-commit observation window per batch")
	probeInterval := flag.Duration("probe-interval", 50*time.Millisecond, "orchestrator probe pacing")
	windowTimeout := flag.Duration("window-timeout", 10*time.Second, "bound on a node reaching its canary window")
	batchDelay := flag.Duration("batch-delay", 0, "pause between promoted batches")
	maxHold := flag.Duration("max-hold", 30*time.Second, "node-side window bound before self-rollback")
	journalPath := flag.String("journal", "", "rollout write-ahead log path (empty = unjournaled)")
	resume := flag.Bool("resume", false, "recover the journal and resume the interrupted rollout")
	admin := flag.String("admin", "", "admin endpoint bind address (/debug/rollout, /debug/fleet, /debug/telemetry); empty disables")
	profile := flag.Bool("profile", false, "expose /debug/pprof/ and sample Go runtime gauges on the admin endpoint")
	bad := flag.Bool("bad", false, "ship a broken build (every request 503s) to exercise the gate")
	ungated := flag.Bool("ungated", false, "disable canary windows and gating (the pre-gate release process)")
	load := flag.Bool("load", true, "drive continuous client load at every node")
	name := flag.String("name", "rollout", "rollout name (journal attribution, fence ownership)")
	flag.Parse()

	// good says what the NEXT generation serves: flipping it is pushing a
	// release artifact.
	var good atomic.Bool
	good.Store(true)
	leds := make([]*disrupt.Ledger, *nodes)
	for i := range leds {
		leds[i] = disrupt.New(fmt.Sprintf("edge-%02d", i), 0)
	}
	f, err := fleet.NewFleet(*nodes, !*ungated, *maxHold, func(i int, cfg *proxy.Config) {
		cfg.Ledger = leds[i]
		if good.Load() {
			cfg.StaticContent = map[string][]byte{"/hello": []byte("hello\n")}
		}
	})
	if err != nil {
		fatal("fleet: %v", err)
	}
	defer f.Close()
	for i, n := range f.Nodes {
		n.Disruption = leds[i].Report
	}
	fmt.Printf("zdr-operator: %d-node fleet up (generation 1 serving)\n", len(f.Nodes))

	// Client load counts transport failures (what zero-downtime release
	// must keep at zero) apart from server errors (what a bad build
	// produces).
	var ok, serverErr, transport atomic.Int64
	if *load {
		f.Load(func(_, code int, err error) {
			switch {
			case err != nil:
				transport.Add(1)
			case code == 200:
				ok.Add(1)
			default:
				serverErr.Add(1)
			}
		})
		time.Sleep(200 * time.Millisecond) // error-free baseline history
	}

	if *bad {
		good.Store(false)
		fmt.Println("zdr-operator: shipping a BAD build — the gate should refuse it")
	}

	cfg := fleet.Config{
		Name:          *name,
		CanarySize:    *canary,
		GrowthFactor:  *growth,
		MaxBatchSize:  *maxBatch,
		HealthWindow:  *healthWindow,
		ProbeInterval: *probeInterval,
		WindowTimeout: *windowTimeout,
		BatchDelay:    *batchDelay,
		Ungated:       *ungated,
		Trace:         obs.NewTracer("zdr-operator"),
		Fence:         fleet.NewFence(),
	}
	if *journalPath != "" {
		if *resume {
			recs, err := fleet.Replay(*journalPath)
			if err != nil {
				fatal("journal replay: %v", err)
			}
			prog := fleet.Recover(recs)
			if prog.Rollout != "" {
				cfg.Resume = &prog
				fmt.Printf("zdr-operator: recovered rollout %q — %d promoted, %d in flight, %d rolled back\n",
					prog.Rollout, len(prog.Promoted), len(prog.InFlight), len(prog.RolledBack))
			}
		}
		j, err := fleet.OpenJournal(*journalPath)
		if err != nil {
			fatal("journal: %v", err)
		}
		defer j.Close()
		cfg.Journal = j
	}

	o, err := fleet.New(cfg, f.Nodes)
	if err != nil {
		fatal("orchestrator: %v", err)
	}

	// The telemetry pipeline: scrape every node's metrics + ledger and
	// merge fleet-wide. Served live at /debug/telemetry and printed as
	// the final accounting when the rollout ends.
	tele := &fleet.Telemetry{Nodes: f.Nodes}

	if *admin != "" {
		operatorReg := metrics.NewRegistry()
		a := &obs.Admin{
			Service:  "zdr-operator",
			Registry: operatorReg,
			Tracer:   cfg.Trace,
			Profile:  *profile,
			Debug: map[string]func() any{
				"rollout": func() any { return o.Status() },
				"fleet": func() any {
					states := make([]obs.SlotState, len(f.Slots))
					for i, s := range f.Slots {
						states[i] = s.State()
					}
					return states
				},
				"telemetry": func() any { return tele.Scrape() },
			},
		}
		if *profile {
			stopStats := obs.StartRuntimeStats(operatorReg, 0)
			defer stopStats()
		}
		srv, err := a.Start(*admin)
		if err != nil {
			fatal("admin listener: %v", err)
		}
		defer srv.Close()
		fmt.Printf("zdr-operator: admin on http://%s (/debug/rollout, /debug/fleet, /debug/telemetry)\n", srv.Addr())
	}

	// SIGUSR1/SIGUSR2 steer a paused rollout; SIGINT/SIGTERM kill the
	// operator without a terminal journal record (restart with -resume).
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGUSR2)
	go func() {
		for s := range sig {
			switch s {
			case syscall.SIGUSR1:
				fmt.Println("zdr-operator: resume requested")
				if err := o.Decide(true); err != nil {
					fmt.Printf("zdr-operator: resume: %v\n", err)
				}
			case syscall.SIGUSR2:
				fmt.Println("zdr-operator: abort requested")
				if err := o.Decide(false); err != nil {
					fmt.Printf("zdr-operator: abort: %v\n", err)
				}
			default:
				fmt.Println("zdr-operator: killed mid-rollout (journal keeps the resume point)")
				o.Close()
				return
			}
		}
	}()

	// Surface pauses as they happen so an operator at a terminal knows to
	// inspect /debug/rollout and signal a decision.
	pauseWatch := make(chan struct{})
	go func() {
		last := ""
		for {
			select {
			case <-pauseWatch:
				return
			case <-time.After(100 * time.Millisecond):
			}
			st := o.Status()
			if st.State == fleet.StatePaused && st.Reason != last {
				last = st.Reason
				fmt.Printf("zdr-operator: PAUSED — %s\n", st.Reason)
				fmt.Println("zdr-operator: SIGUSR1 resumes, SIGUSR2 aborts")
			}
		}
	}()

	runErr := o.Run()
	close(pauseWatch)
	f.Close()

	st := o.Status()
	fmt.Printf("zdr-operator: rollout %q finished: state=%s", cfg.Name, st.State)
	if st.Reason != "" {
		fmt.Printf(" (%s)", st.Reason)
	}
	fmt.Println()
	promoted, rolledBack := 0, 0
	for _, n := range st.Nodes {
		if n.Promoted {
			promoted++
		}
		if n.RolledBack {
			rolledBack++
		}
	}
	fmt.Printf("zdr-operator: %d promoted, %d rolled back; client load: %d ok, %d server errors, %d transport failures\n",
		promoted, rolledBack, ok.Load(), serverErr.Load(), transport.Load())

	// Final fleet-wide disruption accounting: merge every node's metrics
	// and ledger, then report the §6 numbers — requests, tail latency, and
	// attributed terminal failures by cause × release phase.
	rep := tele.Scrape()
	fmt.Printf("zdr-operator: telemetry — %d/%d nodes scraped, %d requests, p99 %.6fs, disruption rate %.6f (%d terminal, %d unattributed)\n",
		rep.ScrapedNodes, rep.TotalNodes, rep.Requests, rep.LatencyP99, rep.DisruptionRate,
		rep.Disruption.Terminal, rep.Disruption.Unattributed)
	cells := append([]disrupt.Cell(nil), rep.CausePhase...)
	fleet.SortCellsByCount(cells)
	for i, c := range cells {
		if i == 5 {
			fmt.Printf("zdr-operator:   ... %d more cause-phase cells\n", len(cells)-i)
			break
		}
		fmt.Printf("zdr-operator:   %6d  %s during %s\n", c.Count, c.Cause, c.Phase)
	}
	if runErr != nil {
		fatal("rollout: %v", runErr)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
