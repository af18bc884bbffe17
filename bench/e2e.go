package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zdr/bench/gen"
	"zdr/bench/rig"
	"zdr/bench/stats"
	"zdr/internal/netx"
)

// config is what every kind of run needs.
type config struct {
	// root is the repository root relative to the working directory.
	root    string
	seed    int64
	seconds float64
	// quick shrinks every phase to at most a second: structure, not
	// speed. The tests run this way.
	quick bool
}

// outDir is where sockets and span files go; .gitignore names it.
func (c config) outDir() string { return c.root + "/bench/out" }

// env is what workers are built from against the given targets. Quick
// runs keep fewer datagram flows open, to start sooner.
func (c config) env(t *rig.Targets, broker string) *gen.Env {
	e := &gen.Env{Targets: t, Seed: c.seed, BrokerAddr: broker}
	if c.quick {
		e.Resident = 256
	}
	return e
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string
	Trace     int
	Attempted int
	Failed    int
	// Hung says the rig's tear-down did not finish inside its watchdog.
	Hung    bool
	Metrics stats.Metrics
}

// Correct is the contract's verdict: every reply verified and the rig
// came down.
func (r *report) Correct() bool { return r.Failed == 0 && !r.Hung }

// leakCheck remembers the process's descriptor and goroutine counts so
// that a workload can be held to leaving none behind.
type leakCheck struct{ fds, goroutines int }

func newLeakCheck() leakCheck {
	fds, _ := netx.OpenFDCount()
	return leakCheck{fds, runtime.NumGoroutine()}
}

// leaked waits up to a second for the counts to come back to the
// baseline and returns what is still above it.
func (l leakCheck) leaked() (fds, goroutines int) {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(20 * time.Millisecond) {
		n, _ := netx.OpenFDCount()
		fds, goroutines = max(n-l.fds, 0), max(runtime.NumGoroutine()-l.goroutines, 0)
		if fds+goroutines == 0 || time.Now().After(deadline) {
			return fds, goroutines
		}
	}
}

// teardown closes the rig under a watchdog: a proxy's Close waits for
// its connection handlers, so a client connection left open would block
// it for as long as the client lives.
func teardown(r *rig.Rig) (ms float64, hung bool) {
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		r.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		hung = true
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), hung
}

// setUp builds the rig the given number of times, timing each from the
// first constructor call to the first verified operation on each
// protocol, tears all but the last down again, and returns the last with
// the median time.
func setUp(c config, times int) (*rig.Rig, *gen.Env, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := rig.Build(rig.Options{Seed: c.seed, Dir: c.outDir()})
		if err != nil {
			return nil, nil, 0, err
		}
		env := c.env(&r.Targets, r.BrokerAddr)
		if err := gen.FirstOps(env); err != nil {
			teardown(r)
			return nil, nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == times-1 {
			return r, env, stats.Median(secs), nil
		}
		if _, hung := teardown(r); hung {
			return nil, nil, 0, fmt.Errorf("rig tear-down hung during set-up")
		}
	}
}

// peakRSS reads the process's resident-set high-water mark.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printPhase is the human-readable account of a phase's failures.
func printPhase(name string, res gen.Result) {
	fmt.Printf("  %-5s %7d ops in %6.2fs, %d failed", name, res.Ops, res.Elapsed.Seconds(), res.Failed)
	if res.Failed > 0 {
		for c := gen.Reset; int(c) < len(res.Classes); c++ {
			fmt.Printf(" %s=%d", c, res.Classes[c])
		}
		fmt.Printf(" (first: %s)", res.FirstErr)
	}
	fmt.Println()
}

// runEndToEnd measures one workload with tracing off: set-up, warm-up,
// the cycles of closed-loop and open-loop load, tear-down.
func runEndToEnd(c config, wl gen.Workload) (*report, error) {
	p := c.endToEndPlan()
	leaks := newLeakCheck()
	r, env, setupS, err := setUp(c, p.setups)
	if err != nil {
		return nil, err
	}
	ms, err := measure(c, wl, env, p)
	rss := peakRSS()
	downMs, hung := teardown(r)
	if err != nil {
		return nil, err
	}
	fds, goroutines := leaks.leaked()

	sat, paced := ms.sat, ms.paced
	rep := &report{Workload: wl.Name, Hung: hung,
		Attempted: ms.warm.Ops + sat.Ops + paced.Ops, Failed: ms.warm.Failed + sat.Failed + paced.Failed + ms.restartFailures()}
	fmt.Printf("%s  seed %d  %d cycles of %d x %.3fs closed loop, on the stub and on the rig in turn, and %.2fs open loop at %.0f op/s, %d workers\n  the generator reached %.0f op/s against its stub: machine speed %.3f of the reference box\n",
		wl.Name, c.seed, p.cycles, p.pairs, p.slice.Seconds(), p.paced.Seconds(), wl.Rate, gen.Workers, ms.stub.RPS(), ms.speed())
	printPhase("warm", ms.warm)
	printPhase("sat", sat)
	printPhase("paced", paced)
	ms.printCycles()
	m := &rep.Metrics
	m.Add("setup_s", setupS, "s")
	ms.endToEnd(m)
	m.Add("peak_rss_mb", rss, "MB")
	var unbounded stats.Metrics
	ms.unbounded(&unbounded)
	fmt.Print("  unbounded here, reported by the per-layer run:")
	for _, u := range unbounded {
		fmt.Printf("  %s %.1f", u.Name, u.Value)
	}
	fmt.Println()

	late := float64(paced.Late) / float64(max(paced.Ops, 1))
	fmt.Printf("  failed_frac %.6f  slo_miss_frac %.6f (limit %v)  gen.late_frac %.6f  teardown %.1f ms  leaked fds %d goroutines %d\n",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), sloMiss(wl, paced), wl.Limit, late, downMs, fds, goroutines)
	if late > 0.01 {
		fmt.Println("  VOID: the generator sent more than 1% of the paced operations over a millisecond late; this run's latencies do not count")
	}
	if hung {
		fmt.Println("  teardown_hung: the rig did not come down within 5 s")
	}
	return rep, nil
}
