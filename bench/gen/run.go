package gen

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zdr/bench/rig"
	"zdr/bench/stats"
	"zdr/internal/core"
	"zdr/internal/obs"
)

// Runner drives one workload's workers through the phases of a run.
type Runner struct {
	wl      Workload
	targets *rig.Targets
	workers []worker
	// tracer, when set, records an "op" span around every operation and
	// sends its context with the request where the protocol carries one.
	tracer *obs.Tracer
	// RestartTrace, when set, is the span restarts are recorded under.
	RestartTrace *obs.Span
	// restarted counts the restarts made so far, so that successive
	// phases carry on round the slots where the last one stopped.
	restarted int
}

// NewRunner connects n workers of wl. direct selects the proxy-less
// variant of the operation.
func NewRunner(wl Workload, env *Env, n int, direct bool, tracer *obs.Tracer) (*Runner, error) {
	r := &Runner{wl: wl, targets: env.Targets, tracer: tracer}
	for w := 0; w < n; w++ {
		wk, err := wl.newWorker(env, w, direct)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("%s worker %d: %w", wl.Name, w, err)
		}
		r.workers = append(r.workers, wk)
	}
	return r, nil
}

// Close hangs up every worker's connection. It must run before the rig
// is torn down.
func (r *Runner) Close() {
	for _, w := range r.workers {
		w.close()
	}
}

// Restart is one slot restart during a paced phase.
type Restart struct {
	Slot string
	// Called and Returned are offsets from the start of the phase.
	Called, Returned time.Duration
	Err              error
}

// Window is the interval a restart is held to disturb: from the call to
// ProxySlot.Restart until the old generation has been given its drain
// time after the call returned.
func (rs Restart) Window() stats.Interval {
	return stats.Interval{From: rs.Called, To: rs.Returned + rig.DrainWait}
}

// Result is what one phase measured.
type Result struct {
	Ops, Failed int
	Classes     [numClasses]int
	// FirstErr is the first failure's text, for the report.
	FirstErr string
	// Bytes is verified payload moved, both directions.
	Bytes   int64
	Elapsed time.Duration
	// LatSum is the summed latency of verified operations.
	LatSum time.Duration
	// CPU, Mallocs, AllocBytes, CtxSwitches are process-wide deltas
	// over the phase.
	CPU         time.Duration
	Mallocs     uint64
	AllocBytes  uint64
	CtxSwitches int64
	GCCycles    uint32
	GCPause     time.Duration
	// SysReads and SysWrites are the read- and write-family system calls
	// /proc/self/io counted (0 where it cannot be read).
	SysReads, SysWrites int64
	// Samples and Late are filled by the paced phase only: every
	// operation, and how many of them the worker had to wait for and woke
	// more than a millisecond late for.
	Samples  []stats.Sample
	Late     int
	Restarts []Restart
}

// RPS is completed, verified operations per second.
func (r Result) RPS() float64 { return float64(r.Ops-r.Failed) / r.Elapsed.Seconds() }

// MeanLat is the mean latency of verified operations.
func (r Result) MeanLat() time.Duration {
	if n := r.Ops - r.Failed; n > 0 {
		return r.LatSum / time.Duration(n)
	}
	return 0
}

// Add sums o into r.
func (r *Result) Add(o Result) {
	r.Elapsed += o.Elapsed
	r.CPU += o.CPU
	r.Mallocs += o.Mallocs
	r.AllocBytes += o.AllocBytes
	r.CtxSwitches += o.CtxSwitches
	r.GCCycles += o.GCCycles
	r.GCPause += o.GCPause
	r.SysReads += o.SysReads
	r.SysWrites += o.SysWrites
	r.Restarts = append(r.Restarts, o.Restarts...)
	r.Ops += o.Ops
	r.Failed += o.Failed
	for i := range r.Classes {
		r.Classes[i] += o.Classes[i]
	}
	if r.FirstErr == "" {
		r.FirstErr = o.FirstErr
	}
	r.Bytes += o.Bytes
	r.LatSum += o.LatSum
	r.Samples = append(r.Samples, o.Samples...)
	r.Late += o.Late
}

// one performs operation k on worker w and books it into res.
func (r *Runner) one(w worker, k int, res *Result, start time.Time) (lat time.Duration, ok bool) {
	sp := r.tracer.StartSpan("op", obs.SpanContext{})
	n, err := w.do(k, sp.Context().String())
	sp.Fail(err)
	sp.End()
	lat = time.Since(start)
	res.Ops++
	if c := classify(err); c != OK {
		res.Failed++
		res.Classes[c]++
		if res.FirstErr == "" {
			res.FirstErr = fmt.Sprintf("%s: %v", c, err)
		}
		return lat, false
	}
	res.Bytes += int64(n)
	res.LatSum += lat
	return lat, true
}

// usage is the process-wide resource reading taken around a phase.
type usage struct {
	at  time.Time
	cpu time.Duration
	csw int64
	mem runtime.MemStats
	// syscr and syscw are /proc/self/io's system call counts.
	syscr, syscw int64
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	u.csw = ru.Nvcsw + ru.Nivcsw
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				v, _ := strconv.ParseInt(f[1], 10, 64)
				switch f[0] {
				case "syscr:":
					u.syscr = v
				case "syscw:":
					u.syscw = v
				}
			}
		}
	}
	runtime.ReadMemStats(&u.mem)
	u.at = time.Now()
	return u
}

func (res *Result) since(u usage) {
	now := readUsage()
	res.Elapsed = now.at.Sub(u.at)
	res.CPU = now.cpu - u.cpu
	res.CtxSwitches = now.csw - u.csw
	res.Mallocs = now.mem.Mallocs - u.mem.Mallocs
	res.AllocBytes = now.mem.TotalAlloc - u.mem.TotalAlloc
	res.GCCycles = now.mem.NumGC - u.mem.NumGC
	res.GCPause = time.Duration(now.mem.PauseTotalNs - u.mem.PauseTotalNs)
	res.SysReads = now.syscr - u.syscr
	res.SysWrites = now.syscw - u.syscw
}

// Closed runs every worker in a closed loop for dur: each sends its next
// operation when the last one has completed. base offsets the operation
// numbers so that phases do not repeat each other's inputs.
func (r *Runner) Closed(dur time.Duration, base int) Result {
	parts := make([]Result, len(r.workers))
	var wg sync.WaitGroup
	u := readUsage()
	deadline := u.at.Add(dur)
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			for k := base; ; k++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				r.one(w, k, &parts[i], t0)
			}
		}(i, w)
	}
	wg.Wait()
	var res Result
	res.since(u)
	for i := range parts {
		res.Add(parts[i])
	}
	return res
}

// FirstOps performs one verified operation on each protocol (an HTTP
// request, an MQTT publish and delivery, a datagram exchange), which is
// where the benchmark's set-up time ends.
func FirstOps(env *Env) error {
	quic, err := newQUICWorker(env.Targets, env.rnd(0), 1, nil)
	if err != nil {
		return err
	}
	for _, w := range []worker{
		newHTTPWorker(env.Targets, env.rnd(0), "", 0, 64, 0),
		newMQTTWorker(env.Targets, env.rnd(0), pin(0), "", "first"),
		quic,
	} {
		_, err := w.do(0, "")
		w.close()
		if err != nil {
			return fmt.Errorf("first operation: %w", err)
		}
	}
	return nil
}

// sleepUntil blocks the calling thread until due with the kernel's
// high-resolution timer. time.Sleep is not used: on an otherwise idle
// process the Go runtime waits for timers in epoll_wait, whose timeout
// has millisecond granularity, and a paced operation would be sent half
// a millisecond late on average. The thread's timer slack is cut from
// the default 50 us to 1 ns for the same reason.
func sleepUntil(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// RestartEvery is the spacing of slot restarts in a release phase, and
// of the control windows in every other paced phase.
const RestartEvery = 1500 * time.Millisecond

// nominalRestart is the length a control window gives the restart call
// itself, so that control windows are as long as real ones.
const nominalRestart = 60 * time.Millisecond

// restartPlan lays restarts over a paced phase of length dur: one every
// RestartEvery (at least one), the j-th called a tenth of a period into
// period j.
func restartPlan(dur time.Duration) []time.Duration {
	n := int(dur / RestartEvery)
	period := RestartEvery
	if n < 1 {
		n, period = 1, dur
	}
	at := make([]time.Duration, n)
	for j := range at {
		at[j] = time.Duration(j)*period + period/10
	}
	return at
}

// Paced runs an open loop for dur at the workload's rate on a uniform
// schedule. Operation i is due at i/rate and belongs to worker i mod
// len(workers); it is timed from the instant it was due, so the time it
// spends queued behind a busy connection counts. In a release workload
// one slot is restarted at each point of the restart plan, in the order
// the rig lists them, round and round.
func (r *Runner) Paced(dur time.Duration, base int) Result {
	n := int(r.wl.Rate * dur.Seconds())
	period := time.Duration(float64(time.Second) / r.wl.Rate)
	nw := len(r.workers)
	parts := make([]Result, nw)
	for i := range parts {
		parts[i].Samples = make([]stats.Sample, 0, n/nw+1)
	}
	var res Result
	var wg sync.WaitGroup
	u := readUsage()
	start := u.at.Add(5 * time.Millisecond)
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			p := &parts[i]
			for k := i; k < n; k += nw {
				offset := time.Duration(k) * period
				due := start.Add(offset)
				if time.Until(due) > 0 {
					sleepUntil(due)
					if time.Since(due) > time.Millisecond {
						p.Late++
					}
				}
				lat, ok := r.one(w, base+k, p, due)
				p.Samples = append(p.Samples, stats.Sample{Due: offset, Lat: lat, OK: ok})
			}
		}(i, w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.Restarts = r.Restarts(start, dur)
	}()
	wg.Wait()
	res.since(u)
	for i := range parts {
		res.Add(parts[i])
	}
	return res
}

// Restarts carries out the restart plan of a phase of length dur that
// began at start: in a release workload it restarts one slot at each
// point of the plan, in the order the rig lists them, round and round,
// and returns when the last restart has. Elsewhere nothing is restarted
// and the planned windows come back at their nominal length, to be read
// as the control.
func (r *Runner) Restarts(start time.Time, dur time.Duration) []Restart {
	var out []Restart
	for _, at := range restartPlan(dur) {
		if !r.wl.Release || len(r.targets.Slots) == 0 {
			out = append(out, Restart{Slot: "control", Called: at, Returned: at + nominalRestart})
			continue
		}
		sleepUntil(start.Add(at))
		slot := r.targets.Slots[r.restarted%len(r.targets.Slots)]
		r.restarted++
		rs := Restart{Slot: slot.Name(), Called: time.Since(start)}
		if r.RestartTrace != nil {
			rs.Err = slot.Restart(core.WithTrace(r.RestartTrace))
		} else {
			rs.Err = slot.Restart()
		}
		rs.Returned = time.Since(start)
		out = append(out, rs)
	}
	return out
}
