package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// spinFlag makes this program a spinner child; see keepAwake.
const spinFlag = "-spin-at-idle-priority"

// keepAwake starts a child process that spins one thread per processor
// at SCHED_IDLE priority until stop is called. The threads get a
// processor only when nothing else wants it and lose it the moment
// something does, so they take nothing from the load; what they do is
// keep an idle virtual processor from halting. A halted virtual
// processor is woken by the hypervisor, which on the box this was built
// on took long enough, and varied enough, to be most of a paced
// operation's latency: with the spinners the stub's paced p50 fell from
// 84 us to 49 us, http_small's from 326 us to 242 us, and p50_us spread
// by 5% to 7% between 18-second runs where it had spread by 14% to 17%
// (results/SPREADS.md). It is what switching processor idle states off
// is to a latency benchmark on a real machine. The child's processor time
// is its own and never counts as the benchmark's.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spinFlag)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop = func() {
		in.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}
	// The child says when every thread has its priority, or exits.
	if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
		stop()
		return nil, fmt.Errorf("spinner child gave up: %w", err)
	}
	return stop, nil
}

// spin is the child: one thread per processor set to SCHED_IDLE and
// spinning, until standard input is closed, which it is when the parent
// stops it or dies.
func spin() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never yield; this goroutine needs a processor too
	ready := make(chan error)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			const schedIdle = 5
			var param [1]int32 // struct sched_param{ sched_priority: 0 }
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			if errno != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println("spinning")
	io.Copy(io.Discard, os.Stdin)
	return 0
}
