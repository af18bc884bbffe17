// Command bench is the repository's whole-path benchmark: it stands the
// real topology up in this process on loopback, drives it with its own
// load generator, verifies every reply, and prints every metric that
// BENCHMARK.json names. See bench/README.md.
//
//	go run ./bench                              every workload, end to end
//	go run ./bench -traced                      every workload, per layer
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -repeat 5 -out results.json
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"zdr/bench/gen"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 && args[0] == spinFlag {
		return spin()
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	traced := fs.Bool("traced", false, "same as -trace 1")
	quick := fs.Bool("quick", false, "phases of at most a second: checks structure, not speed")
	repeat := fs.Int("repeat", 0, "run everything this many times, each with the next seed, and print medians, quartiles and spreads against the bounds")
	compare := fs.Bool("compare", false, "compare two result files written with -out: bench -compare A.json B.json")
	out := fs.String("out", "", "with -repeat: write every run's metrics to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced {
		*trace = 1
	}
	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err, "(run it from the repository root: go run ./bench)")
		return 2
	}
	c := config{root: ".", seed: *seed, seconds: *seconds, quick: *quick}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	workloads := gen.Workloads
	if *workload != "" {
		wl, ok := gen.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []gen.Workload{wl}
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	case *repeat > 0:
		return repeatRuns(spec, c, workloads, *trace, *repeat, *out)
	}
	code := 0
	for _, wl := range workloads {
		rep, err := runOne(c, wl, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
			return 1
		}
		if !rep.Correct() {
			code = 1
		}
		printReport(rep)
	}
	return code
}

// runOne runs one workload end to end or per layer.
func runOne(c config, wl gen.Workload, trace int) (*report, error) {
	if trace == 1 {
		return runLayers(c, wl)
	}
	return runEndToEnd(c, wl)
}

// resultLine is the last line a run prints: the contract's one JSON
// object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	l := resultLine{Correct: r.Correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		l.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return l
}

// printReport prints every metric by name with its unit, then the JSON
// line.
func printReport(r *report) {
	for _, m := range r.Metrics {
		fmt.Printf("  %-32s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(r.line())
	fmt.Println(string(b))
}
