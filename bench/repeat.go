package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"zdr/bench/gen"
	"zdr/bench/stats"
)

// runRecord is one run as a result file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	resultLine
}

// resultFile is what -repeat -out writes and -compare reads.
type resultFile struct {
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

// repeatRuns runs every workload n times, each run in a process of its
// own (as the driver does, so that peak_rss_mb and set-up are per run)
// and each repeat with the next seed, then prints the summary and checks
// it against the bounds.
func repeatRuns(s *spec, c config, workloads []gen.Workload, trace, n int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{Seconds: c.seconds, Trace: trace}
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			seed := c.seed + int64(i)
			args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if c.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			rec := runRecord{Workload: wl.Name, Seed: seed}
			if jerr := json.Unmarshal(lines[len(lines)-1], &rec.resultLine); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d printed no result (%v, %v)\n", wl.Name, seed, err, jerr)
				return 1
			}
			fmt.Printf("run %d/%d %s seed %d: correct=%v attempted=%d failed=%d\n", i+1, n, wl.Name, seed, rec.Correct, rec.Attempted, rec.Failed)
			file.Runs = append(file.Runs, rec)
		}
	}
	if out != "" {
		b, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return summarize(s, file)
}

// series collects each (workload, metric) pair's values over a file's
// runs, in first-seen order.
type series struct {
	keys   [][2]string
	values map[[2]string][]float64
	units  map[string]string
	failed map[string]int
}

func collect(f resultFile) series {
	s := series{values: map[[2]string][]float64{}, units: map[string]string{}, failed: map[string]int{}}
	for _, r := range f.Runs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := [2]string{r.Workload, name}
			if _, seen := s.values[k]; !seen {
				s.keys = append(s.keys, k)
			}
			s.values[k] = append(s.values[k], r.Metrics[name].Value)
			s.units[name] = r.Metrics[name].Unit
		}
		if !r.Correct {
			s.failed[r.Workload]++
		}
	}
	sort.SliceStable(s.keys, func(i, j int) bool { return s.keys[i][0] < s.keys[j][0] })
	return s
}

// summarize prints each metric's median, quartiles and spread over the
// runs and holds the spreads to the bounds: quartile distance as a share
// of the median, the measure the driver accepts a benchmark by.
func summarize(s *spec, f resultFile) int {
	code := 0
	ser := collect(f)
	fmt.Printf("\n%-14s %-28s %14s %14s %14s %9s %9s %7s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound")
	for _, k := range ser.keys {
		v := ser.values[k]
		q1, q2, q3 := stats.Quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		rng := 0.0
		if q2 != 0 {
			rng = (hi - lo) / q2
		}
		spread := stats.Spread(v)
		verdict := ""
		if m, ok := s.metric(k[1]); ok && m.Bound > 0 {
			verdict = fmt.Sprintf("%7.3f", m.Bound)
			if spread > m.Bound && k[1] != "setup_s" {
				verdict += "  WIDER THAN BOUND"
				code = 1
			} else if spread > m.Bound/3 {
				verdict += "  above a third of the bound"
			}
		}
		fmt.Printf("%-14s %-28s %14.4f %14.4f %14.4f %9.4f %9.4f %s\n", k[0], k[1], q1, q2, q3, spread, rng, verdict)
	}
	for wl, n := range ser.failed {
		fmt.Printf("%s: %d run(s) not correct\n", wl, n)
		code = 1
	}
	return code
}
