package main

import (
	"encoding/json"
	"fmt"
	"os"

	"zdr/bench/stats"
)

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one (workload, metric) pair of a base and a change by
// the rule the guides fix: worse when the change's median is worse than
// the base's by more than the bound; unresolved when either side's own
// quartile spread is wider than the bound, since then the bound cannot
// be told from noise; better when it improved by more than the base's
// spread; otherwise within bound. worse is the share by which the change
// is worse (negative: better).
func verdict(m metricSpec, base, change []float64) (v string, worse float64) {
	a, b := stats.Median(base), stats.Median(change)
	if a == 0 {
		return "no base", 0
	}
	worse = (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	spreadA, spreadB := stats.Spread(base), stats.Spread(change)
	switch {
	case m.Bound == 0:
		return "", worse
	case max(spreadA, spreadB) > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "WORSE", worse
	case -worse > spreadA && -worse > 0:
		return "better", worse
	default:
		return "within bound", worse
	}
}

// compareFiles prints one row per (workload, metric): both medians, the
// ratio beside its base, both spreads, the bound and the verdict. It
// returns 1 if any end-to-end metric is worse.
func compareFiles(s *spec, pathA, pathB string) int {
	fa, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fb, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, b := collect(fa), collect(fb)
	code := 0
	fmt.Printf("%-14s %-28s %14s %14s %8s %9s %9s %7s  %s\n", "workload", "metric", "base median", "change median", "ratio", "base iqr", "chg iqr", "bound", "verdict")
	for _, k := range a.keys {
		vb, ok := b.values[k]
		if !ok {
			continue
		}
		va := a.values[k]
		m, _ := s.metric(k[1])
		v, _ := verdict(m, va, vb)
		if v == "WORSE" {
			code = 1
		}
		ma, mb := stats.Median(va), stats.Median(vb)
		ratio := 0.0
		if ma != 0 {
			ratio = mb / ma
		}
		fmt.Printf("%-14s %-28s %14.4f %14.4f %8.4f %9.4f %9.4f %7.3f  %s\n",
			k[0], k[1], ma, mb, ratio, stats.Spread(va), stats.Spread(vb), m.Bound, v)
	}
	return code
}
