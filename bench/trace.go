package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"

	"zdr/bench/stats"
	"zdr/internal/obs"
)

// budget is what the span trees of a traced run add up to.
type budget struct {
	// ops is the number of complete "op" trees.
	ops int
	// opTotal is the summed duration of their roots.
	opTotal time.Duration
	// self is each span name's summed self time inside those trees: a
	// span's duration minus the part of its interval its children cover.
	self map[string]time.Duration
	// durations collects every span's duration by name, in milliseconds,
	// whether or not it hangs under an operation.
	durations map[string][]float64
	// fdsPassed collects the descriptor count of every completed
	// hand-off.
	fdsPassed []float64
	// overhang is the summed time spans ran on after their parents had
	// finished.
	overhang time.Duration
}

// interval is a stretch of wall-clock time in Unix nanoseconds.
type interval struct{ from, to int64 }

func (iv interval) length() time.Duration { return time.Duration(max(iv.to-iv.from, 0)) }

// union is the total length the intervals cover.
func union(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var sum, end int64
	for _, v := range ivs {
		if v.to <= v.from {
			continue
		}
		if v.from > end {
			sum += v.to - v.from
			end = v.to
		} else if v.to > end {
			sum += v.to - end
			end = v.to
		}
	}
	return time.Duration(sum)
}

// book adds the self time of n and of everything below it to the
// budget. A span counts only for the part of its interval that lies
// inside its parent's: the tail a child runs on after its parent has
// finished (an origin closing its app-server connection when the reply
// is already on its way) is work nobody waits for, so it is not part of
// where the operation's time went. It is summed in overhang instead.
func (b *budget) book(n *obs.SpanNode, within interval) {
	iv := interval{max(n.StartUnixNano, within.from), min(n.EndUnixNano, within.to)}
	b.overhang += n.Duration() - iv.length()
	var kids []interval
	for _, c := range n.Children {
		if c.EndUnixNano == 0 {
			continue
		}
		kids = append(kids, interval{max(c.StartUnixNano, iv.from), min(c.EndUnixNano, iv.to)})
		b.book(c, iv)
	}
	b.self[n.Name] += iv.length() - union(kids)
}

// analyse builds the span forest and books every finished, error-free
// operation tree into a budget.
func analyse(recs []obs.SpanRecord) budget {
	b := budget{self: map[string]time.Duration{}, durations: map[string][]float64{}}
	for _, r := range recs {
		if r.EndUnixNano == 0 {
			continue
		}
		b.durations[r.Name] = append(b.durations[r.Name], float64(r.Duration())/float64(time.Millisecond))
		if r.Name == obs.SpanTakeoverStepF {
			if n, err := strconv.Atoi(r.Attrs["vips"]); err == nil {
				b.fdsPassed = append(b.fdsPassed, float64(n))
			}
		}
	}
	for _, root := range obs.BuildTree(recs) {
		if root.Name != "op" || root.Error != "" || root.EndUnixNano == 0 {
			continue
		}
		b.ops++
		b.opTotal += root.Duration()
		b.book(root, interval{root.StartUnixNano, root.EndUnixNano})
	}
	return b
}

// selfUs is a span name's mean self time per operation, in
// microseconds.
func (b budget) selfUs(names ...string) float64 {
	if b.ops == 0 {
		return 0
	}
	var sum time.Duration
	for _, n := range names {
		sum += b.self[n]
	}
	return float64(sum) / float64(b.ops) / float64(time.Microsecond)
}

// residual is the share of the mean operation the stage self times fail
// to add up to: nothing when every span nests inside its parent one
// after the other, more when children overlap each other or a span never
// finished.
func (b budget) residual() float64 {
	if b.opTotal == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range b.self {
		sum += d
	}
	diff := b.opTotal - sum
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) / float64(b.opTotal)
}

// medianMs is the median duration of the spans of one name.
func (b budget) medianMs(name string) float64 { return stats.Median(b.durations[name]) }

// writeSpans writes the records to path as JSON.
func writeSpans(path string, recs []obs.SpanRecord) error {
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
