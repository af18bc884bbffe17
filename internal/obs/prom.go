package obs

import (
	"sort"
	"strconv"
	"strings"

	"zdr/internal/metrics"
)

// PromName maps a dotted registry name ("proxy.http.status.200") to a
// Prometheus-legal metric name ("zdr_proxy_http_status_200"): every
// character outside [a-zA-Z0-9_:] becomes '_', and everything is
// prefixed with "zdr_" to namespace the exposition.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("zdr_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// RenderPrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as their native
// types, and bucket histograms as native histograms with cumulative
// le-labelled buckets (including the +Inf bucket), so a scraper can
// histogram_quantile() across nodes. Output is sorted by metric name, so
// it is stable.
func RenderPrometheus(snap metrics.RegistrySnapshot) string {
	var b strings.Builder

	for _, n := range sortedKeys(snap.Counters) {
		pn := PromName(n)
		b.WriteString("# TYPE " + pn + " counter\n")
		b.WriteString(pn + " " + strconv.FormatInt(snap.Counters[n], 10) + "\n")
	}

	for _, n := range sortedKeys(snap.Gauges) {
		pn := PromName(n)
		b.WriteString("# TYPE " + pn + " gauge\n")
		b.WriteString(pn + " " + strconv.FormatInt(snap.Gauges[n], 10) + "\n")
	}

	for _, n := range sortedKeys(snap.AtomicHistograms) {
		s := snap.AtomicHistograms[n]
		pn := PromName(n)
		b.WriteString("# TYPE " + pn + " histogram\n")
		var cum int64
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = promFloat(s.Bounds[i])
			}
			b.WriteString(pn + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
		}
		b.WriteString(pn + "_sum " + promFloat(s.Sum) + "\n")
		b.WriteString(pn + "_count " + strconv.FormatInt(s.Count, 10) + "\n")
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
