package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// num parses a formatted cell back to a float (stripping %, x, units).
func num(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSpace(cell)
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, " min")
	s = strings.TrimSuffix(s, " us")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := Table{
		id: "X", title: "demo",
		columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		notes:   "n",
	}
	out := tab.Render()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "333") || !strings.Contains(out, "note: n") {
		t.Fatalf("render:\n%s", out)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestAllListsEveryFigure(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
	}
	for _, want := range []string{"F2a", "F2b", "F2c", "F2d", "F3a", "F3b", "F8", "F9", "F10", "F11", "F12", "F13", "F15", "F16", "F17", "T-A", "T-B", "T-C", "T-D", "T-E", "T-F", "T-G"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from All()", want)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	tab, err := fig2aReleaseCadence()
	if err != nil {
		t.Fatal(err)
	}
	l7med := num(t, tab.Rows[0][2])
	appMed := num(t, tab.Rows[1][2])
	if l7med < 2 || l7med > 6 {
		t.Fatalf("L7LB median %v", l7med)
	}
	if appMed < 80 || appMed > 130 {
		t.Fatalf("App median %v", appMed)
	}
}

func TestFig2bShape(t *testing.T) {
	tab, err := fig2bReleaseCauses()
	if err != nil {
		t.Fatal(err)
	}
	// binary-update row first; ~47%
	bin := num(t, tab.Rows[0][1])
	if bin < 44 || bin > 50 {
		t.Fatalf("binary share %v%%", bin)
	}
}

func TestFig2cShape(t *testing.T) {
	tab, err := fig2cCommitsPerRelease()
	if err != nil {
		t.Fatal(err)
	}
	if num(t, tab.Rows[0][3]) < 10 || num(t, tab.Rows[0][4]) > 100 {
		t.Fatalf("commit range outside [10,100]: %v", tab.Rows[0])
	}
}

func TestFig2dShape(t *testing.T) {
	tab, err := fig2dReuseportMisrouting()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if num(t, row[1]) == 0 && num(t, row[2]) == 0 {
			t.Fatalf("no misrouting for %s flows", row[0])
		}
	}
}

func TestFig3aShape(t *testing.T) {
	tab, err := fig3aCapacityTimeline()
	if err != nil {
		t.Fatal(err)
	}
	min := 101.0
	for _, row := range tab.Rows {
		if v := num(t, row[1]); v < min {
			min = v
		}
	}
	if min > 85 {
		t.Fatalf("capacity never dropped below 85%% (min %v)", min)
	}
}

func TestFig3bShape(t *testing.T) {
	tab, err := fig3bReconnectCPU()
	if err != nil {
		t.Fatal(err)
	}
	// The 10% row must show ~20% extra CPU.
	extra := num(t, tab.Rows[1][3])
	if extra < 15 || extra > 25 {
		t.Fatalf("10%% restart extra CPU = %v%%, want ~20%%", extra)
	}
}

func TestFig8Shape(t *testing.T) {
	tab, err := fig8IdleCPU()
	if err != nil {
		t.Fatal(err)
	}
	hard5 := num(t, tab.Rows[0][1])
	hard20 := num(t, tab.Rows[1][1])
	zdr20 := num(t, tab.Rows[3][1])
	if !(zdr20 > hard5 && hard5 > hard20) {
		t.Fatalf("idle CPU ordering wrong: zdr20=%v hard5=%v hard20=%v", zdr20, hard5, hard20)
	}
	if zdr20 < 90 {
		t.Fatalf("ZDR idle CPU %v%%, want near baseline", zdr20)
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := fig9DCRTimeline()
	if err != nil {
		t.Fatal(err)
	}
	// Sum over post-restart buckets: DCR deliveries must be far above
	// woutDCR's trough, and woutDCR must show a CONNACK spike.
	var dcrMin, noMin float64 = 1e18, 1e18
	var noAckSpike float64
	for i, row := range tab.Rows {
		if i < 4 || i > 7 { // around the restart
			continue
		}
		if v := num(t, row[1]); v < dcrMin {
			dcrMin = v
		}
		if v := num(t, row[3]); v < noMin {
			noMin = v
		}
		if v := num(t, row[4]); v > noAckSpike {
			noAckSpike = v
		}
	}
	if dcrMin == 0 {
		t.Fatalf("DCR publishes dropped to zero:\n%s", tab.Render())
	}
	if noMin >= dcrMin {
		t.Fatalf("woutDCR trough (%v) not below DCR trough (%v):\n%s", noMin, dcrMin, tab.Render())
	}
	if noAckSpike == 0 {
		t.Fatalf("no reconnect ACK spike in woutDCR:\n%s", tab.Render())
	}
}

func TestFig10Shape(t *testing.T) {
	tab, err := fig10UDPMisrouting()
	if err != nil {
		t.Fatal(err)
	}
	trad := num(t, tab.Rows[0][2])
	zdr := num(t, tab.Rows[1][2])
	if zdr != 0 {
		t.Fatalf("real takeover misrouted %v packets", zdr)
	}
	if trad < 100 {
		t.Fatalf("traditional model misrouted only %v", trad)
	}
	if num(t, tab.Rows[1][3]) == 0 {
		t.Fatal("user-space forwarding unused")
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := fig11PPRDisruption()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("days = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		pct := num(t, row[3])
		if pct <= 0 || pct > 0.5 {
			t.Fatalf("day %s: %v%% without PPR", row[0], pct)
		}
		if num(t, row[4]) != 0 {
			t.Fatalf("day %s: PPR failures", row[0])
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab, err := fig12ProxyErrors()
	if err != nil {
		t.Fatal(err)
	}
	var tradTotal, zdrTotal float64
	for _, row := range tab.Rows {
		tradTotal += num(t, row[1])
		zdrTotal += num(t, row[2])
	}
	if tradTotal == 0 {
		t.Fatalf("traditional restart produced no errors:\n%s", tab.Render())
	}
	if zdrTotal*3 >= tradTotal {
		t.Fatalf("ZDR errors (%v) not clearly below traditional (%v):\n%s", zdrTotal, tradTotal, tab.Render())
	}
}

func TestFig13Shape(t *testing.T) {
	tab, err := fig13ReleaseTimeline()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if v := num(t, row[1]); v < 0.9 {
			t.Fatalf("GR RPS fell to %v under ZDR", v)
		}
		if v := num(t, row[4]); v < 0.99 {
			t.Fatalf("MQTT conns fell to %v under ZDR", v)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tab, err := fig15RestartHours()
	if err != nil {
		t.Fatal(err)
	}
	// Proxygen density at 14:00 must dwarf 02:00; app server roughly flat.
	var l7Peak, l7Night, appPeak, appNight float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "14:00":
			l7Peak, appPeak = num(t, row[1]), num(t, row[2])
		case "02:00":
			l7Night, appNight = num(t, row[1]), num(t, row[2])
		}
	}
	if l7Peak < 5*l7Night {
		t.Fatalf("Proxygen peak density %v not concentrated vs night %v", l7Peak, l7Night)
	}
	if appNight == 0 || appPeak/appNight > 1.5 {
		t.Fatalf("App Server density not flat: peak %v night %v", appPeak, appNight)
	}
}

func TestFig16Shape(t *testing.T) {
	tab, err := fig16CompletionTime()
	if err != nil {
		t.Fatal(err)
	}
	l7 := num(t, tab.Rows[0][2])
	app := num(t, tab.Rows[1][2])
	if l7 < 60 || l7 > 180 {
		t.Fatalf("Proxygen median %v min, want ~90", l7)
	}
	if app < 10 || app > 50 {
		t.Fatalf("App Server median %v min, want ~25", app)
	}
	if app >= l7 {
		t.Fatal("App Server releases should be faster")
	}
}

func TestFig17Shape(t *testing.T) {
	tab, err := fig17TakeoverOverhead()
	if err != nil {
		t.Fatal(err)
	}
	p50 := num(t, tab.Rows[0][1])
	p99 := num(t, tab.Rows[1][1])
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("hand-off latency p50=%v p99=%v", p50, p99)
	}
	// A hand-off is a couple of syscalls; it must be well under 100ms.
	if p99 > 100_000 {
		t.Fatalf("hand-off p99 = %v us, implausibly slow", p99)
	}
}

func TestTblPPRRetriesShape(t *testing.T) {
	tab, err := tblPPRRetries()
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	if num(t, row[0]) != num(t, row[1]) {
		t.Fatalf("not all uploads succeeded: %v", row)
	}
	if num(t, row[2]) == 0 {
		t.Fatalf("no replays happened — restarts missed the uploads: %v", row)
	}
	if num(t, row[3]) != 0 {
		t.Fatalf("retry budget exhausted: %v", row)
	}
}

func TestTblHeadlineBenefitsShape(t *testing.T) {
	tab, err := tblHeadlineBenefits()
	if err != nil {
		t.Fatal(err)
	}
	app := num(t, strings.TrimSuffix(tab.Rows[0][2], " min"))
	l7 := num(t, strings.TrimSuffix(tab.Rows[1][2], " min"))
	if app < 10 || app > 50 {
		t.Fatalf("app release time %v min", app)
	}
	if l7 < 60 || l7 > 180 {
		t.Fatalf("l7 release time %v min", l7)
	}
	gain := num(t, strings.TrimPrefix(tab.Rows[2][2], "+"))
	if gain < 15 || gain > 25 {
		t.Fatalf("capacity gain %v%%, want ~20%%", gain)
	}
}

func TestTblPeakHourReleaseShape(t *testing.T) {
	tab, err := tblPeakHourRelease()
	if err != nil {
		t.Fatal(err)
	}
	// Row order: hard@45, hard@85, zdr@45, zdr@85.
	if tab.Rows[1][3] != "true" {
		t.Fatalf("HardRestart at peak must saturate: %v", tab.Rows[1])
	}
	if tab.Rows[0][3] != "false" || tab.Rows[2][3] != "false" || tab.Rows[3][3] != "false" {
		t.Fatalf("only HardRestart@peak should saturate:\n%s", tab.Render())
	}
}
