package consistent

import (
	"fmt"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("proxy-%03d", i)
	}
	return out
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(10)
	if got := r.Pick("k"); got != "" {
		t.Fatalf("empty ring pick = %q, want \"\"", got)
	}
	if len(r.Members()) != 0 {
		t.Fatal("empty ring has members")
	}
}

func TestRingSingleMember(t *testing.T) {
	r := NewRing(10, "only")
	for i := 0; i < 100; i++ {
		if got := r.Pick(fmt.Sprintf("key-%d", i)); got != "only" {
			t.Fatalf("pick = %q, want only", got)
		}
	}
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing(50, names(8)...)
	b := NewRing(50, names(8)...)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a.Pick(k) != b.Pick(k) {
			t.Fatalf("rings differ for %s", k)
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := NewRing(20, "a", "b")
	r.Add("a") // duplicate
	if got := len(r.Members()); got != 2 {
		t.Fatalf("members = %d, want 2", got)
	}
	r.Remove("zz") // absent
	if got := len(r.Members()); got != 2 {
		t.Fatalf("members = %d, want 2", got)
	}
	r.Remove("a")
	if got := len(r.Members()); got != 1 {
		t.Fatalf("members = %d, want 1", got)
	}
	for i := 0; i < 50; i++ {
		if r.Pick(fmt.Sprintf("k%d", i)) != "b" {
			t.Fatal("all keys should land on the sole remaining member")
		}
	}
}

func TestRingMinimalDisruptionOnRemove(t *testing.T) {
	members := names(20)
	full := NewRing(100, members...)
	minus := NewRing(100, members...)
	minus.Remove("proxy-007")
	d := Disruption(full, minus, 20_000)
	// Removing 1 of 20 members should move roughly 1/20 of keys; allow
	// generous slack but fail on a rehash-everything bug (d close to 1).
	if d < 0.01 || d > 0.15 {
		t.Fatalf("disruption = %v, want ~0.05", d)
	}
	// Keys that moved must have belonged to the removed member.
	for i := 0; i < 20_000; i++ {
		k := fmt.Sprintf("flow-%d", i)
		if full.Pick(k) != minus.Pick(k) && full.Pick(k) != "proxy-007" {
			t.Fatalf("key %s moved away from a surviving member", k)
		}
	}
}

func TestMaglevEmpty(t *testing.T) {
	g := NewMaglev(0)
	if g.Pick("k") != "" {
		t.Fatal("empty maglev should pick \"\"")
	}
}

func TestMaglevCoversTable(t *testing.T) {
	g := NewMaglev(503, names(10)...)
	seen := make(map[string]bool)
	for i := 0; i < 50_000; i++ {
		seen[g.Pick(fmt.Sprintf("k%d", i))] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d members ever picked, want 10", len(seen))
	}
}

func TestMaglevBalance(t *testing.T) {
	g := NewMaglev(2039, names(16)...)
	minS, maxS := LoadSpread(g, 100_000)
	if minS < 0.7 || maxS > 1.3 {
		t.Fatalf("maglev load spread min=%v max=%v, want within ±30%% of even", minS, maxS)
	}
}

func TestMaglevMinimalDisruption(t *testing.T) {
	members := names(16)
	a := NewMaglev(2039, members...)
	b := NewMaglev(2039, append(members[:7:7], members[8:]...)...) // drop proxy-007
	d := Disruption(a, b, 20_000)
	// Maglev guarantees ~1/N plus small reshuffle noise.
	if d > 0.25 {
		t.Fatalf("maglev disruption = %v, too high", d)
	}
	if d < 0.01 {
		t.Fatalf("maglev disruption = %v, suspiciously low", d)
	}
}

func TestMaglevPickUintMatchesPick(t *testing.T) {
	g := NewMaglev(503, names(5)...)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("flow-%d", i)
		if g.Pick(k) != g.PickUint(hashKey(k)) {
			t.Fatal("PickUint disagrees with Pick for the same hash")
		}
	}
}

func TestMaglevRebuildIsPureFunctionOfSet(t *testing.T) {
	a := NewMaglev(503, "c", "a", "b")
	b := NewMaglev(503, "b", "c", "a")
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Pick(k) != b.Pick(k) {
			t.Fatal("member order changed the maglev table")
		}
	}
}

// Property: picks are always drawn from the member set (quick.Check over
// arbitrary keys and small member sets).
func TestPickersAlwaysReturnMembers(t *testing.T) {
	members := names(5)
	ring := NewRing(50, members...)
	mag := NewMaglev(503, members...)
	inSet := func(s string) bool {
		for _, m := range members {
			if m == s {
				return true
			}
		}
		return false
	}
	f := func(key string) bool {
		return inSet(ring.Pick(key)) && inSet(mag.Pick(key))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: consistency — the same key always maps to the same member while
// membership is unchanged.
func TestPickStable(t *testing.T) {
	mag := NewMaglev(503, names(8)...)
	f := func(key string) bool {
		return mag.Pick(key) == mag.Pick(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFnvStable(t *testing.T) {
	// Lock the hash down: experiments depend on stable placement between
	// runs. (Value computed from the FNV-1a reference algorithm.)
	if got := fnv64a(""); got != 14695981039346656037 {
		t.Fatalf("fnv64a(\"\") = %d", got)
	}
	if fnv64a("a") == fnv64a("b") {
		t.Fatal("degenerate hash")
	}
}

func BenchmarkRingPick(b *testing.B) {
	r := NewRing(100, names(64)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Pick("flow-12345")
	}
}

func BenchmarkMaglevPick(b *testing.B) {
	g := NewMaglev(2039, names(64)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Pick("flow-12345")
	}
}

func BenchmarkMaglevRebuild(b *testing.B) {
	members := names(64)
	g := NewMaglev(2039, members...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.rebuild(members)
	}
}
