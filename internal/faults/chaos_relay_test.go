// Chaos coverage for the kernel-assisted relay layer: the selective-split
// rule under fault injection (instrumented pumps must ride the pooled
// copy, where every byte is observable), splice relays in flight across a
// Socket Takeover, and the pipe-pool fd hygiene both depend on.
package faults_test

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/faults"
	"zdr/internal/netx"
	"zdr/internal/proxy"
	"zdr/internal/throughput"
)

// countPipeFDs counts the process's open pipe descriptors — the resource
// the splice pool borrows. Socket churn from load and restarts does not
// move this number; leaked pipe pairs do.
func countPipeFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		dst, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err == nil && strings.HasPrefix(dst, "pipe:") {
			n++
		}
	}
	return n
}

// TestChaosFaultWrappedRelayStaysOnCopyPath drives POST traffic (the
// PPR-armed, body-capturing path) and broker-relayed MQTT through a
// topology whose origin hops are fault-wrapped, and asserts the Libra
// selective split structurally: every relayed byte is accounted to the
// pooled-copy counter — where wrappers see it — and none to the kernel
// splice path, which would bypass the injectors.
func TestChaosFaultWrappedRelayStaysOnCopyPath(t *testing.T) {
	inj := faults.NewInjector(faults.Scenario{
		Seed:             1201,
		PartialWriteRate: 0.3,
		ReadStallRate:    0.2,
		ReadStallMax:     2 * time.Millisecond,
	})
	accept := faults.NewInjector(faults.Scenario{
		Seed:             1202,
		PartialWriteRate: 0.3,
	})
	tp := buildChaosTopo(t, func(cfg *proxy.Config) {
		cfg.Faults = inj
		cfg.AcceptFaults = accept
	}, nil)

	before := netx.ReadRelayStats()
	addr := tp.edge.Current().Addr(proxy.VIPWeb)
	body := bytes.Repeat([]byte("ppr-armed-body "), 4<<10) // ~60 KiB
	const posts = 24
	for i := 0; i < posts; i++ {
		if err := doHTTP(addr, "POST", "/upload", body); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	after := netx.ReadRelayStats()

	if after.SpliceBytes != before.SpliceBytes {
		t.Fatalf("splice path moved %d bytes on instrumented pumps — selective split violated",
			after.SpliceBytes-before.SpliceBytes)
	}
	// Each POST crosses at least the edge request pump and the origin
	// response pump; requiring one body's worth per POST proves the bytes
	// really flowed through Relay's copy path, not around it.
	if moved := after.CopyBytes - before.CopyBytes; moved < int64(posts*len(body)) {
		t.Fatalf("copy path moved %d bytes, want at least %d", moved, posts*len(body))
	}
	if inj.InjectedTotal() == 0 {
		t.Fatal("fault injector never fired — wrappers were not on the byte path")
	}
}

// TestChaosMidSpliceTakeoverDrains runs live splice(2) relays — real
// kernel pipes in flight — while both proxy tiers restart via Socket
// Takeover under HTTP load. The takeover must not disturb the splices,
// the splices must not leak state into the next generation, and the
// retiring generation's DrainPipePool must leave the process's pipe-fd
// table exactly as it found it.
func TestChaosMidSpliceTakeoverDrains(t *testing.T) {
	tp := buildChaosTopo(t, nil, nil)
	addr := tp.edge.Current().Addr(proxy.VIPWeb)

	netx.DrainPipePool()
	basePipes := countPipeFDs(t)
	before := netx.ReadRelayStats()

	// Splice pumps: each relays 8 MiB through a pooled kernel pipe, in a
	// loop, so takeover always lands mid-splice somewhere.
	stopPumps := make(chan struct{})
	var pumpErr atomic.Value
	var spliced sync.WaitGroup
	for i := 0; i < 2; i++ {
		spliced.Add(1)
		go func() {
			defer spliced.Done()
			for {
				select {
				case <-stopPumps:
					return
				default:
				}
				if _, err := throughput.RunTCPRelay(8<<20, true); err != nil {
					pumpErr.Store(err)
					return
				}
			}
		}()
	}

	stop := make(chan struct{})
	var ok, failed atomic.Int64
	var lastErr atomic.Value
	done := httpLoad(addr, stop, &ok, &failed, &lastErr)
	time.Sleep(100 * time.Millisecond)

	if err := tp.origin.Restart(); err != nil {
		t.Fatalf("origin restart: %v", err)
	}
	if err := tp.edge.Restart(); err != nil {
		t.Fatalf("edge restart: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	// Each restart used to take 50 ms longer (a fixed wait while the
	// takeover path armed), and beside two splice pumps on two cores the
	// load loop needed that time for its quota: give it until it has it.
	for deadline := time.Now().Add(5 * time.Second); ok.Load() < 20 && failed.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}

	close(stop)
	<-done
	close(stopPumps)
	spliced.Wait()

	if err := pumpErr.Load(); err != nil {
		t.Fatalf("splice pump failed across takeover: %v", err)
	}
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed across mid-splice takeovers; last: %v",
			f, f+ok.Load(), lastErr.Load())
	}
	if ok.Load() < 20 {
		t.Fatalf("only %d requests completed — load loop starved", ok.Load())
	}
	if moved := netx.ReadRelayStats().SpliceBytes - before.SpliceBytes; moved < 16<<20 {
		t.Fatalf("splice path moved only %d bytes — pumps were not on the kernel path", moved)
	}

	// The retiring-generation rule: after draining the pool, no pipe fds
	// beyond the pre-test baseline may remain anywhere in the process.
	netx.DrainPipePool()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := countPipeFDs(t); n <= basePipes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipe fds leaked: %d open, baseline %d", countPipeFDs(t), basePipes)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
