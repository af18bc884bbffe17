// Package gen is the benchmark's load generator: the five workloads, the
// clients that speak to the rig and verify every reply, the closed-loop
// and open-loop drivers, and the bare echo stub the generator's own
// ceiling is measured against.
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"zdr/bench/rig"
)

// Workers is how many load-generating goroutines (and connections) a run
// uses: the reference box's core count.
const Workers = 2

// Workload fixes one traffic shape. Rates and limits are constants: they
// were set once at about a quarter of the seed's saturation rate on the
// 2-core reference box and are never adapted at run time.
type Workload struct {
	Name string
	// Rate is the paced phase's offered load in operations per second.
	Rate float64
	// Limit is the latency, from the instant an operation was due,
	// beyond which it counts as missing its service level.
	Limit time.Duration
	// StubRPS is the closed-loop rate the generator reached against its
	// own stub on the 2-core box the benchmark was built on: the unit
	// machine speed is measured in during a run. It is a constant of the
	// benchmark; changing it rescales every time and rate reported.
	StubRPS float64
	// Release says that proxy slots are restarted during the paced
	// phase. Elsewhere the same windows are laid over an undisturbed
	// phase and read as the control.
	Release bool
	// newWorker builds worker w. direct selects the proxy-less variant
	// of the same operation, where the workload has one.
	newWorker func(env *Env, w int, direct bool) (worker, error)
}

// Env is what a workload's workers are built from.
type Env struct {
	Targets *rig.Targets
	Seed    int64
	// BrokerAddr is the broker itself, for the direct MQTT variant.
	BrokerAddr string
	// Resident overrides QuicResident (quick runs keep fewer flows).
	Resident int
}

// resident is how many flows each quic_steered worker keeps open.
func (e *Env) resident() int {
	if e.Resident > 0 {
		return e.Resident / Workers
	}
	return QuicResident / Workers
}

// rnd derives worker w's private random stream from the seed.
func (e *Env) rnd(w int) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed*1000003 + int64(w)))
}

// pin is the edge worker w's persistent connection is placed on.
func pin(w int) string { return rig.EdgeNames[w%len(rig.EdgeNames)] }

// QuicResident is how many flows a quic_steered run keeps open: four
// times the steering LB's LRU cache, well inside its flow table.
const QuicResident = 4096

// Workloads is the benchmark, in the order it runs.
var Workloads = []Workload{
	{
		Name: "http_small", Rate: 2000, Limit: 5 * time.Millisecond, StubRPS: 90000,
		newWorker: func(env *Env, w int, _ bool) (worker, error) {
			return newHTTPWorker(env.Targets, env.rnd(w), pin(w), 0, 64, 0), nil
		},
	},
	{
		Name: "http_post_1m", Rate: 40, Limit: 100 * time.Millisecond, StubRPS: 2000,
		newWorker: func(env *Env, w int, _ bool) (worker, error) {
			return newHTTPWorker(env.Targets, env.rnd(w), pin(w), 0, 0, rig.PostSize), nil
		},
	},
	{
		Name: "mqtt_pubsub", Rate: 2000, Limit: 5 * time.Millisecond, StubRPS: 95000,
		newWorker: func(env *Env, w int, direct bool) (worker, error) {
			addr := ""
			if direct {
				addr = env.BrokerAddr
			}
			return newMQTTWorker(env.Targets, env.rnd(w), pin(w), addr, fmt.Sprintf("u%d-%d", env.Seed, w)), nil
		},
	},
	{
		Name: "quic_steered", Rate: 20000, Limit: 2 * time.Millisecond, StubRPS: 90000,
		newWorker: func(env *Env, w int, direct bool) (worker, error) {
			var e *rig.Edge
			if direct {
				e = &env.Targets.Edges[w%len(env.Targets.Edges)]
			}
			return newQUICWorker(env.Targets, env.rnd(w), env.resident(), e)
		},
	},
	{
		Name: "http_release", Rate: 2000, Limit: 5 * time.Millisecond, StubRPS: 55000, Release: true,
		newWorker: func(env *Env, w int, _ bool) (worker, error) {
			return newHTTPWorker(env.Targets, env.rnd(w), "", 8, 64, 0), nil
		},
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, wl := range Workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return Workload{}, false
}
