package gen

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"syscall"
	"testing"
	"time"

	"zdr/bench/rig"
)

// inputs is everything a seed decides: the served and expected bytes,
// the MQTT publish, and the flow ids and flow choices of quic_steered.
type inputs struct {
	content *rig.Content
	publish []byte
	flows   []uint64
	picks   []int
}

func generate(t *testing.T, seed int64) inputs {
	t.Helper()
	stub, err := NewStub(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	env := &Env{Targets: &stub.Targets, Seed: seed, Resident: 64}
	mq := newMQTTWorker(env.Targets, env.rnd(0), pin(0), "", "u")
	q, err := newQUICWorker(env.Targets, env.rnd(1), env.resident(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	in := inputs{content: stub.Content, publish: mq.pub, flows: q.flows}
	for i := 0; i < 32; i++ {
		in.picks = append(in.picks, q.rnd.Intn(1<<20))
	}
	return in
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generate(t, 7), generate(t, 7), generate(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a.content.Dyn, c.content.Dyn) || bytes.Equal(a.publish, c.publish) || reflect.DeepEqual(a.flows, c.flows) {
		t.Error("a different seed generated the same inputs")
	}
}

// Every workload runs against the stub and every reply verifies, so the
// clients and the stub agree on each protocol.
func TestWorkloadsAgainstStub(t *testing.T) {
	for _, wl := range Workloads {
		stub, err := NewStub(3)
		if err != nil {
			t.Fatal(err)
		}
		run, err := NewRunner(wl, &Env{Targets: &stub.Targets, Seed: 3, Resident: 64}, Workers, false, nil)
		if err != nil {
			stub.Close()
			t.Fatalf("%s: %v", wl.Name, err)
		}
		res := run.Closed(50*time.Millisecond, 0)
		run.Close()
		stub.Close()
		if res.Ops == 0 || res.Failed != 0 {
			t.Errorf("%s against the stub: %d ops, %d failed (%s)", wl.Name, res.Ops, res.Failed, res.FirstErr)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Class
	}{
		{nil, OK},
		{wrongf("status %d", 502), Wrong},
		{&timeoutErr{}, Timeout},
		{syscall.ECONNREFUSED, Refused},
		{io.EOF, Reset},
		{errors.New("connection reset by peer"), Reset},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

type timeoutErr struct{}

func (*timeoutErr) Error() string   { return "i/o timeout" }
func (*timeoutErr) Timeout() bool   { return true }
func (*timeoutErr) Temporary() bool { return true }

func TestRestartPlan(t *testing.T) {
	if got := restartPlan(12 * time.Second); len(got) != 8 || got[0] != 150*time.Millisecond || got[7] != 7*RestartEvery+150*time.Millisecond {
		t.Errorf("12 s plan: %v", got)
	}
	if got := restartPlan(400 * time.Millisecond); len(got) != 1 || got[0] != 40*time.Millisecond {
		t.Errorf("short plan: %v", got)
	}
}
