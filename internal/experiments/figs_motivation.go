package experiments

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"zdr/internal/cluster"
	"zdr/internal/netx"
	"zdr/internal/workload"
)

// fig2aReleaseCadence regenerates Fig. 2a: per-week release counts for
// Edge (L7LB) and DataCenter (App Server) clusters over a 3-month window,
// 10 clusters each.
func fig2aReleaseCadence() (Table, error) {
	rng := workload.NewRNG(0xF2A)
	const clusters, weeks = 10, 13
	var l7, app []float64
	for c := 0; c < clusters; c++ {
		for w := 0; w < weeks; w++ {
			l7 = append(l7, float64(workload.ReleasesPerWeek(rng, workload.TierL7LB)))
			app = append(app, float64(workload.ReleasesPerWeek(rng, workload.TierAppServer)))
		}
	}
	q := func(v []float64, p float64) string { return f2(workload.Percentile(v, p)) }
	t := Table{
		id:      "F2a",
		title:   "Releases per week (10 clusters, 13 weeks)",
		columns: []string{"tier", "p10", "p50", "p90"},
		Rows: [][]string{
			{"L7LB (Proxygen)", q(l7, 0.1), q(l7, 0.5), q(l7, 0.9)},
			{"App Server", q(app, 0.1), q(app, 0.5), q(app, 0.9)},
		},
		notes: "paper: L7LB >= 3/week on average; App Server ~100/week at the median",
	}
	return t, nil
}

// fig2bReleaseCauses regenerates Fig. 2b: root causes of L7LB releases.
func fig2bReleaseCauses() (Table, error) {
	rng := workload.NewRNG(0xF2B)
	const samples = 100_000
	counts := map[workload.ReleaseCause]int{}
	for i := 0; i < samples; i++ {
		counts[workload.SampleCause(rng)]++
	}
	t := Table{
		id:      "F2b",
		title:   "Root causes of L7LB releases",
		columns: []string{"cause", "share"},
		notes:   "paper: binary (code) updates ~47%, configuration next; both require a restart",
	}
	for c := workload.CauseBinary; c <= workload.CauseRollback; c++ {
		t.Rows = append(t.Rows, []string{c.String(), pct(float64(counts[c]) / samples)})
	}
	return t, nil
}

// fig2cCommitsPerRelease regenerates Fig. 2c: distinct commits per App
// Server release.
func fig2cCommitsPerRelease() (Table, error) {
	rng := workload.NewRNG(0xF2C)
	var v []float64
	for i := 0; i < 50_000; i++ {
		v = append(v, float64(workload.CommitsPerRelease(rng)))
	}
	t := Table{
		id:      "F2c",
		title:   "Code commits per App Server release",
		columns: []string{"p10", "p50", "p90", "min", "max"},
		Rows: [][]string{{
			f2(workload.Percentile(v, 0.1)),
			f2(workload.Percentile(v, 0.5)),
			f2(workload.Percentile(v, 0.9)),
			f2(workload.Percentile(v, 0)),
			f2(workload.Percentile(v, 1)),
		}},
		notes: "paper: each update carries 10-100 distinct commits",
	}
	return t, nil
}

// fig2dReuseportMisrouting regenerates Fig. 2d on the kernel's own
// SO_REUSEPORT ring: UDP packets mis-routed while a successor's sockets
// join the old generation's (flux) and after the old ones close (purge),
// for several flow counts, each batch of at most 256 flows one release.
func fig2dReuseportMisrouting() (Table, error) {
	const packetsPerFlow, batch = 2, 256
	t := Table{
		id:      "F2d",
		title:   "UDP packets mis-routed during SO_REUSEPORT socket handover",
		columns: []string{"flows", "flux misrouted", "purge misrouted", "misroute rate"},
		notes: "paper: the ring flux 'significantly increases the likelihood of UDP packets being misrouted'; " +
			"share of the flux that reached the successor, whose share of the ring is 8/16 = 0.5:",
	}
	for _, flows := range []int{1_000, 10_000} {
		var flux, purge int
		for done := 0; done < flows; done += batch {
			f, p, err := reuseportRelease(min(batch, flows-done), packetsPerFlow)
			if err != nil {
				return t, err
			}
			flux, purge = flux+f, purge+p
		}
		sent := flows * packetsPerFlow // per phase
		frac := float64(flux) / float64(sent)
		if frac < 0.4 || frac > 0.6 {
			return t, fmt.Errorf("%d flows: %.3f of the flux reached the successor, outside the band 0.4-0.6 around its ring share", flows, frac)
		}
		t.notes += fmt.Sprintf(" %.3f (%d flows)", frac, flows)
		t.Rows = append(t.Rows, []string{fmt.Sprint(flows), fmt.Sprint(flux), fmt.Sprint(purge), pct(float64(flux+purge) / float64(2*sent))})
	}
	return t, nil
}

// reuseportRelease moves a fresh loopback port from 8 old SO_REUSEPORT
// sockets to 8 successor sockets under flows (≤ 256) connected clients,
// each of which sends one packet to the old ones, then packetsPerFlow
// while both are bound (flux) and again once the old ones closed (purge),
// and counts the packets that reached the successor in each phase. A
// round of one datagram per flow is read in full before the next, and a
// socket's default receive buffer holds 256 of them with no reader
// running, so a lost datagram fails the run, never shortens a count.
func reuseportRelease(flows, packetsPerFlow int) (flux, purge int, err error) {
	var socks [2][]*net.UDPConn       // old, successor
	arrivals := make(chan int, flows) // per datagram read, 1 on a successor; holds a round
	var clients []int                 // plain descriptors: they only send
	var readers sync.WaitGroup
	defer func() {
		for _, c := range slices.Concat(socks[0], socks[1]) {
			c.Close()
		}
		for _, fd := range clients {
			syscall.Close(fd)
		}
		readers.Wait()
	}()
	bind := func(gen int, addr string) error {
		for range 8 {
			c, err := netx.ListenUDPReusePort(addr)
			if err != nil {
				return err
			}
			addr = c.LocalAddr().String()
			socks[gen] = append(socks[gen], c)
			readers.Add(1)
			go func() {
				defer readers.Done()
				for b := make([]byte, 1); ; {
					if _, _, err := c.ReadFrom(b); err != nil {
						return
					}
					select {
					case arrivals <- gen:
					default: // more than a round: the round reports a loss
					}
				}
			}()
		}
		return nil
	}
	phase := func(rounds int) (onSuccessor int, err error) {
		for range rounds {
			for _, fd := range clients {
				if _, err := syscall.Write(fd, []byte{0}); err != nil {
					return 0, fmt.Errorf("client send: %w", err)
				}
			}
			timeout := time.After(2 * time.Second)
			for range flows {
				select {
				case gen := <-arrivals:
					onSuccessor += gen
				case <-timeout:
					return 0, errors.New("a datagram was lost")
				}
			}
		}
		return onSuccessor, nil
	}

	if err := bind(0, "127.0.0.1:0"); err != nil {
		return 0, 0, err
	}
	vip := socks[0][0].LocalAddr().(*net.UDPAddr)
	for range flows {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			return 0, 0, fmt.Errorf("client socket: %w", err)
		}
		clients = append(clients, fd)
		if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: vip.Port, Addr: [4]byte{127, 0, 0, 1}}); err != nil {
			return 0, 0, fmt.Errorf("client connect: %w", err)
		}
	}
	if _, err := phase(1); err != nil {
		return 0, 0, err
	}
	if err := bind(1, vip.String()); err != nil {
		return 0, 0, err
	}
	if flux, err = phase(packetsPerFlow); err != nil {
		return 0, 0, err
	}
	for _, c := range socks[0] {
		c.Close()
	}
	purge, err = phase(packetsPerFlow)
	return flux, purge, err
}

// fig3aCapacityTimeline regenerates Fig. 3a: an Edge cluster's capacity
// during a traditional rolling release with 15-20% batches.
func fig3aCapacityTimeline() (Table, error) {
	res := cluster.RunRelease(cluster.Config{
		Machines:      100,
		BatchFraction: 0.20,
		DrainPeriod:   20 * time.Minute,
		BatchGap:      3 * time.Minute,
		Strategy:      cluster.HardRestart,
		Tick:          time.Minute,
		Seed:          0xF3A,
	})
	t := Table{
		id:      "F3a",
		title:   "Cluster capacity during a traditional rolling update (20% batches)",
		columns: []string{"minute", "capacity"},
		notes:   fmt.Sprintf("paper: persistently <85%% capacity during the update; measured min %.0f%%, completion %v", res.MinCapacityFraction*100, res.CompletionTime),
	}
	for i, s := range res.Timeline {
		if i%5 != 0 {
			continue // sample every 5 minutes for the table
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", int(s.T.Minutes())), pct(s.CapacityFraction)})
	}
	return t, nil
}

// fig3bReconnectCPU regenerates Fig. 3b: app-tier CPU while clients
// reconnect after a fraction of Origin proxies hard-restart.
func fig3bReconnectCPU() (Table, error) {
	t := Table{
		id:      "F3b",
		title:   "App-tier CPU surge from client reconnections",
		columns: []string{"% proxies restarted", "baseline CPU", "peak CPU", "extra CPU"},
		notes:   "paper: when 10% of Origin Proxygen restart, the app cluster spends ~20% of CPU cycles rebuilding state",
	}
	for _, frac := range []float64{0.05, 0.10, 0.20} {
		res := cluster.RunReconnectStorm(frac)
		t.Rows = append(t.Rows, []string{
			pct(frac), pct(res.BaselineCPU), pct(res.PeakCPU), pct(res.ExtraCPUFraction),
		})
	}
	return t, nil
}

// fig15RestartHours regenerates Fig. 15: the hour-of-day PDF of releases
// per tier.
func fig15RestartHours() (Table, error) {
	rng := workload.NewRNG(0xF15)
	const samples = 100_000
	l7 := make([]int, 24)
	app := make([]int, 24)
	for i := 0; i < samples; i++ {
		l7[workload.RestartHour(rng, workload.TierL7LB)]++
		app[workload.RestartHour(rng, workload.TierAppServer)]++
	}
	t := Table{
		id:      "F15",
		title:   "PDF of restart hour-of-day per tier",
		columns: []string{"hour", "Proxygen", "App Server"},
		notes:   "paper: Proxygen releases concentrate 12:00-17:00 (peak hours); App Server restarts run continuously (flat)",
	}
	for h := 0; h < 24; h += 2 {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%02d:00", h),
			f4(float64(l7[h]+l7[h+1]) / samples),
			f4(float64(app[h]+app[h+1]) / samples),
		})
	}
	return t, nil
}
