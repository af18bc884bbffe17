// Command zdr-loadgen drives HTTP and MQTT load against an Edge proxy and
// reports client-observed disruptions by class — the end-user vantage
// point the paper's monitoring system collects ("performance metrics from
// the end-user applications ... serve as the source of measuring
// client-side disruptions", §6). Run it while restarting the proxies to
// see the Fig. 12 error classes live.
//
// Usage:
//
//	zdr-loadgen -web 127.0.0.1:8080 -target /static/ping -duration 30s
//	zdr-loadgen -web 127.0.0.1:8080 -mqtt 127.0.0.1:8883 -mqtt-conns 20
//
// Idle-connection storm mode holds a herd of established keep-alive
// connections (the silent population an edge serves between requests),
// counts any that the server severs while idle — e.g. a release
// terminating its drained generation — and then wakes every survivor at
// once, re-dialing casualties, to measure reconnect-storm absorption:
//
//	zdr-loadgen -web 127.0.0.1:8080 -idle-conns 5000 -duration 30s
//
// Bulk-transfer mode streams large POST bodies over keep-alive
// connections and reports client-observed Gbps — the workload that
// exercises, end to end, the proxies' pooled copies of request and reply
// bodies into and out of the tunnel's streams:
//
//	zdr-loadgen -web 127.0.0.1:8080 -throughput -throughput-mb 16 -c 2
//
// Steering mode runs a client-side katran instance over a set of edge
// web VIPs — the loadgen plays the L4 tier, so a rolling edge restart
// can be watched from the steering vantage point. With -steering
// prequal and -steer-health, draining edges advertise their phase over
// the load-probe channel and the loadgen bleeds new flows off them:
//
//	zdr-loadgen -steer-backends 127.0.0.1:8080,127.0.0.1:8090 \
//	            -steer-health 127.0.0.1:8081,127.0.0.1:8091 \
//	            -steering prequal -duration 30s
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/fleet"
	"zdr/internal/http1"
	"zdr/internal/katran"
	"zdr/internal/metrics"
	"zdr/internal/mqtt"
)

type stats struct {
	// class counts HTTP requests by how they ended (Fig. 12's classes).
	class                                         [http1.ClassWriteTimeout + 1]atomic.Int64
	mqttDrops                                     atomic.Int64
	idleDrops, stormOK, stormReconnect, stormFail atomic.Int64
	bulkBytes                                     atomic.Int64
	latency                                       sync.Mutex
	latencies                                     []float64
}

func main() {
	web := flag.String("web", "", "edge web VIP address")
	mqttAddr := flag.String("mqtt", "", "edge MQTT VIP address (optional)")
	target := flag.String("target", "/static/ping", "HTTP request target")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	concurrency := flag.Int("c", 4, "concurrent HTTP workers")
	mqttConns := flag.Int("mqtt-conns", 0, "persistent MQTT connections to hold")
	idleConns := flag.Int("idle-conns", 0, "established keep-alive HTTP connections to hold idle, then wake all at once")
	timeout := flag.Duration("timeout", time.Second, "per-request timeout")
	tput := flag.Bool("throughput", false, "bulk-transfer mode: stream large POST bodies and report Gbps instead of request-rate load")
	tputMB := flag.Int("throughput-mb", 16, "POST body size per bulk transfer, in MiB")
	steerBackends := flag.String("steer-backends", "", "comma-separated edge web VIPs to steer across with a client-side katran instance (replaces -web for request load)")
	steerHealth := flag.String("steer-health", "", "comma-separated edge health VIPs, parallel to -steer-backends (enables health checks and prequal load probing)")
	steering := flag.String("steering", "maglev", "steering policy for -steer-backends: maglev | prequal")
	flag.Parse()
	if *web == "" && *mqttAddr == "" && *steerBackends == "" {
		fmt.Fprintln(os.Stderr, "need -web, -steer-backends and/or -mqtt")
		os.Exit(2)
	}

	// Steering mode: the loadgen runs its own katran instance and picks a
	// backend per request; `pick` stays nil otherwise and workers hit -web
	// directly.
	var pick func() (string, error)
	if *steerBackends != "" {
		backends := splitList(*steerBackends)
		healths := splitList(*steerHealth)
		if len(healths) != 0 && len(healths) != len(backends) {
			fmt.Fprintln(os.Stderr, "-steer-health must list one address per -steer-backends entry")
			os.Exit(2)
		}
		reg := metrics.NewRegistry()
		lb := katran.New("loadgen", katran.Config{
			Policy: katran.NewPolicy(*steering, katran.PrequalConfig{}, reg),
		}, reg)
		defer lb.Close()
		for i, addr := range backends {
			b := katran.Backend{Name: addr, Addr: addr}
			if len(healths) > 0 {
				b.HealthAddr = healths[i]
			}
			lb.AddBackend(b, true)
		}
		if len(healths) > 0 {
			lb.StartHealthChecks(500 * time.Millisecond)
		}
		var seq atomic.Uint64
		pick = func() (string, error) {
			b, err := lb.Steer(seq.Add(1))
			if err != nil {
				return "", err
			}
			return b.Addr, nil
		}
		if *web == "" {
			*web = backends[0] // idle-herd / bulk modes fall back to the first backend
		}
	}

	var st stats
	stop := make(chan struct{})
	var wg sync.WaitGroup

	if *web != "" && *tput {
		bulkTimeout := *timeout
		if bulkTimeout < 30*time.Second {
			bulkTimeout = 30 * time.Second
		}
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bulkWorker(&st, *web, *target, int64(*tputMB)<<20, bulkTimeout, stop)
			}()
		}
	} else if *web != "" {
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					addr := *web
					if pick != nil {
						var err error
						if addr, err = pick(); err != nil {
							st.class[http1.ClassConnReset].Add(1)
							time.Sleep(10 * time.Millisecond)
							continue
						}
					}
					start := time.Now()
					st.class[http1.Classify(fleet.GetStatus(addr, *target, *timeout))].Add(1)
					st.latency.Lock()
					st.latencies = append(st.latencies, float64(time.Since(start).Microseconds()))
					st.latency.Unlock()
					time.Sleep(time.Millisecond)
				}
			}()
		}
	}

	var idleHerd []net.Conn
	if *web != "" && *idleConns > 0 {
		idleHerd = establishIdleHerd(&st, *web, *idleConns)
		fmt.Printf("holding %d idle connections\n", len(idleHerd))
	}

	if *mqttAddr != "" && *mqttConns > 0 {
		for i := 0; i < *mqttConns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				holdMQTT(&st, *mqttAddr, fmt.Sprintf("loadgen-%d-%d", os.Getpid(), i), stop)
			}(i)
		}
	}

	fmt.Printf("load running for %v ...\n", *duration)
	loadStart := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	loadElapsed := time.Since(loadStart).Seconds()

	var stormMs float64
	if len(idleHerd) > 0 {
		stormMs = wakeStorm(&st, *web, *target, idleHerd, *timeout)
	}

	var total int64
	for i := range st.class {
		total += st.class[i].Load()
	}
	fmt.Printf("\nHTTP requests: %d\n", total)
	if *tput {
		moved := st.bulkBytes.Load()
		fmt.Printf("Bulk transfer: %d MiB in %.1fs = %.2f Gbps (%d workers, %d MiB bodies)\n",
			moved>>20, loadElapsed, float64(moved)*8/loadElapsed/1e9, *concurrency, *tputMB)
	}
	for i := range st.class {
		fmt.Printf("  %-15s%d\n", http1.ErrorClass(i), st.class[i].Load())
	}
	st.latency.Lock()
	if n := len(st.latencies); n > 0 {
		var sum float64
		for _, v := range st.latencies {
			sum += v
		}
		fmt.Printf("  mean latency   %.0f us\n", sum/float64(n))
	}
	st.latency.Unlock()
	if *mqttConns > 0 {
		fmt.Printf("MQTT connections: %d held, %d dropped\n", *mqttConns, st.mqttDrops.Load())
	}
	if len(idleHerd) > 0 {
		fmt.Printf("Idle herd: %d held, %d severed while idle\n", len(idleHerd), st.idleDrops.Load())
		fmt.Printf("  storm: %d ok, %d via reconnect, %d failed, %.1fms wall\n",
			st.stormOK.Load(), st.stormReconnect.Load(), st.stormFail.Load(), stormMs)
		if st.stormFail.Load() > 0 {
			os.Exit(1)
		}
	}
}

// establishIdleHerd dials n keep-alive connections and leaves them idle,
// sending nothing on them: each one's first request is wakeStorm's.
func establishIdleHerd(st *stats, addr string, n int) []net.Conn {
	herd := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idle herd: dial %d/%d: %v\n", i, n, err)
			break
		}
		herd = append(herd, conn)
	}
	return herd
}

// wakeStorm fires one request on every held connection simultaneously —
// the reconnect storm a terminated generation produces. Severed conns
// re-dial once; only a failed re-dial counts as client-visible.
func wakeStorm(st *stats, addr, target string, herd []net.Conn, timeout time.Duration) float64 {
	fmt.Printf("waking %d idle connections ...\n", len(herd))
	start := time.Now()
	var wg sync.WaitGroup
	for _, conn := range herd {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if keepAliveGet(conn, target, timeout) == nil {
				st.stormOK.Add(1)
				return
			}
			st.idleDrops.Add(1)
			re, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				st.stormFail.Add(1)
				return
			}
			defer re.Close()
			if keepAliveGet(re, target, timeout) == nil {
				st.stormReconnect.Add(1)
			} else {
				st.stormFail.Add(1)
			}
		}(conn)
	}
	wg.Wait()
	return float64(time.Since(start).Microseconds()) / 1e3
}

// keepAliveGet runs one GET on an already-established connection.
func keepAliveGet(conn net.Conn, target string, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
	code, err := http1.Get(conn, target)
	if err == nil && code >= 500 {
		err = fmt.Errorf("status %d", code)
	}
	return err
}

// bulkWorker streams bodyLen-byte POSTs back to back over one keep-alive
// connection, re-dialing on error, until stopped. Bytes moved in each
// direction count toward the Gbps report; the echo appserver reflects the
// body, so every request exercises both proxy relay directions.
func bulkWorker(st *stats, addr, target string, bodyLen int64, timeout time.Duration, stop <-chan struct{}) {
	chunk := make([]byte, 256<<10)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if conn == nil {
			var err error
			conn, err = net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				st.class[http1.ClassConnReset].Add(1)
				time.Sleep(100 * time.Millisecond)
				continue
			}
		}
		conn.SetWriteDeadline(time.Now().Add(timeout))
		body := &repeatReader{chunk: chunk, left: bodyLen}
		if _, err := http1.WriteRequest(conn, http1.NewRequest("POST", target, body, bodyLen)); err != nil {
			st.class[http1.ClassConnReset].Add(1)
			conn.Close()
			conn = nil
			continue
		}
		conn.SetReadDeadline(time.Now().Add(timeout))
		resp, err := http1.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			st.class[http1.ClassConnReset].Add(1)
			conn.Close()
			conn = nil
			continue
		}
		down, err := io.Copy(io.Discard, resp.Body)
		if err != nil || resp.StatusCode >= 500 {
			st.class[http1.ClassStreamAbort].Add(1)
			conn.Close()
			conn = nil
			continue
		}
		st.class[http1.ClassOK].Add(1)
		st.bulkBytes.Add(bodyLen + down)
	}
}

// repeatReader yields `left` bytes from a recycled chunk.
type repeatReader struct {
	chunk []byte
	left  int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.left {
		n = int(r.left)
	}
	if n > len(r.chunk) {
		n = len(r.chunk)
	}
	copy(p, r.chunk[:n])
	r.left -= int64(n)
	return n, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// holdMQTT keeps one persistent MQTT connection pinging; every drop is a
// client-visible disruption (re-connects and holds again).
func holdMQTT(st *stats, addr, id string, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			st.mqttDrops.Add(1)
			time.Sleep(500 * time.Millisecond)
			continue
		}
		c := mqtt.NewClient(conn, id, true)
		if _, err := c.Connect(0, 2*time.Second); err != nil {
			st.mqttDrops.Add(1)
			time.Sleep(500 * time.Millisecond)
			continue
		}
		c.Subscribe(2*time.Second, "notif/"+id)
		for {
			select {
			case <-stop:
				c.Disconnect()
				return
			case <-c.Done():
				st.mqttDrops.Add(1)
				goto reconnect
			case <-time.After(500 * time.Millisecond):
				if err := c.Ping(2 * time.Second); err != nil {
					st.mqttDrops.Add(1)
					c.Disconnect()
					goto reconnect
				}
			}
		}
	reconnect:
		time.Sleep(200 * time.Millisecond)
	}
}
