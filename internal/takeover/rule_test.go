package takeover

// The compatibility rule, stated as tests: a build speaks v3 and nothing
// else. N−1 is the nearest parent build, and internal/e2e releases to and
// from it; this file holds the refused peers. A peer of the original
// one-shot protocol — no proto field in its manifest, a single ACK as its
// commit point — or of two-phase v2 — proto 2, no lease — must be turned
// away loudly and without disruption: the old instance keeps accepting
// and every descriptor the attempt created is closed, on both sides.

import (
	"encoding/json"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zdr/internal/netx"
)

// TestOneShotSenderRefused: the manifest of a one-shot or v2 sender is
// nacked with an error that names the rule, before anything is adopted.
// The sender reads an ordinary nack — the frame both protocols define for
// a refusal — so it keeps serving, and no descriptor survives the attempt.
func TestOneShotSenderRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto uint8 // 0: no proto field at all
	}{
		{"one-shot", 0},
		{"v2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
			before, err := netx.OpenFDCount()
			if err != nil {
				t.Fatal(err)
			}
			a, b := pair(t)

			nackCh := make(chan ack, 1)
			go func() {
				// The old sender, byte for byte: its manifest, then exactly
				// one frame read back.
				var got ack
				defer func() { nackCh <- got }()
				payload, _ := json.Marshal(manifest{Magic: magic, Version: version, Proto: tc.proto, VIPs: set.VIPs()})
				fds, err := set.fds()
				if err != nil {
					t.Error(err)
					return
				}
				defer closeFDs(fds)
				if err := writeFrame(a, msgManifest, payload, fds); err != nil {
					t.Error(err)
					return
				}
				a.SetReadDeadline(time.Now().Add(2 * time.Second))
				kind, body, stray, err := readFrame(a)
				closeFDs(stray)
				if err != nil || kind != msgAck {
					t.Errorf("%s sender read kind %d, err %v; want a nack (kind %d)", tc.name, kind, err, msgAck)
					return
				}
				json.Unmarshal(body, &got)
			}()

			armed := false
			got, _, err := receive(b, ReceiveOptions{
				timeout: 2 * time.Second,
				Arm:     func(*ListenerSet, *Result) error { armed = true; return nil },
			})
			if err == nil {
				got.Close()
				t.Fatalf("%s sender accepted", tc.name)
			}
			if !strings.Contains(err.Error(), outsideRule) {
				t.Fatalf("refusal does not name the rule: %v", err)
			}
			if armed {
				t.Fatal("receiver armed for a sender it refuses")
			}
			nack := <-nackCh
			if nack.OK || !strings.Contains(nack.Err, outsideRule) {
				t.Fatalf("sender was told %+v, want a nack naming the rule", nack)
			}
			a.Close()
			b.Close()
			if n := waitFDCount(t, before); n != before {
				t.Fatalf("fd ledger after refusing a %s sender: %d, want %d", tc.name, n, before)
			}
			assertOldSetServes(t, set, "web")
		})
	}
}

// TestOneShotReceiverRefused: a one-shot receiver answers the manifest
// with an OK single ACK, which was that protocol's commit point; a v2
// receiver answers with a PREPARE-ACK that carries no proto field, and
// would never release the lease. The Server must commit to neither: it
// answers ABORT, reports the attempt through OnHandoffError, never
// drains, keeps serving hand-offs, and closes its dups.
func TestOneShotReceiverRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind byte // the frame the old receiver confirms with
	}{
		{"one-shot", msgAck},
		{"v2", msgPrepareAck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
			before, err := netx.OpenFDCount()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "takeover.sock")
			handErr := make(chan error, 1)
			var drains atomic.Int32
			srv := &Server{
				Set:            set,
				OnDrainStart:   func(Result) { drains.Add(1) },
				OnUndo:         func(rearmed *ListenerSet, _ error) { rearmed.Close() },
				OnHandoffError: func(err error) { handErr <- err },
			}
			if err := srv.Listen(path); err != nil {
				t.Fatal(err)
			}
			srvDone := make(chan error, 1)
			go func() { srvDone <- srv.Serve() }()

			// The old receiver, byte for byte: adopt, one OK confirmation
			// without a proto field.
			c, err := net.DialTimeout("unix", path, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conn := c.(*net.UnixConn)
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			kind, payload, fds, err := readFrame(conn)
			if err != nil || kind != msgManifest {
				t.Fatalf("reading manifest: kind %d, err %v", kind, err)
			}
			var m manifest
			if err := json.Unmarshal(payload, &m); err != nil {
				t.Fatal(err)
			}
			adopted, _, err := adoptFDs(m.VIPs, fds)
			if err != nil {
				t.Fatal(err)
			}
			if err := sendAck(conn, tc.kind, ack{OK: true, Adopted: adopted.Len()}); err != nil {
				t.Fatal(err)
			}

			select {
			case err := <-handErr:
				if !strings.Contains(err.Error(), outsideRule) {
					t.Fatalf("OnHandoffError does not name the rule: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("OnHandoffError never fired for a %s confirmation", tc.name)
			}
			kind, reason, stray, err := readFrame(conn)
			closeFDs(stray)
			if err != nil || kind != msgAbort || !strings.Contains(string(reason), outsideRule) {
				t.Fatalf("%s confirmation answered with kind %d %q, err %v; want ABORT (kind %d) naming the rule", tc.name, kind, reason, err, msgAbort)
			}
			conn.Close()
			adopted.Close()

			// Still in charge, in both senses: the VIP accepts and the
			// takeover path serves the next — in-rule — attempt.
			assertOldSetServes(t, set, "web")
			if drains.Load() != 0 {
				t.Fatalf("sender began draining for a %s receiver", tc.name)
			}
			if n := waitFDCount(t, before+1); n != before+1 { // +1: the server's UNIX listener
				t.Fatalf("fd ledger after refusing a %s receiver: %d, want %d", tc.name, n, before+1)
			}
			got, _, err := Connect(path, ReceiveOptions{timeout: 2 * time.Second})
			if err != nil {
				t.Fatalf("hand-off after the refusal: %v", err)
			}
			defer got.Close()
			if err := <-srvDone; err != nil {
				t.Fatalf("server exit: %v", err)
			}
		})
	}
}
