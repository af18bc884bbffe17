package takeover

// The compatibility rule, stated as tests: a build speaks v3 and v2 (N
// and N−1). The accepted directions are TestV3SenderToV2Receiver and
// TestV2SenderToV3Receiver in undo_test.go; this file holds the refused
// ones. A peer of the original one-shot protocol — no proto field in its
// manifest, a single ACK as its commit point — must be turned away
// loudly and without disruption: the old instance keeps accepting and
// every descriptor the attempt created is closed, on both sides.

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

// oneShotManifest is the one-shot protocol's manifest: no proto field.
type oneShotManifest struct {
	Magic   uint16 `json:"magic"`
	Version uint8  `json:"version"`
	VIPs    []VIP  `json:"vips"`
}

// assertListenerServes proves an adopted listener really accepts: the
// negotiation must transfer working sockets, not just survive the JSON.
func assertListenerServes(t *testing.T, set *ListenerSet, name string) {
	t.Helper()
	ln := set.TCP(name)
	if ln == nil {
		t.Fatalf("adopted set has no TCP listener %q", name)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dialing adopted listener: %v", err)
	}
	c.Close()
	<-done
}

// TestOneShotSenderRefused: a one-shot sender's manifest is nacked with an
// error that names the rule, before anything is adopted. The sender reads
// an ordinary nack — the frame its own protocol defines for a refusal —
// so it keeps serving, and no descriptor survives the attempt.
func TestOneShotSenderRefused(t *testing.T) {
	set := mustListen(t, VIP{Name: "web", Network: NetworkTCP, Addr: "127.0.0.1:0"})
	before, err := netx.OpenFDCount()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)

	nackCh := make(chan ack, 1)
	go func() {
		// The one-shot sender, byte for byte: manifest without a proto
		// field, then exactly one frame read back.
		var got ack
		defer func() { nackCh <- got }()
		payload, _ := json.Marshal(oneShotManifest{Magic: magic, Version: version, VIPs: set.VIPs()})
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
			t.Errorf("one-shot sender read kind %d, err %v; want a nack (kind %d)", kind, err, msgAck)
			return
		}
		json.Unmarshal(body, &got)
	}()

	armed := false
	got, res, err := Receive(b, ReceiveOptions{
		Timeout: 2 * time.Second,
		Arm:     func(*ListenerSet, *Result) error { armed = true; return nil },
	})
	if err == nil {
		got.Close()
		t.Fatalf("one-shot sender accepted (negotiated proto %d)", res.Proto)
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
		t.Fatalf("fd ledger after refusing a one-shot sender: %d, want %d", n, before)
	}
	assertOldSetServes(t, set, "web")
}

// TestOneShotReceiverRefused: a one-shot receiver answers the manifest
// with an OK single ACK, which was that protocol's commit point. The
// Server must not treat it as one: it answers ABORT, reports the attempt
// through OnHandoffError, never drains, keeps serving hand-offs, and
// closes its dups.
func TestOneShotReceiverRefused(t *testing.T) {
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

	// The one-shot receiver, byte for byte: adopt, single OK ACK.
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
	var m oneShotManifest
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	adopted, _, err := adoptFDs(m.VIPs, fds)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendAck(conn, msgAck, ack{OK: true, Adopted: adopted.Len()}); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-handErr:
		if !strings.Contains(err.Error(), outsideRule) {
			t.Fatalf("OnHandoffError does not name the rule: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnHandoffError never fired for a one-shot ack")
	}
	kind, reason, stray, err := readFrame(conn)
	closeFDs(stray)
	if err != nil || kind != msgAbort || !strings.Contains(string(reason), outsideRule) {
		t.Fatalf("one-shot ack answered with kind %d %q, err %v; want ABORT (kind %d) naming the rule", kind, reason, err, msgAbort)
	}
	conn.Close()
	adopted.Close()

	// Still in charge, in both senses: the VIP accepts and the takeover
	// path serves the next — in-rule — attempt.
	assertOldSetServes(t, set, "web")
	if drains.Load() != 0 {
		t.Fatal("sender began draining for a one-shot receiver")
	}
	if n := waitFDCount(t, before+1); n != before+1 { // +1: the server's UNIX listener
		t.Fatalf("fd ledger after refusing a one-shot receiver: %d, want %d", n, before+1)
	}
	got, res, err := Connect(path, ConnectOptions{ReceiveOptions: ReceiveOptions{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatalf("hand-off after the refusal: %v", err)
	}
	defer got.Close()
	if res.Proto != ProtoDrainUndo {
		t.Fatalf("negotiated proto = %d, want %d", res.Proto, ProtoDrainUndo)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("server exit: %v", err)
	}
}
