package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// TestHelloProtoMismatchRejectedAtHello pins where a mixed-version pair
// fails: an ingest node speaking the previous session protocol (whose
// hello could ask for shards inside the worker) is turned away by the
// worker's hello ack — which names both versions — and the session ends
// there, before the snapshot that engine construction waits for was ever
// read.
func TestHelloProtoMismatchRejectedAtHello(t *testing.T) {
	ended := make(chan string, 1)
	addrs := startWorkers(t, 1, WorkerConfig{Logf: func(format string, args ...any) {
		if strings.Contains(format, "ended") {
			ended <- args[1].(error).Error()
		}
	}})
	conn, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := errors.Join(writeWireMagic(conn), readWireMagic(conn)); err != nil {
		t.Fatal(err)
	}
	h := testHello()
	h.Proto = helloProto - 1
	old := fmt.Sprintf("protocol %d", h.Proto)
	var hello bytes.Buffer
	if err := gobEncode(&hello, &h); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	if err := newWriteHalf(conn, framePackets, 0).control(frameHello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := fr.next()
	if err != nil || ft != frameAck {
		t.Fatalf("after a %s hello: frame type %d err %v, want an ack", old, ft, err)
	}
	ack, err := decodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK || !strings.Contains(ack.Msg, old) || !strings.Contains(ack.Msg, fmt.Sprintf("speaks %d", helloProto)) {
		t.Fatalf("hello ack %+v: want a rejection naming %s and protocol %d", ack, old, helloProto)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the rejecting ack: %v, want the session closed (io.EOF)", err)
	}
	select {
	case why := <-ended:
		if !strings.Contains(why, old) {
			t.Fatalf("session ended with %q, want the hello rejection", why)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker session did not end after rejecting the hello")
	}
}

// zeroNorm is a normalizer of the flow feature width that zeroes every feature.
func zeroNorm() *datasets.Normalizer {
	return &datasets.Normalizer{Mean: make([]float32, netflow.NumFeatures), InvStd: make([]float32, netflow.NumFeatures)}
}

// TestOpeningSnapshotClearsTheGate pins that a session's first snapshot
// goes through the same decode → geometry → sanity gate as every later
// one: a model the session could not serve — an encoder narrower than a
// flow's features, more classes than the hello named — is refused in the
// snapshot ack with the reason (a width no engine serves, in the hello's
// ack), and the worker is still there for the next session. Before the
// gate the first of these was acked and the first completed flow took
// the whole worker process down with "RBF.Encode length mismatch". (The gate's panic guard is pinned where
// it lives: control's TestSanityGuardsPanickingPredict.)
func TestOpeningSnapshotClearsTheGate(t *testing.T) {
	names := []string{"benign", "dos", "scan"}
	norm := zeroNorm()
	pkts := traffic.Generate(traffic.Config{Sessions: 60, Seed: 3}).Packets
	addrs := startWorkers(t, 1, WorkerConfig{})
	dial := func(m *core.Model, w bitpack.Width) (*Client, error) {
		return Dial(ClientConfig{
			Workers: addrs, Model: core.NewCOWModel(m),
			Normalizer: norm, ClassNames: names, Width: w,
		})
	}

	type refused struct {
		name   string
		model  *core.Model
		width  bitpack.Width
		reason string
	}
	fits := tinyModel(t, len(names), netflow.NumFeatures, 64, 5)
	cases := []refused{
		{"input width", tinyModel(t, len(names), 10, 64, 5), 0, "10 input features"},
		{"class count", tinyModel(t, len(names)+1, netflow.NumFeatures, 64, 5), 0, "4 classes"},
		// Refused at the hello, so Admit never scores a sanity batch at W2.
		{"offline width", fits, bitpack.W2, "cluster: hello " + pipeline.CheckWidth(2).Error()},
	}
	for _, tc := range cases {
		client, err := dial(tc.model, tc.width)
		if err == nil {
			t.Errorf("%s: worker acked the snapshot", tc.name)
			// ... and this is what it does with its first completed flow.
			for i := range pkts {
				client.Feed(pkts[i])
			}
			client.Flush()
			client.Close()
			continue
		}
		t.Logf("%s: %v", tc.name, err)
		if !strings.Contains(err.Error(), "worker rejected") || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: want the worker's rejection naming %q", tc.name, tc.reason)
		}
	}

	// Same worker, next session, a model that fits.
	client, err := dial(fits, 0)
	if err != nil {
		t.Fatalf("well-formed session after the rejected ones: %v", err)
	}
	st, err := client.Runner(netflow.NewSliceSource(pkts), 1).Run(context.Background())
	if err != nil || client.Err() != nil {
		t.Fatalf("well-formed session: run %v, transport %v", err, client.Err())
	}
	if st.Packets != len(pkts) || st.Flows == 0 {
		t.Fatalf("well-formed session served %d of %d packets, %d flows", st.Packets, len(pkts), st.Flows)
	}
}

// fakeWorker serves one session on a loopback listener — magic exchange,
// hello and opening snapshot acked — then runs script on it. The script's
// outcome arrives on the returned channel.
func fakeWorker(t *testing.T, script func(*frameReader, *session) error) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		fr, s := newFrameReader(conn), newSession(conn)
		err = errors.Join(writeWireMagic(conn), readWireMagic(conn))
		for i := 0; i < 2 && err == nil; i++ { // hello, snapshot
			if _, _, err = fr.next(); err == nil {
				err = s.sendAck(ackState{OK: true, Version: 1})
			}
		}
		if err == nil {
			err = script(fr, s)
		}
		errc <- err
	}()
	return ln.Addr().String(), errc
}

// dialFake dials one fake worker with a small model.
func dialFake(t *testing.T, addr string) *Client {
	t.Helper()
	names := []string{"benign", "attack"}
	client, err := Dial(ClientConfig{
		Workers:    []string{addr},
		Model:      core.NewCOWModel(tinyModel(t, len(names), 8, 64, 5)),
		Normalizer: zeroNorm(), ClassNames: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestCorruptTelemetryLatchesSessionError pins the failure mode of the
// per-session telemetry stream: a telemetry frame that passes the CRC but
// is not the stream's next gob message ends that worker's session with a
// latched error — the stream cannot resynchronize, so nothing later is
// trusted — and Close still returns.
func TestCorruptTelemetryLatchesSessionError(t *testing.T) {
	addr, workerErr := fakeWorker(t, func(fr *frameReader, s *session) error {
		if err := s.out.control(frameTelemetry, []byte{0xde, 0xad}); err != nil {
			return err
		}
		if _, _, err := fr.next(); err == nil { // the client hangs up
			return io.ErrNoProgress
		}
		return nil
	})
	client := dialFake(t, addr)
	select {
	case <-client.conns[0].done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still running after a corrupt telemetry frame")
	}
	if err := client.Err(); err == nil || !strings.Contains(err.Error(), "decoding telemetry") {
		t.Fatalf("Err() = %v, want the latched telemetry decode error", err)
	}
	client.Feed(netflow.Packet{Time: 1, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), Proto: netflow.UDP})
	client.Tick(2)
	client.Close()
	if err := <-workerErr; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
}

// TestLateAckDoesNotAnswerTheNextPush pins how pushes pair with acks: a
// worker that answers a push only after the client gave up on it, then
// rejects the next push, has the next push report the rejection — not the
// late acceptance, which answers no push any more. The late ack reaches
// the client once before the next push is sent (pushes 1 and 2) and once
// after (pushes 3 and 4).
func TestLateAckDoesNotAnswerTheNextPush(t *testing.T) {
	defer func(d time.Duration) { ackTimeout = d }(ackTimeout)
	ackTimeout = 100 * time.Millisecond
	gaveUp := make(chan struct{})
	addr, workerErr := fakeWorker(t, func(fr *frameReader, s *session) error {
		tel := telemetry.New([]string{"benign", "attack"})
		tel.AddPackets(1)
		next := func() error { _, _, err := fr.next(); return err }
		ack := func(ok bool) func() error {
			return func() error { return s.sendAck(ackState{OK: ok, Version: 1, Msg: "rejected"}) }
		}
		for _, step := range []func() error{
			next, func() error { <-gaveUp; return nil }, ack(true),
			func() error { return s.sendTelemetry(tel) }, // shows when the client has read the late ack
			next, ack(false),
			next, next, ack(true), ack(false),
			next, func() error { return s.out.control(frameBye, nil) },
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	client := dialFake(t, addr) // not closed on failure: the script waits for pushes that never came
	push := func(n int, want string) {
		t.Helper()
		if res, _ := client.PushSnapshotBytes([]byte("snapshot")); res[0].OK || !strings.Contains(res[0].Err, want) {
			t.Fatalf("push %d: %+v, want an error containing %q", n, res[0], want)
		}
	}
	push(1, "timed out")
	close(gaveUp)
	for deadline := time.Now().Add(5 * time.Second); client.WorkerSnapshots()[0].Packets == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the late ack never arrived")
		}
	}
	push(2, "rejected")
	push(3, "timed out")
	push(4, "rejected")
	client.Close()
	if err := <-workerErr; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
}

// countingListener counts the Write calls of every connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.writes}, err
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWorkerWritesOncePerFrame pins the worker's return path: a frame's
// alerts, ack and telemetry leave in one write, so a replay delivering
// many alerts per tick costs far fewer writes than alerts. A worker that
// flushes every alert makes at least one write per alert and per tick.
func TestWorkerWritesOncePerFrame(t *testing.T) {
	m, norm, names := clusterModel(t)
	w, err := NewWorker("127.0.0.1:0", WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var writes, alerts atomic.Int64
	w.ln = countingListener{w.ln, &writes}
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	client, err := Dial(ClientConfig{
		Workers: []string{w.Addr()}, Model: core.NewCOWModel(m), Normalizer: norm,
		ClassNames: names, BatchSize: 8, OnAlert: func(pipeline.Alert) { alerts.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := traffic.Generate(traffic.Config{Sessions: 400, Duration: 10, Seed: 99}).Packets
	if _, err := client.Runner(netflow.NewSliceSource(pkts), 1).Run(context.Background()); err != nil || client.Err() != nil {
		t.Fatalf("run %v, transport %v", err, client.Err())
	}
	t.Logf("%d alerts in %d writes", alerts.Load(), writes.Load())
	if a := alerts.Load(); a == 0 || writes.Load() >= a/4 {
		t.Fatalf("%d writes for %d alerts: want fewer than one per 4 alerts", writes.Load(), a)
	}
}

// TestCloseRacingPushSnapshot: Close racing a snapshot push returns
// promptly, well inside the push's ack timeout; a push that lost the race
// fails and reports the version served before it, one that won reports
// the version its worker acked; and no goroutine of the session outlives
// it on either side.
func TestCloseRacingPushSnapshot(t *testing.T) {
	m, norm, names := clusterModel(t)
	addrs := startWorkers(t, 2, WorkerConfig{})
	base := runtime.NumGoroutine()
	client, err := Dial(ClientConfig{Workers: addrs, Model: core.NewCOWModel(m), Normalizer: norm, ClassNames: names})
	if err != nil {
		t.Fatal(err)
	}
	before := client.WorkerVersions()
	pushed := make(chan []PushResult)
	go func() {
		results, _ := client.PushSnapshot()
		pushed <- results
	}()
	start := time.Now()
	client.Close()
	results := <-pushed
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close and the racing push took %v", d)
	}
	for i, r := range results {
		switch {
		case r.OK && r.Version != before[i]+1:
			t.Errorf("worker %s: accepted push reports version %d, want %d", r.Worker, r.Version, before[i]+1)
		case !r.OK && (r.Err == "" || r.Version != before[i]):
			t.Errorf("worker %s: failed push reports version %d (want %d) with error %q", r.Worker, r.Version, before[i], r.Err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), base)
		}
	}
}
