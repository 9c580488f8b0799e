package pipeline

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyberhd/internal/netflow"
)

// alertView is everything a consumer can read of an alert: the verdict,
// every field of its flow (each byte of the copy a sink gets) and the
// activity record the flow points at.
func alertView(a Alert) string {
	active, idle := a.Flow.Activity()
	return fmt.Sprintf("%d %s %v %+v %+v %+v", a.Class, a.ClassName, a.Time, *a.Flow, active, idle)
}

// shortFlows returns n SYN+RST flows at capture time at: each completes
// on its RST, so every one is a verdict at once when BatchSize <= 1.
func shortFlows(n int, at float64) []netflow.Packet {
	var pkts []netflow.Packet
	for i := range uint32(n) {
		pkts = append(pkts,
			tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, at, netflow.SYN),
			tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, at, netflow.RST))
	}
	return pkts
}

// TestEgressMatchesOnAlert pins the sync engine's sink contract: per flow,
// batched and at full batches, hand-driven and under the Runner, a sink
// sees exactly the alerts OnAlert saw, in the same order, reading the same
// flow fields. The capture alerts on every flow, many runs' worth, so the
// sink goroutine falls behind and runs are reused.
func TestEgressMatchesOnAlert(t *testing.T) {
	_, live := buildModel(t)
	for _, batch := range []int{0, 1, 64} {
		for _, runner := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch%d_runner%v", batch, runner), func(t *testing.T) {
				cfg := fastCfg(fakeModel{class: 1})
				cfg.BatchSize = batch
				var called, sunk []string
				cfg.OnAlert = func(a Alert) { called = append(called, alertView(a)) }
				cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { sunk = append(sunk, alertView(a)) })}
				var st Stats
				if runner {
					_, st = runCapture(t, cfg, live.Packets)
				} else {
					st = feedAll(newEngine(t, cfg), live.Packets)
				}
				if len(called) != st.Alerts || st.Alerts <= egressRuns*egressRun {
					t.Fatalf("%d OnAlert calls for %d alerts, want them equal and over %d", len(called), st.Alerts, egressRuns*egressRun)
				}
				if !slices.Equal(sunk, called) {
					t.Fatalf("the sink's %d alerts differ from OnAlert's %d", len(sunk), len(called))
				}
			})
		}
	}
}

// TestEgressTickDelivers pins the handoff at a tick: a sink receives a
// tick's alerts once Tick returns, with nothing fed after it.
func TestEgressTickDelivers(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	cfg.BatchSize = 64
	got := make(chan Alert, 8)
	cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { got <- a })}
	eng := newEngine(t, cfg)
	defer eng.Close()
	for i := range uint32(3) {
		eng.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, 0, netflow.SYN))
	}
	eng.Tick(netflow.CICIdleTimeout + 1) // evicts the three and drains the batch
	for i := range 3 {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 3 alerts delivered 10 s after the tick", i)
		}
	}
}

// pausedSource delivers pkts, then holds its next read until release
// closes, as a live capture that goes quiet would.
type pausedSource struct {
	pkts    []netflow.Packet
	release chan struct{}
}

// Next delivers the next packet, or waits for release and ends.
func (s *pausedSource) Next(p *netflow.Packet) error {
	if len(s.pkts) == 0 {
		<-s.release
		return io.EOF
	}
	*p, s.pkts = s.pkts[0], s.pkts[1:]
	return nil
}

// TestEgressRunDelivers pins the handoff at the end of a run: under a
// Runner with auto-ticking off, which feeds each packet as it reads it, a
// sink receives an alert while the source is still waiting for its next
// packet, with no tick, no later alert and no Close to push it out.
func TestEgressRunDelivers(t *testing.T) {
	for _, batch := range []int{0, 1} {
		cfg := fastCfg(fakeModel{class: 1})
		cfg.BatchSize = batch
		got := make(chan Alert, 1)
		cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { got <- a })}
		src := &pausedSource{pkts: shortFlows(1, 0), release: make(chan struct{})}
		r, err := NewRunner(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		r.TickInterval = -1
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Run(context.Background())
		}()
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Errorf("batch %d: no alert at the sink 10 s after its flow's RST was fed", batch)
		}
		close(src.release)
		<-done
	}
}

// TestEgressFlushAndCloseWait pins that Flush and Close return only once
// every sink has consumed every alert, behind a sink slow enough that the
// goroutine lags the feeder.
func TestEgressFlushAndCloseWait(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	var consumed atomic.Int64
	cfg.Sinks = []AlertSink{SinkFunc(func(Alert) {
		time.Sleep(20 * time.Microsecond)
		consumed.Add(1)
	})}
	eng := newEngine(t, cfg)
	FeedRun(eng, shortFlows(300, 0))
	eng.Flush()
	if n := consumed.Load(); n != 300 || eng.Stats().Alerts != 300 {
		t.Fatalf("Flush returned with %d of %d alerts consumed", n, eng.Stats().Alerts)
	}
	FeedRun(eng, shortFlows(100, 1))
	eng.Close()
	if n := consumed.Load(); n != 400 || eng.Stats().Alerts != 400 {
		t.Fatalf("Close returned with %d of %d alerts consumed", n, eng.Stats().Alerts)
	}
}

// TestEgressGoroutineLifecycle pins the sink goroutine's life: none for
// an engine whose sinks never get an alert, one from the first handoff
// to Close, and the count back at its baseline after 100 engines.
func TestEgressGoroutineLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := fastCfg(fakeModel{class: 0}) // benign: no alert ever
	cfg.Sinks = []AlertSink{NewJSONLSink(io.Discard)}
	quiet := newEngine(t, cfg)
	FeedRun(quiet, shortFlows(100, 0))
	quiet.Tick(1)
	quiet.Flush()
	if quiet.out.started || quiet.Stats().Flows != 100 {
		t.Fatalf("an engine with no alerts started its sink goroutine (%d flows)", quiet.Stats().Flows)
	}
	quiet.Close()

	cfg.Model = fakeModel{class: 1}
	for range 100 {
		eng := newEngine(t, cfg)
		FeedRun(eng, shortFlows(2, 0)) // its alerts are the first handoff
		if !eng.out.started {
			t.Fatal("the first handoff started no sink goroutine")
		}
		eng.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 100 engines closed, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEgressAllocFree pins that a warm engine with a JSONLSink allocates
// nothing per alert: not the copy, not the handoff, not the line.
func TestEgressAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, batch := range []int{0, 64} {
		cfg := fastCfg(fakeModel{class: 1})
		cfg.BatchSize = batch
		cfg.Sinks = []AlertSink{NewJSONLSink(io.Discard)}
		eng := newEngine(t, cfg)
		// 128 live flows keep the flow free list's cap above a round.
		for i := range uint32(128) {
			eng.Feed(tcpPkt(0x0b000000+i, 0x0c000001, 40000, 443, 0, netflow.SYN))
		}
		pkts := shortFlows(64, 0)
		FeedRun(eng, pkts) // starts the goroutine
		eng.Tick(0)
		now := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			now += 0.001
			for i := range pkts {
				pkts[i].Time = now
			}
			FeedRun(eng, pkts)
			eng.Tick(now)
		})
		eng.Close()
		if allocs != 0 {
			t.Errorf("batch %d: %.2f allocations per 64 alerts", batch, allocs)
		}
	}
}

// failAfter accepts its first ok writes, then fails every write.
type failAfter struct {
	ok, calls int
	lines     []string
}

// Write records the line while ok lasts.
func (w *failAfter) Write(p []byte) (int, error) {
	if w.calls++; w.calls > w.ok {
		return 0, io.ErrShortWrite
	}
	w.lines = append(w.lines, string(p))
	return len(p), nil
}

// TestJSONLSinkFailingWriterUnderEngine pins a failing export behind the
// sink goroutine: the first write error latches and is readable after
// Close, no write is tried after it, and no alert is written or counted
// twice.
func TestJSONLSinkFailingWriterUnderEngine(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	w := &failAfter{ok: 100}
	sink := NewJSONLSink(w)
	cfg.Sinks = []AlertSink{sink}
	eng := newEngine(t, cfg)
	FeedRun(eng, shortFlows(300, 0))
	eng.Close()
	if sink.Err() == nil {
		t.Fatal("write error not latched")
	}
	if st := eng.Stats(); st.Alerts != 300 || w.calls != 101 {
		t.Fatalf("%d alerts counted, %d writes tried; want 300 and 101", st.Alerts, w.calls)
	}
	seen := map[string]bool{}
	for _, l := range w.lines {
		if seen[l] {
			t.Fatalf("line written twice: %s", l)
		}
		seen[l] = true
	}
}

// TestBlockingSinkStallsOnlyWhenFull pins backpressure from a sink that
// blocks: the feeder runs on until every egress run is queued, waits in
// the next alert, and its Close returns once the sink is released, with
// every alert delivered in verdict order.
func TestBlockingSinkStallsOnlyWhenFull(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	var verdicts atomic.Int64
	cfg.OnAlert = func(Alert) { verdicts.Add(1) }
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once, release sync.Once
	defer release.Do(func() { close(unblock) }) // a failed check frees the feeder too
	var srcs []netflow.Addr
	cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) {
		once.Do(func() { close(entered); <-unblock })
		srcs = append(srcs, a.Flow.InitSrcIP)
	})}
	eng := newEngine(t, cfg)
	const total = egressRuns*egressRun + 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		FeedRun(eng, shortFlows(total, 0))
		eng.Close()
	}()
	<-entered
	// The feeder fills every run, then waits for a free one in the alert
	// after: OnAlert runs before the copy, so that alert is counted.
	deadline := time.Now().Add(10 * time.Second)
	for verdicts.Load() < egressRuns*egressRun+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Close returned while the sink was blocked")
	default:
	}
	if n := verdicts.Load(); n != egressRuns*egressRun+1 {
		t.Fatalf("feeder stalled after %d alerts, want %d: every run queued plus the one waiting", n, egressRuns*egressRun+1)
	}
	release.Do(func() { close(unblock) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the sink was released")
	}
	want := make([]netflow.Addr, total)
	for i := range want {
		want[i] = netflow.AddrV4(0x0a000000 + uint32(i))
	}
	if !slices.Equal(srcs, want) {
		t.Fatalf("sink got %d alerts, want all %d in verdict order", len(srcs), total)
	}
}
