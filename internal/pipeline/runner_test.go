package pipeline

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/netflow"
)

// TestRunnerMatchesDirectDrive pins the acceptance contract of the
// serving runtime: Runner-driven verdicts — auto-ticks included — are
// bit-identical to a hand-rolled feed loop, for the float synchronous
// engine, the micro-batched engine, W1 serving, and the flow-sharded
// engine. Auto-ticks only move idle evictions
// earlier in the feed order; they never change which flows exist or how
// they featurize.
func TestRunnerMatchesDirectDrive(t *testing.T) {
	base, live := buildModel(t)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"float-sync", func(c *Config) {}},
		{"float-batch64", func(c *Config) { c.BatchSize = 64 }},
		{"quant-w1-batch64", func(c *Config) { *c = atWidth(t, *c, bitpack.W1); c.BatchSize = 64 }},
		{"sharded4-batch64", func(c *Config) { c.Shards, c.BatchSize = 4, 64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, got := runCapture(t, cfg, live.Packets)
			statsEqual(t, tc.name, got, directDrive(t, cfg, live.Packets))
			if got.Flows == 0 || got.Alerts == 0 {
				t.Fatalf("degenerate capture (flows=%d alerts=%d)", got.Flows, got.Alerts)
			}
		})
	}
}

// TestRunnerConcurrentStream drives the Concurrent wrapper through the
// Runner — the Stream contract makes the worker-backed engine a drop-in.
func TestRunnerConcurrentStream(t *testing.T) {
	cfg, live := buildModel(t)
	conc, err := NewConcurrent(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{Stream: conc, Source: netflow.NewSliceSource(live.Packets)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "concurrent", got, directDrive(t, cfg, live.Packets))
}

// cancelAfterSource cancels a context once n packets have been delivered,
// then keeps delivering — the runner must stop on its own.
type cancelAfterSource struct {
	src    netflow.PacketSource
	n      int
	sent   int
	cancel context.CancelFunc
}

// Next delegates and fires the cancel after the n-th delivery.
func (c *cancelAfterSource) Next(p *netflow.Packet) error {
	err := c.src.Next(p)
	if err == nil {
		c.sent++
		if c.sent == c.n {
			c.cancel()
		}
	}
	return err
}

// TestRunnerCancelDrainsDeterministically cancels mid-capture and pins
// that the drain is exact: the runner feeds precisely the packets
// delivered before the cancel took effect, closes, and returns stats
// bit-identical to direct-driving that same prefix.
func TestRunnerCancelDrainsDeterministically(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.BatchSize = 64
	const n = 5000
	if len(live.Packets) <= n+1000 {
		t.Fatalf("capture too small: %d packets", len(live.Packets))
	}
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelAfterSource{src: netflow.NewSliceSource(live.Packets), n: n, cancel: cancel}
	r, err := NewRunner(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// The cancel fires inside the n-th Next; the runner feeds that packet
	// and stops at the next loop iteration — exactly n packets.
	if got.Packets != n {
		t.Fatalf("fed %d packets after cancel at %d", got.Packets, n)
	}
	want := directDrive(t, cfg, live.Packets[:n])
	statsEqual(t, "cancelled", got, want)

	// A runner is single-use.
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same runner accepted")
	}
}

// TestRunnerAutoTickBoundsVerdictDelay pins the latency contract: with
// auto-ticking, a flow that completes (goes idle) mid-capture classifies
// within the idle timeout + one tick interval of capture time even though it
// sits in a partially-filled micro-batch and its own packets never
// terminate it; without auto-ticking it would wait for the end-of-capture
// drain. Today nothing else ticks — the runner is what bounds the delay.
func TestRunnerAutoTickBoundsVerdictDelay(t *testing.T) {
	pkts := quietGapCapture()
	const idle = netflow.CICIdleTimeout // flow A evictable at 0.5+120 = 120.5s capture time

	run := func(tickInterval float64) (firstAlertAt float64, alerts, longest int) {
		cfg := fastCfg(fakeModel{class: 1})
		cfg.BatchSize = 64 // far larger than the 2 flows in the capture
		firstAlertAt = -1
		probe := &tickLog{} // the sink timestamps deliveries off its clock
		cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) {
			alerts++
			if firstAlertAt < 0 {
				firstAlertAt = probe.now
			}
		})}
		probe.Stream = newEngine(t, cfg)
		r := &Runner{Stream: probe, Source: netflow.NewSliceSource(pkts), TickInterval: tickInterval}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return firstAlertAt, alerts, probe.longest
	}

	// Auto-tick at 1 s: flow A's verdict lands at the first tick boundary
	// past its idle deadline — within one interval of 120.5s — not at the
	// end of the 200 s capture.
	gotAt, alerts, _ := run(1)
	if alerts != 2 { // flow A plus the drumbeat flow at drain
		t.Fatalf("expected 2 alerts, got %d", alerts)
	}
	if gotAt < 0 || gotAt > idle+0.5+1 {
		t.Fatalf("auto-ticked verdict at capture time %.2f, want <= %.2f", gotAt, idle+0.5+1)
	}

	// Ticking disabled: the verdict waits for the end-of-capture drain,
	// where the probe clock has already reached the last packet. No tick
	// bounds a run then, so the Runner feeds packet by packet.
	gotAt, alerts, longest := run(-1)
	if alerts != 2 || longest != 1 {
		t.Fatalf("expected 2 alerts in runs of 1, got %d in runs of up to %d", alerts, longest)
	}
	if gotAt < 200 {
		t.Fatalf("with ticking disabled the verdict surfaced at %.2f, expected only at drain (>= 200)", gotAt)
	}
}

// TestRunnerNoReplyVerdictDelay pins the per-state timeout end to end:
// with auto-ticking, a SYN-only probe that gets no answer alerts within
// netflow.NoReplyTimeout + one tick interval of its last packet, while a
// flow that got a reply still waits for CICIdleTimeout. The rule is per
// flow, so the flow-sharded engine delivers the same verdicts.
func TestRunnerNoReplyVerdictDelay(t *testing.T) {
	// Flow R (port 9) is answered at 0.5 s; eight probes (ports 100–107)
	// send a SYN and a retransmit 3 s later, inside the no-reply
	// timeout, so each is one flow; a drumbeat keeps the clock moving.
	pkts := []netflow.Packet{tcpPkt(1, 2, 9, 53, 0, 0), tcpPkt(2, 1, 53, 9, 0.5, 0)}
	lastProbe := map[uint16]float64{}
	for i := range uint16(8) {
		at := 0.6 + 0.1*float64(i)
		pkts = append(pkts, tcpPkt(10+uint32(i), 4, 100+i, 22, at, netflow.SYN))
		lastProbe[100+i] = at + 3
	}
	for i := range uint16(8) {
		pkts = append(pkts, tcpPkt(10+uint32(i), 4, 100+i, 22, lastProbe[100+i], netflow.SYN))
	}
	for ts := 5; ts <= 200; ts++ {
		pkts = append(pkts, tcpPkt(7, 8, 1000, 2000, float64(ts), 0))
	}
	slices.SortStableFunc(pkts, func(x, y netflow.Packet) int { return cmp.Compare(x.Time, y.Time) })

	type verdict struct {
		key           netflow.FlowKey
		first, last   float64
		fwd, bwd      int
		class         int
		at            float64 // capture time of delivery, sync engine only
		initiatorPort uint16
	}
	cfg := fastCfg(fakeModel{class: 1})
	cfg.BatchSize = 64
	var got []verdict
	record := func(now func() float64) AlertSink {
		return SinkFunc(func(a Alert) {
			f := a.Flow
			got = append(got, verdict{f.Key, f.FirstTime, f.LastTime, f.FwdLen.N, f.BwdLen.N, a.Class, now(), f.InitSrcPort})
		})
	}

	probe := &tickLog{}
	cfg.Sinks = []AlertSink{record(func() float64 { return probe.now })}
	probe.Stream = newEngine(t, cfg)
	if _, err := (&Runner{Stream: probe, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	syncVerdicts := got
	if len(syncVerdicts) != 10 {
		t.Fatalf("%d alerts, want 10: the replied flow, eight probes and the drumbeat", len(syncVerdicts))
	}
	for _, v := range syncVerdicts {
		switch port := v.initiatorPort; {
		case port == 9:
			if v.bwd != 1 || v.at <= 0.5+netflow.CICIdleTimeout || v.at > 0.5+netflow.CICIdleTimeout+1 {
				t.Errorf("replied flow alerted at %.2f with %d backward packets, want one and within (%.1f, %.1f]",
					v.at, v.bwd, 0.5+netflow.CICIdleTimeout, 0.5+netflow.CICIdleTimeout+1)
			}
		case port >= 100 && port < 108:
			last := lastProbe[port]
			if v.fwd != 2 || v.at <= last+netflow.NoReplyTimeout || v.at > last+netflow.NoReplyTimeout+1 {
				t.Errorf("probe %d (last packet %.1f, %d packets) alerted at %.2f, want its 2 packets within (%.1f, %.1f]",
					port, last, v.fwd, v.at, last+netflow.NoReplyTimeout, last+netflow.NoReplyTimeout+1)
			}
		case port == 1000:
			if v.at < 200 {
				t.Errorf("drumbeat alerted at %.2f, want at the drain", v.at)
			}
		default:
			t.Errorf("unexpected alert for %v", v.key)
		}
	}

	canon := func(vs []verdict) []verdict {
		vs = slices.Clone(vs)
		for i := range vs {
			vs[i].at = 0
		}
		slices.SortFunc(vs, func(x, y verdict) int { return cmp.Compare(x.initiatorPort, y.initiatorPort) })
		return vs
	}
	got = nil
	cfg.Shards = 4
	cfg.Sinks = []AlertSink{record(func() float64 { return 0 })}
	runCapture(t, cfg, pkts)
	if want, sharded := canon(syncVerdicts), canon(got); !slices.Equal(sharded, want) {
		t.Fatalf("Sharded(4) verdicts differ from the sync engine's:\n got  %v\n want %v", sharded, want)
	}
}

// failingSource errors after a few packets.
type failingSource struct{ n int }

// Next yields synthetic packets then fails.
func (f *failingSource) Next(p *netflow.Packet) error {
	if f.n <= 0 {
		return fmt.Errorf("wire fell out")
	}
	f.n--
	*p = tcpPkt(1, 2, 9, 53, float64(3-f.n), 0)
	return nil
}

// TestRunnerSourceErrorDrains pins that a failing source still drains the
// stream and surfaces the source's error: the packets it yielded before
// failing classify exactly as a direct drive of them does. One source
// fails outright; the other is a PCAP cut off mid-record, whose reader
// reports an unexpected EOF after the last whole frame.
func TestRunnerSourceErrorDrains(t *testing.T) {
	cfg, live := buildModel(t)
	var pcap bytes.Buffer
	if err := netflow.WritePCAP(&pcap, live.Packets); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		open    func() netflow.PacketSource
		wantErr error // nil: any error but io.EOF
	}{
		{"failing", func() netflow.PacketSource { return &failingSource{n: 3} }, nil},
		{"truncated-pcap", func() netflow.PacketSource {
			s, err := netflow.NewPCAPSource(bytes.NewReader(pcap.Bytes()[:pcap.Len()/2]))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, io.ErrUnexpectedEOF},
	} {
		var prefix []netflow.Packet
		src, p := c.open(), netflow.Packet{}
		for src.Next(&p) == nil {
			prefix = append(prefix, p)
		}
		if len(prefix) == 0 || len(prefix) >= len(live.Packets) {
			t.Fatalf("%s: the source yields %d packets before failing", c.name, len(prefix))
		}
		r, err := NewRunner(cfg, c.open())
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run(context.Background())
		if err == nil || errors.Is(err, io.EOF) || c.wantErr != nil && !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: Run error = %v, want the source failure", c.name, err)
		}
		statsEqual(t, c.name, st, directDrive(t, cfg, prefix))
	}
}

// TestRunnerNilValidation covers the constructor and Run guards.
func TestRunnerNilValidation(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	bad := cfg
	bad.Model = nil
	if _, err := NewRunner(bad, netflow.NewSliceSource(nil)); err == nil {
		t.Fatal("invalid config accepted")
	}
	r := &Runner{}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("empty runner ran")
	}
}

// TestNewRunnerEngineSelection pins the shard-count contract: sharding
// is explicit — only Shards > 1 builds the Sharded engine; 0 and 1 both
// serve the deterministic synchronous Engine (per-core sharding is
// resolved by the caller, as `cyberhd detect -shards 0` does).
func TestNewRunnerEngineSelection(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	for shards, want := range map[int]int{0: 0, 1: 0, 4: 4} {
		cfg.Shards = shards
		r, err := NewRunner(cfg, netflow.NewSliceSource(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkStreamKind(t, r.Stream, false, want)
		r.Stream.Close()
	}
}

// TestRunnerTickCollapsesQuietGaps pins that a long silent stretch costs
// one tick, not one per elapsed interval boundary: the tick carries the
// newest boundary time, so eviction behaves identically.
func TestRunnerTickCollapsesQuietGaps(t *testing.T) {
	pkts := []netflow.Packet{
		tcpPkt(1, 2, 9, 53, 0, 0),
		// 10,000 capture-seconds of silence.
		tcpPkt(7, 8, 1000, 2000, 10_000, 0),
		tcpPkt(7, 8, 1000, 2000, 10_000.5, 0),
	}
	probe := &tickLog{Stream: newEngine(t, fastCfg(fakeModel{class: 1}))}
	r := &Runner{Stream: probe, Source: netflow.NewSliceSource(pkts), TickInterval: 1}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.ticks) != 1 || probe.ticks[0] != 10_000 {
		t.Fatalf("quiet gap cost ticks %v, want one at the newest boundary 10000", probe.ticks)
	}
	if st.Flows != 2 { // the t=0 flow evicted by the tick, the other at drain
		t.Fatalf("flows = %d, want 2", st.Flows)
	}
}
