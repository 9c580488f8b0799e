package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/datasets"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
)

// statsEqual asserts two stat snapshots are bit-identical.
func statsEqual(t *testing.T, name string, got, want Stats) {
	t.Helper()
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("%s: packets/flows/alerts %d/%d/%d != %d/%d/%d",
			name, got.Packets, got.Flows, got.Alerts, want.Packets, want.Flows, want.Alerts)
	}
	if len(got.ByClass) != len(want.ByClass) {
		t.Fatalf("%s: ByClass len %d != %d", name, len(got.ByClass), len(want.ByClass))
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("%s: ByClass[%d] = %d != %d", name, c, got.ByClass[c], want.ByClass[c])
		}
	}
}

// directDrive replays packets the way every pre-Runner caller did: a
// hand-rolled feed loop with no ticks, then a drain.
func directDrive(t *testing.T, cfg Config, packets []netflow.Packet) Stats {
	t.Helper()
	var s Stream
	var err error
	if cfg.Shards > 1 {
		s, err = NewSharded(cfg)
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return feedAll(s, packets)
}

// feedAll hand-feeds packets into s, drains it and returns its Stats.
func feedAll(s Stream, packets []netflow.Packet) Stats {
	for i := range packets {
		s.Feed(packets[i])
	}
	s.Close()
	return s.Stats()
}

// TestRunnerMatchesDirectDrive pins the acceptance contract of the
// serving runtime: Runner-driven verdicts — auto-ticks included — are
// bit-identical to a hand-rolled feed loop, for the float synchronous
// engine, the micro-batched engine, quantized serving at 1 and 8 bits,
// and the flow-sharded engine. Auto-ticks only move idle evictions
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
		{"quant-w1-batch64", func(c *Config) { c.Quantize, c.BatchSize = bitpack.W1, 64 }},
		{"quant-w8", func(c *Config) { c.Quantize = bitpack.W8 }},
		{"sharded4-batch64", func(c *Config) { c.Shards, c.BatchSize = 4, 64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			r, err := NewRunner(cfg, netflow.NewSliceSource(live.Packets))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
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

// constAttackModel classifies every flow as class 1, through both the
// per-sample and the micro-batch interface, so every completed flow
// raises an alert at a deterministic point in the feed order.
type constAttackModel struct{}

func (constAttackModel) Predict([]float32) int { return 1 }

func (constAttackModel) PredictBatchInto(x *hdc.Matrix, out []int) {
	for i := range out {
		out[i] = 1
	}
}

// tickProbe wraps an Engine recording the capture-clock position of the
// stream so a sink can timestamp deliveries in capture time.
type tickProbe struct {
	*Engine
	now float64
}

// Feed advances the probe clock to the packet's timestamp.
func (p *tickProbe) Feed(pkt netflow.Packet) { p.now = pkt.Time; p.Engine.Feed(pkt) }

// Tick advances the probe clock to the tick boundary.
func (p *tickProbe) Tick(t float64) { p.now = t; p.Engine.Tick(t) }

// quietGapCapture builds a hand-crafted capture: one short UDP flow that
// completes (goes idle) at t≈0.5, followed by a long drumbeat of packets
// from an unrelated flow, one per second out to t=200. The first flow's
// verdict can only surface via idle eviction — nothing ever terminates it.
func quietGapCapture() []netflow.Packet {
	pkts := []netflow.Packet{
		{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28},
		{Time: 0.5, SrcIP: netflow.AddrV4(2), DstIP: netflow.AddrV4(1), SrcPort: 53, DstPort: 9, Proto: netflow.UDP, Length: 200, HeaderLen: 28},
	}
	for ts := 1; ts <= 200; ts++ {
		pkts = append(pkts, netflow.Packet{
			Time: float64(ts), SrcIP: netflow.AddrV4(7), DstIP: netflow.AddrV4(8), SrcPort: 1000, DstPort: 2000,
			Proto: netflow.UDP, Length: 100, HeaderLen: 28,
		})
	}
	return pkts
}

// trivialConfig builds an engine config around constAttackModel: no
// training, deterministic verdicts, CIC-shaped normalizer.
func trivialConfig() Config {
	norm := &datasets.Normalizer{
		Mean:   make([]float32, netflow.NumFeatures),
		InvStd: make([]float32, netflow.NumFeatures),
	}
	for i := range norm.InvStd {
		norm.InvStd[i] = 1
	}
	return Config{
		Model:      constAttackModel{},
		Normalizer: norm,
		ClassNames: []string{"benign", "attack"},
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

	run := func(tickInterval float64) (firstAlertAt float64, alerts int) {
		cfg := trivialConfig()
		cfg.BatchSize = 64 // far larger than the 2 flows in the capture
		firstAlertAt = -1
		probe := &tickProbe{} // the sink timestamps deliveries off its clock
		cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) {
			alerts++
			if firstAlertAt < 0 {
				firstAlertAt = probe.now
			}
		})}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe.Engine = eng
		r := &Runner{Stream: probe, Source: netflow.NewSliceSource(pkts), TickInterval: tickInterval}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return firstAlertAt, alerts
	}

	// Auto-tick at 1 s: flow A's verdict lands at the first tick boundary
	// past its idle deadline — within one interval of 120.5s — not at the
	// end of the 200 s capture.
	gotAt, alerts := run(1)
	if alerts != 2 { // flow A plus the drumbeat flow at drain
		t.Fatalf("expected 2 alerts, got %d", alerts)
	}
	if gotAt < 0 || gotAt > idle+0.5+1 {
		t.Fatalf("auto-ticked verdict at capture time %.2f, want <= %.2f", gotAt, idle+0.5+1)
	}

	// Ticking disabled: the verdict waits for the end-of-capture drain,
	// where the probe clock has already reached the last packet.
	gotAt, alerts = run(-1)
	if alerts != 2 {
		t.Fatalf("expected 2 alerts, got %d", alerts)
	}
	if gotAt < 200 {
		t.Fatalf("with ticking disabled the verdict surfaced at %.2f, expected only at drain (>= 200)", gotAt)
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
	*p = netflow.Packet{Time: float64(3 - f.n), SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28}
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
	cfg := trivialConfig()
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
	cfg := trivialConfig()
	src := func() netflow.PacketSource { return netflow.NewSliceSource(nil) }

	for _, n := range []int{0, 1} {
		cfg.Shards = n
		r, err := NewRunner(cfg, src())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Stream.(*Engine); !ok {
			t.Fatalf("Shards=%d built %T, want *Engine", n, r.Stream)
		}
	}

	cfg.Shards = 4
	r, err := NewRunner(cfg, src())
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := r.Stream.(*Sharded)
	if !ok {
		t.Fatalf("Shards=4 built %T, want *Sharded", r.Stream)
	}
	if sh.NumShards() != 4 {
		t.Fatalf("built %d shards, want 4", sh.NumShards())
	}
	sh.Close()
}

// TestRunnerTickCollapsesQuietGaps pins that a long silent stretch costs
// one tick, not one per elapsed interval boundary: the tick carries the
// newest boundary time, so eviction behaves identically.
func TestRunnerTickCollapsesQuietGaps(t *testing.T) {
	pkts := []netflow.Packet{
		{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28},
		// 10,000 capture-seconds of silence.
		{Time: 10_000, SrcIP: netflow.AddrV4(7), DstIP: netflow.AddrV4(8), SrcPort: 1000, DstPort: 2000, Proto: netflow.UDP, Length: 80, HeaderLen: 28},
		{Time: 10_000.5, SrcIP: netflow.AddrV4(7), DstIP: netflow.AddrV4(8), SrcPort: 1000, DstPort: 2000, Proto: netflow.UDP, Length: 80, HeaderLen: 28},
	}
	cfg := trivialConfig()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &tickCounter{Engine: eng}
	r := &Runner{Stream: probe, Source: netflow.NewSliceSource(pkts), TickInterval: 1}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if probe.ticks != 1 {
		t.Fatalf("quiet gap cost %d ticks, want 1", probe.ticks)
	}
	if probe.lastTick != 10_000 {
		t.Fatalf("collapsed tick at %v, want the newest boundary 10000", probe.lastTick)
	}
	if st.Flows != 2 { // the t=0 flow evicted by the tick, the other at drain
		t.Fatalf("flows = %d, want 2", st.Flows)
	}
}

// tickCounter counts Tick deliveries.
type tickCounter struct {
	*Engine
	ticks    int
	lastTick float64
}

// Tick counts and forwards.
func (c *tickCounter) Tick(now float64) {
	c.ticks++
	c.lastTick = now
	c.Engine.Tick(now)
}
