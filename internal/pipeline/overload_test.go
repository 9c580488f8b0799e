package pipeline

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// TestTryFeedEngineAlwaysAdmits pins the synchronous engine's admission
// contract: no ingress buffer means FeedWithin always succeeds, with or
// without a wait — until Close, after which it observably refuses (unlike
// Feed's silent no-op).
func TestTryFeedEngineAlwaysAdmits(t *testing.T) {
	eng := newEngine(t, fastCfg(fakeModel{}))
	p := tcpPkt(1, 2, 10, 20, 0.1, 0)
	if !eng.FeedWithin(p, 0) {
		t.Fatal("non-blocking FeedWithin refused on an open synchronous engine")
	}
	if !eng.FeedWithin(p, time.Millisecond) {
		t.Fatal("FeedWithin refused on an open synchronous engine")
	}
	eng.Close()
	if eng.FeedWithin(p, 0) {
		t.Fatal("non-blocking FeedWithin admitted after Close")
	}
	if eng.FeedWithin(p, time.Millisecond) {
		t.Fatal("FeedWithin admitted after Close")
	}
	if got := eng.Stats().Packets; got != 2 {
		t.Fatalf("Packets = %d, want 2", got)
	}
}

// fillConcurrent wedges a channel-fed stream: an RST-terminated flow
// blocks the worker inside Predict (termination is only checked from a
// flow's second packet on), then one more packet fills the 1-slot
// buffer. Three packets offered, all admitted.
func fillConcurrent(t *testing.T, s Stream, m fakeModel) {
	t.Helper()
	s.Feed(tcpPkt(1, 2, 10, 20, 0.1, 0))
	s.Feed(tcpPkt(1, 2, 10, 20, 0.2, netflow.RST)) // terminates the flow -> Predict blocks
	select {
	case <-m.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached Predict")
	}
	s.Feed(tcpPkt(1, 2, 11, 21, 0.3, 0)) // parks in the 1-slot buffer
}

// checkFullBuffer pins the bounded-admission semantics of a wedged
// one-shard stream with a 1-packet buffer, built by build: a full buffer
// refuses a non-blocking FeedWithin at once and a waiting one after its
// wait, admission reopens when the worker drains, post-Close both
// variants refuse, and every admitted packet is counted.
func checkFullBuffer(t *testing.T, build func(Config) (*Sharded, error)) {
	m := wedgedModel()
	s, err := build(fastCfg(m))
	if err != nil {
		t.Fatal(err)
	}
	fillConcurrent(t, s, m)
	p := tcpPkt(1, 2, 12, 22, 0.4, 0)
	if s.FeedWithin(p, 0) {
		t.Fatal("non-blocking FeedWithin admitted into a full buffer")
	}
	if s.FeedWithin(p, 2*time.Millisecond) {
		t.Fatal("FeedWithin admitted into a buffer that stayed full")
	}
	close(m.release)
	if !s.FeedWithin(p, 5*time.Second) {
		t.Fatal("FeedWithin refused after the worker drained")
	}
	s.Close()
	if s.FeedWithin(p, 0) || s.FeedWithin(p, time.Millisecond) {
		t.Fatal("admission variants admitted after Close")
	}
	if got := s.Stats().Packets; got != 4 {
		t.Fatalf("Packets = %d, want 4", got)
	}
}

// TestTryFeedConcurrentFullBuffer is checkFullBuffer on the
// background-worker engine.
func TestTryFeedConcurrentFullBuffer(t *testing.T) {
	checkFullBuffer(t, func(cfg Config) (*Sharded, error) { return NewConcurrent(cfg, 1) })
}

// TestTryFeedShardedFullBuffer is the sharded spelling of the same
// contract: the target shard's full buffer refuses.
func TestTryFeedShardedFullBuffer(t *testing.T) {
	checkFullBuffer(t, func(cfg Config) (*Sharded, error) {
		cfg.Shards = 1
		return newSharded(cfg, 1)
	})
}

// TestGateTenantRateDeterministic pins per-tenant fairness on the
// capture clock: a noisy subnet exhausts its token bucket and drops
// exactly its excess, a quiet subnet that has spent its burst is
// admitted exactly as fast as the capture clock refills it —
// deterministically, independent of wall-clock speed.
func TestGateTenantRateDeterministic(t *testing.T) {
	eng := newEngine(t, fastCfg(fakeModel{}))
	g := NewGate(eng, OverloadPolicy{TenantRate: 1})
	// Noisy tenant 10.0.0.0/24: sixteen flows in the same capture instant,
	// burst 8 -> 8 admitted, 8 refused.
	noisySrc, noisyDst := uint32(0x0A000001), uint32(0x0B000001)
	for i := 0; i < 16; i++ {
		g.Feed(tcpPkt(noisySrc, noisyDst, uint16(1000+i), 80, 1.0, 0))
	}
	// Quiet tenant 12.0.0.0/24: eight flows at t=1 empty its bucket, then
	// one flow per capture second lives on the refill alone (+1 token per
	// second); a second flow in the same second finds the bucket empty.
	quietSrc, quietDst := uint32(0x0C000001), uint32(0x0D000001)
	quiet := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3}
	for i, at := range quiet {
		g.Feed(tcpPkt(quietSrc, quietDst, uint16(2000+i), 80, at, 0))
	}
	g.Close()
	st := g.Stats()
	if st.Packets != 18 {
		t.Fatalf("admitted %d packets, want 18 (8 noisy + 8 quiet burst + 2 quiet refill)", st.Packets)
	}
	if st.Dropped[telemetry.DropTenantRate] != 9 {
		t.Fatalf("tenant-rate drops = %d, want 9 (8 noisy + 1 quiet)", st.Dropped[telemetry.DropTenantRate])
	}
	if st.DroppedTotal() != 9 {
		t.Fatalf("DroppedTotal = %d, want 9, every one for tenant rate", st.DroppedTotal())
	}
}

// TestGateShedsNewFlowsUnderLatency walks the state machine end to end:
// a latency spike past the bound sheds exactly the packets that would
// start new flows (mid-flow packets keep flowing), and quiet evaluation
// windows relax the state one step at a time back to normal.
func TestGateShedsNewFlowsUnderLatency(t *testing.T) {
	eng := newEngine(t, fastCfg(fakeModel{}))
	g := NewGate(eng, OverloadPolicy{EvalEvery: 1, LatencyBound: 0.5})
	tel := g.Telemetry()

	// An admitted flow, pre-spike, with no termination flags: the gate
	// remembers it as assembled.
	g.Feed(tcpPkt(1, 2, 10, 20, 1.0, 0))
	if got := gateState(g); got != OverloadNormal {
		t.Fatalf("state = %v before any load, want normal", got)
	}

	// 100 verdicts at ~2s capture latency: p99 lands in the 2.5s bucket,
	// far past the 0.5s bound.
	for i := 0; i < 100; i++ {
		tel.ObserveLatency(2.0)
	}
	newFlow := tcpPkt(3, 4, 30, 40, 1.1, 0)
	if g.FeedWithin(newFlow, 0) {
		t.Fatal("new flow admitted during a latency spike")
	}
	if got := gateState(g); got != OverloadShedding {
		t.Fatalf("state = %v after latency spike, want shedding", got)
	}
	if got := g.Stats().Dropped[telemetry.DropNewFlowShed]; got != 1 {
		t.Fatalf("new-flow sheds = %d, want 1", got)
	}
	// Quiet windows (no new latency observations) step the state down
	// one evaluation at a time — and mid-flow traffic of the known flow
	// was admissible even while still shedding.
	if !g.FeedWithin(tcpPkt(1, 2, 10, 20, 1.2, 0), 0) {
		t.Fatal("known-flow packet refused while recovering")
	}
	if got := gateState(g); got != OverloadPressured {
		t.Fatalf("state = %v after one quiet window, want pressured", got)
	}
	if !g.FeedWithin(newFlow, 0) {
		t.Fatal("new flow refused in pressured state (only shedding refuses)")
	}
	if got := gateState(g); got != OverloadNormal {
		t.Fatalf("state = %v after two quiet windows, want normal", got)
	}
	if got := tel.Snapshot().OverloadStateName(); got != "normal" {
		t.Fatalf("telemetry overload state = %q, want normal", got)
	}
	g.Close()
}

// TestGateBackpressureCounted pins the third drop reason: a wedged
// worker with a full buffer makes the gate's bounded wait expire, and
// the refusal counts as backpressure, the one drop reason counted.
func TestGateBackpressureCounted(t *testing.T) {
	m := wedgedModel()
	c, err := NewConcurrent(fastCfg(m), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(c, OverloadPolicy{MaxWait: time.Millisecond})
	// Set-up goes through the lossless inner stream: fed through the gate,
	// a shard goroutine not scheduled within MaxWait would shed the RST
	// packet and the worker would never reach Predict.
	fillConcurrent(t, c, m)
	g.Feed(tcpPkt(1, 2, 12, 22, 0.4, 0)) // buffer full: waits MaxWait, then drops
	if st := g.Stats(); st.Dropped[telemetry.DropBackpressure] != 1 || st.DroppedTotal() != 1 {
		t.Fatalf("drops by reason = %v, want one backpressure drop", st.Dropped)
	}
	close(m.release)
	g.Close()
	st := g.Stats()
	if st.Packets != 3 {
		t.Fatalf("admitted %d packets, want 3", st.Packets)
	}
	if st.Packets+st.DroppedTotal() != 4 {
		t.Fatalf("accounting: %d admitted + %d dropped != 4 offered", st.Packets, st.DroppedTotal())
	}
}

// refusingStream is a Stream whose ingress never has room: FeedWithin
// counts the call and refuses. Its other ingress methods are the nil
// embedded Stream's — the gate calling one is a panic.
type refusingStream struct {
	Stream
	calls int
}

func (r *refusingStream) FeedWithin(netflow.Packet, time.Duration) bool {
	r.calls++
	return false
}
func (r *refusingStream) Telemetry() *telemetry.Collector { return nil }
func (r *refusingStream) Stats() Stats                    { return Stats{} }

// TestGateDeliversOnce pins the gate's delivery cost: one FeedWithin on
// the wrapped stream per offered packet, whether the gate waits or not —
// a refused packet is not offered a second time — and every refusal
// counted as backpressure.
func TestGateDeliversOnce(t *testing.T) {
	inner := &refusingStream{}
	g := NewGate(inner, OverloadPolicy{MaxWait: time.Millisecond})
	for i := 0; i < 5; i++ {
		g.Feed(tcpPkt(1, 2, uint16(10+i), 20, 0.1, 0))
	}
	if g.FeedWithin(tcpPkt(1, 2, 30, 20, 0.2, 0), 0) || g.FeedWithin(tcpPkt(1, 2, 31, 20, 0.2, 0), time.Millisecond) {
		t.Fatal("gate reported a refused packet as admitted")
	}
	if inner.calls != 7 {
		t.Fatalf("wrapped stream saw %d FeedWithin calls for 7 offered packets", inner.calls)
	}
	st := g.Stats()
	if st.Dropped[telemetry.DropBackpressure] != 7 || st.DroppedTotal() != 7 || st.Packets != 0 {
		t.Fatalf("stats = %+v, want 7 backpressure drops and nothing admitted", st)
	}
}

// TestP99Since pins the histogram-delta percentile the state machine
// runs on.
func TestP99Since(t *testing.T) {
	var prev, cur [telemetry.NumLatencyBuckets]int64
	if p, n := p99Since(&prev, &cur); p != 0 || n != 0 {
		t.Fatalf("empty window: p99 = %v over %d, want 0 over 0", p, n)
	}
	cur[0] = 100 // all observations <= first bound
	if p, n := p99Since(&prev, &cur); p != telemetry.LatencyBuckets[0] || n != 100 {
		t.Fatalf("fast window: p99 = %v over %d, want %v over 100", p, n, telemetry.LatencyBuckets[0])
	}
	prev = cur // only the delta counts
	cur[telemetry.NumLatencyBuckets-1] += 10
	if p, _ := p99Since(&prev, &cur); !math.IsInf(p, 1) {
		t.Fatalf("overflow-bucket window: p99 = %v, want +Inf", p)
	}
	// 98 fast + 2 slow: more than 1% of the window is slow, so the 99th
	// percentile must reach the slow bucket (99 fast + 1 slow would not —
	// 99% of observations already sit under the first bound).
	prev, cur = [telemetry.NumLatencyBuckets]int64{}, [telemetry.NumLatencyBuckets]int64{}
	cur[0], cur[6] = 98, 2
	if p, _ := p99Since(&prev, &cur); p != telemetry.LatencyBuckets[6] {
		t.Fatalf("tail window: p99 = %v, want %v", p, telemetry.LatencyBuckets[6])
	}
}

// TestRunnerInstallsGateOnlyWhenBounded pins the opt-in: the zero
// policy serves the bare engine (bit-identical lossless path), bounded
// mode wraps it in the gate.
func TestRunnerInstallsGateOnlyWhenBounded(t *testing.T) {
	cfg := fastCfg(fakeModel{})
	for _, mode := range []OverloadMode{OverloadLossless, OverloadBounded} {
		cfg.Overload.Mode = mode
		r, err := NewRunner(cfg, netflow.NewSliceSource(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkStreamKind(t, r.Stream, mode == OverloadBounded, 0)
		r.Stream.Close()
	}
}

// TestGatePermissiveBoundedBitIdentical pins determinism under the
// gate: over the synchronous engine (no ingress buffer, sub-bound
// verdict latency, no tenant rate) a bounded policy admits everything,
// so verdicts stay bit-identical to the ungated engine and every drop
// counter reads zero.
func TestGatePermissiveBoundedBitIdentical(t *testing.T) {
	cfg, live := buildModel(t)
	got := feedAll(NewGate(newEngine(t, cfg), OverloadPolicy{}), live.Packets)
	statsEqual(t, "gated", got, directDrive(t, cfg, live.Packets))
	if got.DroppedTotal() != 0 {
		t.Fatalf("permissive gate dropped %d packets", got.DroppedTotal())
	}
}

// TestBoundedSaturationAccounting is the saturation harness: a model
// orders of magnitude slower than the unpaced feed (ingress at memory
// speed vs 200µs per verdict — far beyond 10x capacity), small shard
// buffers, a tight admission wait. The run must terminate promptly
// (bounded admission), shed a meaningful share of the load, and account
// for every single packet: offered = admitted + dropped, across stats
// and telemetry.
func TestBoundedSaturationAccounting(t *testing.T) {
	cfg := fastCfg(fakeModel{delay: 200 * time.Microsecond})
	cfg.Shards = 2
	live := traffic.Generate(traffic.Config{Sessions: 300, Seed: 5})
	offered := len(live.Packets)

	eng, err := newSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Stream: NewGate(eng, OverloadPolicy{MaxWait: 50 * time.Microsecond, EvalEvery: 32}),
		Source: netflow.NewSliceSource(live.Packets),
		// Pure feed pressure, no tick messages in the buffers.
		TickInterval: -1,
	}
	start := time.Now()
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if st.Packets+st.DroppedTotal() != offered {
		t.Fatalf("accounting broken: %d admitted + %d dropped != %d offered",
			st.Packets, st.DroppedTotal(), offered)
	}
	if st.DroppedTotal() == 0 {
		t.Fatal("saturated run shed nothing — the overload never engaged")
	}
	if st.Dropped[telemetry.DropTenantRate] != 0 {
		t.Fatalf("tenant-rate drops = %d with no tenant rate configured",
			st.Dropped[telemetry.DropTenantRate])
	}
	snap := r.Stream.Telemetry().Snapshot()
	if int(snap.DroppedTotal()) != st.DroppedTotal() {
		t.Fatalf("telemetry dropped %d != stats dropped %d", snap.DroppedTotal(), st.DroppedTotal())
	}
	// The latency bound on the run itself: lossless feeding would wait on
	// the slow model for nearly every packet (offered x 200µs); bounded
	// admission must finish in a small fraction of that.
	if lossless := time.Duration(offered) * 200 * time.Microsecond; elapsed > lossless/2 {
		t.Fatalf("bounded run took %v, more than half the lossless floor %v", elapsed, lossless)
	}
}

// TestGateAttributesDropsByTenant pins the per-tenant drop breakdown:
// every shed packet shows up under its tenant's key with the default
// CIDR label, the attributed counts sum to the reason totals, and the
// Prometheus surface exports the bounded-cardinality series.
func TestGateAttributesDropsByTenant(t *testing.T) {
	eng := newEngine(t, fastCfg(fakeModel{}))
	g := NewGate(eng, OverloadPolicy{TenantRate: 1})
	// Two noisy tenants in distinct /24s, offered in the same capture
	// instant: burst 8 admits eight flows each, the rest shed.
	for i := 0; i < 16; i++ {
		g.Feed(tcpPkt(0x0A000001, 0x0B000001, uint16(1000+i), 80, 1.0, 0)) // 10.0.0.0/24
	}
	for i := 0; i < 12; i++ {
		g.Feed(tcpPkt(0x0C000001, 0x0D000001, uint16(2000+i), 80, 1.0, 0)) // 12.0.0.0/24
	}
	g.Close()
	st := g.Telemetry().Snapshot()
	if st.DroppedTotal() != 12 {
		t.Fatalf("DroppedTotal = %d, want 12 (8 + 4)", st.DroppedTotal())
	}
	var attributed int64
	byLabel := map[string]int64{}
	for _, td := range st.DroppedByTenant {
		attributed += td.Dropped
		byLabel[td.Label] = td.Dropped
	}
	if attributed+st.DroppedByTenantOther != st.DroppedTotal() {
		t.Fatalf("attributed %d + other %d != total %d",
			attributed, st.DroppedByTenantOther, st.DroppedTotal())
	}
	if byLabel["10.0.0.0/24"] != 8 {
		t.Fatalf("10.0.0.0/24 drops = %d, want 8 (%v)", byLabel["10.0.0.0/24"], byLabel)
	}
	if byLabel["12.0.0.0/24"] != 4 {
		t.Fatalf("12.0.0.0/24 drops = %d, want 4 (%v)", byLabel["12.0.0.0/24"], byLabel)
	}
	// Most-dropped first.
	if st.DroppedByTenant[0].Label != "10.0.0.0/24" {
		t.Fatalf("top tenant = %q, want the noisiest", st.DroppedByTenant[0].Label)
	}
	var prom strings.Builder
	if err := st.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		telemetry.MetricDroppedByTenant + `{tenant="10.0.0.0/24"} 8`,
		telemetry.MetricDroppedByTenant + `{tenant="12.0.0.0/24"} 4`,
		telemetry.MetricDroppedByTenant + `{tenant="other"} 0`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom.String())
		}
	}
}

// TestTenantDropCardinalityBounded pins the flood defense: a key-churning
// attacker (more distinct tenant keys than the tracking cap) cannot grow
// the map or the exported series without bound — the overflow folds into
// "other" and the snapshot breaks out at most TopTenantDrops tenants.
func TestTenantDropCardinalityBounded(t *testing.T) {
	tel := telemetry.New([]string{"benign"})
	total := telemetry.MaxTenantDropKeys + 500
	for k := 0; k < total; k++ {
		tel.AddDroppedTenant(uint64(k), 1)
	}
	s := tel.Snapshot()
	if len(s.DroppedByTenant) != telemetry.TopTenantDrops {
		t.Fatalf("exported %d tenants, want %d", len(s.DroppedByTenant), telemetry.TopTenantDrops)
	}
	var attributed int64
	for _, td := range s.DroppedByTenant {
		attributed += td.Dropped
	}
	if attributed+s.DroppedByTenantOther != int64(total) {
		t.Fatalf("attributed %d + other %d != %d offered",
			attributed, s.DroppedByTenantOther, total)
	}
}

// telemetrylessStream hides an engine's collector, modeling streams
// (the cluster ingest client, say) that expose no telemetry.
type telemetrylessStream struct{ *Engine }

// Telemetry reports no collector, forcing the gate onto a private one.
func (telemetrylessStream) Telemetry() *telemetry.Collector { return nil }

// TestGatePrivateTelemetryAndV6TenantLabels pins two halves of the gate
// over a telemetry-less stream: drops land on the gate's private
// collector and still fold into Stats/Snapshot (offered = admitted +
// dropped), and tenant drops are labeled in CIDR form for both families,
// read back from the prefix the key carries.
func TestGatePrivateTelemetryAndV6TenantLabels(t *testing.T) {
	eng := newEngine(t, fastCfg(fakeModel{}))
	g := NewGate(telemetrylessStream{eng}, OverloadPolicy{TenantRate: 1})
	v6pkt := func(host byte, port uint16) netflow.Packet {
		p := tcpPkt(0, 0, port, 80, 1.0, 0)
		p.SrcIP, p.DstIP = netflow.MustParseAddr("2001:db8:1:2::0"), netflow.MustParseAddr("2001:db8:9::1")
		p.SrcIP[15] = host
		return p
	}
	// A v6 /48 floods in one capture instant: burst 8 -> 8 admitted, 6
	// refused, all billed to the same /48 tenant.
	for i := 0; i < 14; i++ {
		g.Feed(v6pkt(byte(i+1), uint16(1000+i)))
	}
	// A noisy v4 /24 alongside: 8 admitted, 3 refused — the two families
	// can never share a bucket (v6 keys carry bit 63).
	for i := 0; i < 11; i++ {
		g.Feed(tcpPkt(0x0A000001, 0x0B000001, uint16(2000+i), 80, 1.0, 0))
	}
	g.Close()
	st := g.Stats()
	if st.Packets != 16 {
		t.Fatalf("admitted %d packets, want 16 (8 v6 + 8 v4)", st.Packets)
	}
	if st.Dropped[telemetry.DropTenantRate] != 9 {
		t.Fatalf("tenant-rate drops = %d, want 9", st.Dropped[telemetry.DropTenantRate])
	}
	if got := st.DroppedTotal(); got != 9 {
		t.Fatalf("Stats folded %d drops, want 9", got)
	}
	labels := map[string]int64{}
	for _, td := range g.Telemetry().Snapshot().DroppedByTenant {
		labels[td.Label] = td.Dropped
	}
	if labels["2001:db8:1::/48"] != 6 {
		t.Fatalf("v6 tenant label missing or miscounted: %v", labels)
	}
	if labels["10.0.0.0/24"] != 3 {
		t.Fatalf("v4 tenant label missing or miscounted: %v", labels)
	}
}
