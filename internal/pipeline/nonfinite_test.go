package pipeline

import (
	"context"
	"math"
	"slices"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
	"cyberhd/internal/quantize"
)

// TestRunnerNonFiniteTimesKeepTheClock: a NaN or +Inf packet time, first
// or mid-capture, neither seeds nor advances the Runner's capture clock.
// The run ticks at exactly the boundaries, and reaches exactly the
// verdicts, of the same capture with that packet's time made finite and in
// order, and every offered packet is processed.
func TestRunnerNonFiniteTimesKeepTheClock(t *testing.T) {
	run := func(pkts []netflow.Packet) ([]float64, Stats) {
		t.Helper()
		log := &tickLog{Engine: newEngine(t, fastCfg(fakeModel{class: 1}))}
		r := &Runner{Stream: log, Source: netflow.NewSliceSource(pkts), TickInterval: 1}
		st, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return log.ticks, st
	}
	base := quietGapCapture()
	for _, c := range []struct {
		name string
		at   int // the odd packet goes in front of base[at]
		time float64
	}{
		{"nan-first", 0, math.NaN()},
		{"nan-mid", 100, math.NaN()},
		{"inf-mid", 100, math.Inf(1)},
	} {
		with := func(time float64) []netflow.Packet {
			return slices.Insert(slices.Clone(base), c.at, tcpPkt(3, 4, 7, 8, time, 0))
		}
		wantTicks, want := run(with(base[c.at].Time))
		gotTicks, got := run(with(c.time))
		if len(wantTicks) < 190 {
			t.Fatalf("%s: finite reference ticked %d times; the capture spans 200 s", c.name, len(wantTicks))
		}
		if !slices.Equal(gotTicks, wantTicks) {
			t.Fatalf("%s: %d ticks (first %v), want %d (first %v)", c.name, len(gotTicks), gotTicks[:min(3, len(gotTicks))], len(wantTicks), wantTicks[:3])
		}
		statsEqual(t, c.name, got, want)
		if got.Packets != len(base)+1 {
			t.Fatalf("%s: processed %d of %d offered packets", c.name, got.Packets, len(base)+1)
		}
	}
}

// TestNaNTimestampClassifiesAtTheTrainingMean: one NaN packet time turns
// a flow's time features into NaN. The normalizer maps them to 0, the
// training mean, so the engine's verdict on that flow — float and W1, per
// flow and micro-batched — is the model's verdict on the same feature
// vector with those entries at 0, not whatever class NaN scores fall to.
func TestNaNTimestampClassifiesAtTheTrainingMean(t *testing.T) {
	cfg, live := buildModel(t)
	key, _ := netflow.KeyOf(&live.Packets[0])
	var pkts []netflow.Packet
	for _, p := range live.Packets {
		if k, _ := netflow.KeyOf(&p); k == key {
			pkts = append(pkts, p)
		}
	}
	if len(pkts) < 3 {
		t.Fatalf("first flow has %d packets, want a few", len(pkts))
	}
	pkts[len(pkts)-1].Time = math.NaN()

	var flows []*netflow.Flow
	asm := netflow.NewAssembler(netflow.CICIdleTimeout, netflow.CICActivityGap, func(f *netflow.Flow) { flows = append(flows, f) })
	for i := range pkts {
		asm.Add(&pkts[i])
	}
	asm.Flush()
	if len(flows) != 1 {
		t.Fatalf("assembled %d flows, want 1", len(flows))
	}
	raw := flows[0].Features()
	got, want := slices.Clone(raw), slices.Clone(raw)
	nans := 0
	for c, v := range raw {
		if v != v {
			nans++
			want[c] = cfg.Normalizer.Mean[c]
		}
	}
	if nans == 0 {
		t.Fatal("a NaN packet time left every feature finite; the test is vacuous")
	}
	cfg.Normalizer.ApplyVec(got)
	cfg.Normalizer.ApplyVec(want)
	for c := range got {
		if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
			t.Fatalf("feature %d normalizes to %v, want %v (NaN maps to the training mean)", c, got[c], want[c])
		}
	}

	m := cfg.Model.(*core.Model)
	w1, err := quantize.FromCore(m, bitpack.W1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		width bitpack.Width
		batch int
		want  int
	}{
		{"float-sync", 0, 0, m.Predict(want)},
		{"float-batch64", 0, 64, m.Predict(want)},
		{"w1-sync", bitpack.W1, 0, w1.Predict(want)},
		{"w1-batch64", bitpack.W1, 64, w1.Predict(want)},
	} {
		run := atWidth(t, cfg, c.width)
		run.BatchSize = c.batch
		st := directDrive(t, run, pkts)
		if st.Flows != 1 || st.ByClass[c.want] != 1 {
			t.Fatalf("%s: verdicts by class %v over %d flows, want the one flow in class %d", c.name, st.ByClass, st.Flows, c.want)
		}
	}
}

// TestEngineNonFiniteTimesKeepTheClock: a NaN or +Inf packet time, fed or
// ticked, does not move the engine's capture clock, so every later
// verdict's latency stays finite and reaches the histogram the gate's p99
// signal reads.
func TestEngineNonFiniteTimesKeepTheClock(t *testing.T) {
	for _, odd := range []float64{math.NaN(), math.Inf(1)} {
		eng := newEngine(t, fastCfg(fakeModel{class: 1}))
		eng.Feed(tcpPkt(9, 9, 9, 9, odd, 0))
		eng.Tick(odd)
		for i := range uint32(50) {
			eng.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, float64(i+1), netflow.SYN))
			eng.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, float64(i+1), netflow.RST))
		}
		eng.Close()
		if s := eng.Telemetry().Snapshot(); s.Flows != 51 || s.Latency.Count != 51 {
			t.Fatalf("after a packet at %v: %d of %d verdicts observed, want 51 of 51", odd, s.Latency.Count, s.Flows)
		}
	}
}

// TestGateNonFiniteTimesKeepTheClock: a NaN or +Inf packet time, fed or
// ticked, moves neither the gate's clock nor the tenant bucket it opens,
// so a tenant offering 2 packets a second under a rate of 10 is admitted
// whole after it.
func TestGateNonFiniteTimesKeepTheClock(t *testing.T) {
	for _, odd := range []float64{math.NaN(), math.Inf(1)} {
		g := NewGate(newEngine(t, fastCfg(fakeModel{})), OverloadPolicy{TenantRate: 10})
		g.Feed(tcpPkt(0x0a000001, 0x0b000001, 999, 80, odd, 0))
		g.Tick(odd)
		for i := range 2000 {
			g.Feed(tcpPkt(0x0a000001, 0x0b000001, uint16(1000+i%50), 80, float64(i+1)/2, 0))
		}
		g.Close()
		if st := g.Stats(); st.Packets != 2001 || st.DroppedTotal() != 0 || g.now != 1000 {
			t.Fatalf("after a packet at %v: %d admitted, %d dropped, clock at %v; want 2001, 0 and 1000",
				odd, st.Packets, st.DroppedTotal(), g.now)
		}
	}
}

// TestRateLimitSinkNonFiniteTimes: an alert time that is NaN or +Inf (a
// flow whose first packet had one) never anchors its class's window, so
// the finite alerts after it roll windows as usual; inside an open window
// it counts against the burst.
func TestRateLimitSinkNonFiniteTimes(t *testing.T) {
	for _, odd := range []float64{math.NaN(), math.Inf(1)} {
		delivered := 0
		sink := NewRateLimitSink(SinkFunc(func(Alert) { delivered++ }), 1, 10)
		sink.Consume(alertFor(1, odd))
		for i := range 9 {
			sink.Consume(alertFor(1, float64(100*(i+1))))
		}
		sink.Consume(alertFor(1, odd)) // inside the window opened at 900
		if delivered != 10 || sink.Suppressed() != 1 {
			t.Fatalf("first alert at %v: %d delivered, %d suppressed; want 10 and 1", odd, delivered, sink.Suppressed())
		}
	}
}
