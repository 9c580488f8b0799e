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

// tickLog records the boundary time of every Tick delivered.
type tickLog struct {
	*Engine
	ticks []float64
}

// Tick records and forwards.
func (l *tickLog) Tick(now float64) {
	l.ticks = append(l.ticks, now)
	l.Engine.Tick(now)
}

// TestRunnerNonFiniteTimesKeepTheClock: a NaN or +Inf packet time, first
// or mid-capture, neither seeds nor advances the Runner's capture clock.
// The run ticks at exactly the boundaries, and reaches exactly the
// verdicts, of the same capture with that packet's time made finite and in
// order, and every offered packet is processed.
func TestRunnerNonFiniteTimesKeepTheClock(t *testing.T) {
	run := func(pkts []netflow.Packet) ([]float64, Stats) {
		t.Helper()
		cfg := trivialConfig()
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := &tickLog{Engine: eng}
		r := &Runner{Stream: log, Source: netflow.NewSliceSource(pkts), TickInterval: 1}
		st, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return log.ticks, st
	}
	base := quietGapCapture()
	odd := netflow.Packet{SrcIP: netflow.AddrV4(3), DstIP: netflow.AddrV4(4), SrcPort: 7, DstPort: 8, Proto: netflow.UDP, Length: 60, HeaderLen: 28}
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
			p := odd
			p.Time = time
			return slices.Insert(slices.Clone(base), c.at, p)
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
		run := cfg
		run.Quantize, run.BatchSize = c.width, c.batch
		st := directDrive(t, run, pkts)
		if st.Flows != 1 || st.ByClass[c.want] != 1 {
			t.Fatalf("%s: verdicts by class %v over %d flows, want the one flow in class %d", c.name, st.ByClass, st.Flows, c.want)
		}
	}
}
