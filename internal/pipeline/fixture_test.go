package pipeline

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/quantize"
	"cyberhd/internal/traffic"
)

// trained is the detector of the pipeline tests, trained once per test
// binary and kept as snapshot bytes, with the capture they stream.
var trained struct {
	once  sync.Once
	snap  []byte
	norm  *datasets.Normalizer
	names []string
	live  *traffic.Stream
	err   error
}

// buildModel returns an engine config around a private copy of the shared
// detector, decoded from its snapshot — bit-identical to the model
// trained, and a test that changes its copy changes no other test's —
// plus the capture to stream, whose packets are the caller's own.
func buildModel(t testing.TB) (Config, *traffic.Stream) {
	t.Helper()
	trained.once.Do(func() {
		train := datasets.CICIDS2017(1500, 21)
		trainSet, _, norm := train.NormalizedSplit(0.9, 3)
		m, err := core.Train(
			encoder.NewRBF(trainSet.NumFeatures(), 512, 0, 5),
			trainSet.X, trainSet.Y,
			core.Options{Classes: trainSet.NumClasses(), Epochs: 8, RegenCycles: 3, RegenRate: 0.2, LearningRate: 0.1, Seed: 7},
		)
		if err != nil {
			trained.err = err
			return
		}
		var buf bytes.Buffer
		trained.err = core.SaveSnapshot(&buf, core.NewCOWModel(m))
		trained.snap, trained.norm, trained.names = buf.Bytes(), norm, train.ClassNames
		trained.live = traffic.Generate(traffic.Config{Sessions: 400, Seed: 99})
	})
	if trained.err != nil {
		t.Fatal(trained.err)
	}
	m, _, err := core.DecodeSnapshot(bytes.NewReader(trained.snap))
	if err != nil {
		t.Fatal(err)
	}
	live := *trained.live
	live.Packets = slices.Clone(live.Packets)
	return Config{Model: m, Normalizer: trained.norm, ClassNames: trained.names}, &live
}

// atWidth returns cfg serving its *core.Model at width w: the model
// itself at 0, else its quantize.FromCore pack.
func atWidth(t testing.TB, cfg Config, w bitpack.Width) Config {
	t.Helper()
	if w != 0 {
		q, err := quantize.FromCore(cfg.Model.(*core.Model), w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Model = q
	}
	return cfg
}

// cowAt wraps m in a COWModel serving width w: W1 attaches the live
// packing hook (quantize.AttachLive), at version 1 like any other.
func cowAt(m *core.Model, w bitpack.Width) *core.COWModel {
	cow := core.NewCOWModel(m)
	if w == bitpack.W1 {
		quantize.AttachLive(cow)
	}
	return cow
}

// fakeModel is the tests' stand-in classifier. Every verdict is class, or
// with bits set a class derived from the bits of the feature vector, so a
// flow split at the wrong packet changes its verdict, not just its times.
// A verdict first sleeps delay, which turns any feed loop into an
// overload; with release set it signals entered and parks until release
// closes — the deterministic way to wedge a worker so ingress buffers
// fill.
type fakeModel struct {
	class   int
	bits    bool
	delay   time.Duration
	entered chan struct{}
	release chan struct{}
}

func (m fakeModel) Predict(x []float32) int {
	time.Sleep(m.delay)
	if m.release != nil {
		select {
		case m.entered <- struct{}{}:
		default: // drain-time verdicts after release: no listener anymore
		}
		<-m.release
	}
	if !m.bits {
		return m.class
	}
	var h uint32
	for _, v := range x {
		h = h*31 + math.Float32bits(v)
	}
	return int(h>>7) & 1
}

func (m fakeModel) PredictBatchInto(x *hdc.Matrix, out []int) {
	for i := range out {
		out[i] = m.Predict(x.Row(i))
	}
}

// wedgedModel returns a fakeModel that parks every verdict until release.
func wedgedModel() fakeModel {
	return fakeModel{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

// fastCfg assembles a valid engine config around model with no trained
// detector: an identity normalizer over the CIC features and two classes.
func fastCfg(model Classifier) Config {
	norm := &datasets.Normalizer{Mean: make([]float32, netflow.NumFeatures), InvStd: make([]float32, netflow.NumFeatures)}
	for i := range norm.InvStd {
		norm.InvStd[i] = 1
	}
	return Config{Model: model, Normalizer: norm, ClassNames: []string{"benign", "attack"}}
}

// tcpPkt builds one TCP packet at capture time at. With no flags its flow
// ends only on idle eviction or a flush, as a UDP flow's does.
func tcpPkt(src, dst uint32, sport, dport uint16, at float64, flags uint8) netflow.Packet {
	return netflow.Packet{
		Time: at, SrcIP: netflow.AddrV4(src), DstIP: netflow.AddrV4(dst), SrcPort: sport, DstPort: dport,
		Proto: netflow.TCP, Length: 60, HeaderLen: 40, Flags: flags,
	}
}

// quietGapCapture builds a hand-crafted capture: one short flow that
// completes (goes idle) at t≈0.5, followed by a long drumbeat of packets
// from an unrelated flow, one per second out to t=200. The first flow's
// verdict can only surface via idle eviction — nothing ever terminates it.
func quietGapCapture() []netflow.Packet {
	pkts := []netflow.Packet{tcpPkt(1, 2, 9, 53, 0, 0), tcpPkt(2, 1, 53, 9, 0.5, 0)}
	for ts := 1; ts <= 200; ts++ {
		pkts = append(pkts, tcpPkt(7, 8, 1000, 2000, float64(ts), 0))
	}
	return pkts
}

// newEngine builds the synchronous engine of cfg.
func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// gateState reads g's load-shedding state off the OverloadState gauge of
// its telemetry, the way a scrape does.
func gateState(g *Gate) OverloadState {
	return OverloadState(g.Telemetry().Snapshot().OverloadState)
}

// checkStreamKind fails t unless s is what the engine-choice rule builds:
// a Gate exactly when gated, in front of the sync Engine for shards 0 and
// of a Sharded with shards workers otherwise.
func checkStreamKind(t *testing.T, s Stream, gated bool, shards int) {
	t.Helper()
	if g, ok := s.(*Gate); ok != gated {
		t.Fatalf("%T gated = %v, want %v", s, ok, gated)
	} else if ok {
		s = g.inner
	}
	switch e := s.(type) {
	case *Engine:
		if shards != 0 {
			t.Fatalf("got the sync Engine, want %d shards", shards)
		}
	case *Sharded:
		if len(e.shards) != shards {
			t.Fatalf("got %d shards, want %d", len(e.shards), shards)
		}
	default:
		t.Fatalf("unexpected stream type %T", s)
	}
}

// statsEqual asserts two stat snapshots are bit-identical.
func statsEqual(t *testing.T, name string, got, want Stats) {
	t.Helper()
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("%s: packets/flows/alerts %d/%d/%d != %d/%d/%d",
			name, got.Packets, got.Flows, got.Alerts, want.Packets, want.Flows, want.Alerts)
	}
	if !slices.Equal(got.ByClass, want.ByClass) {
		t.Fatalf("%s: ByClass %v != %v", name, got.ByClass, want.ByClass)
	}
}

// directDrive replays packets the way every pre-Runner caller did: a
// hand-rolled feed loop with no ticks into the stream NewStream builds
// from cfg, then a drain.
func directDrive(t *testing.T, cfg Config, packets []netflow.Packet) Stats {
	t.Helper()
	s, err := NewStream(cfg)
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

// tickLog wraps an Engine, recording the capture-clock position of the
// stream — the newest packet or tick — and the boundary time of every
// Tick delivered.
type tickLog struct {
	*Engine
	now   float64
	ticks []float64
}

// Feed advances the clock to the packet's timestamp.
func (l *tickLog) Feed(p netflow.Packet) { l.now = p.Time; l.Engine.Feed(p) }

// Tick records the tick, advances the clock to it and forwards.
func (l *tickLog) Tick(now float64) {
	l.now, l.ticks = now, append(l.ticks, now)
	l.Engine.Tick(now)
}

// runCapture serves packets through the Runner NewRunner builds from cfg
// and returns the runner and the stats its Run returned.
func runCapture(t *testing.T, cfg Config, packets []netflow.Packet) (*Runner, Stats) {
	t.Helper()
	r, err := NewRunner(cfg, netflow.NewSliceSource(packets))
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}
