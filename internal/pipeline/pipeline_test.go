package pipeline

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/netflow"
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

func TestNewValidation(t *testing.T) {
	cfg, _ := buildModel(t)
	bad := cfg
	bad.Model = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil model")
	}
	bad = cfg
	bad.Normalizer = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil normalizer")
	}
	bad = cfg
	bad.ClassNames = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted empty class names")
	}
}

func TestEngineDetectsAttacks(t *testing.T) {
	cfg, live := buildModel(t)
	var alerts []Alert
	cfg.OnAlert = func(a Alert) { alerts = append(alerts, a) }
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
	st := eng.Stats()
	if st.Packets != len(live.Packets) {
		t.Fatalf("packets %d != %d", st.Packets, len(live.Packets))
	}
	if st.Flows == 0 {
		t.Fatal("no flows completed")
	}
	if st.Alerts != len(alerts) {
		t.Fatalf("alert counter %d != callback count %d", st.Alerts, len(alerts))
	}
	// The capture contains ~30% attack sessions; a trained detector must
	// raise a meaningful number of alerts and each must carry a valid
	// class.
	if st.Alerts == 0 {
		t.Fatal("no alerts on attack-laden capture")
	}
	for _, a := range alerts {
		if a.Class <= 0 || a.Class >= len(cfg.ClassNames) {
			t.Fatalf("bad alert class %d", a.Class)
		}
		if a.ClassName != cfg.ClassNames[a.Class] {
			t.Fatalf("class name mismatch: %q", a.ClassName)
		}
		if a.Flow == nil {
			t.Fatal("alert without flow")
		}
	}
	// Precision proxy against ground truth: most alerted flows should be
	// real attacks.
	truePos := 0
	for _, a := range alerts {
		if l, ok := live.Labels[a.Flow.Key]; ok && l != traffic.Benign {
			truePos++
		}
	}
	if frac := float64(truePos) / float64(len(alerts)); frac < 0.7 {
		t.Errorf("alert precision proxy = %.2f, want >= 0.7", frac)
	}
}

func TestEngineStatsByClassSums(t *testing.T) {
	cfg, live := buildModel(t)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
	st := eng.Stats()
	sum := 0
	for _, n := range st.ByClass {
		sum += n
	}
	if sum != st.Flows {
		t.Fatalf("ByClass sums to %d, flows %d", sum, st.Flows)
	}
	if st.ByClass[0]+st.Alerts != st.Flows {
		t.Fatalf("benign %d + alerts %d != flows %d", st.ByClass[0], st.Alerts, st.Flows)
	}
}

func TestTickEvictsIdleFlows(t *testing.T) {
	cfg, _ := buildModel(t)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed(netflow.Packet{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28})
	if eng.Stats().Flows != 0 {
		t.Fatal("flow completed prematurely")
	}
	eng.Tick(200) // past the 120 s idle timeout
	if eng.Stats().Flows != 1 {
		t.Fatal("Tick did not evict idle flow")
	}
}

// staticModel is a Classifier that calls every flow benign.
type staticModel struct{}

func (staticModel) Predict([]float32) int { return 0 }

func TestConcurrentMatchesSynchronous(t *testing.T) {
	cfg, live := buildModel(t)
	conc, err := NewConcurrent(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "concurrent", feedAll(conc, live.Packets), directDrive(t, cfg, live.Packets))
}

// TestBatchModeMatchesSync streams the same capture through a synchronous
// engine and a micro-batched one: the kernel batch path is bit-identical
// to per-flow prediction, so every counter must agree exactly.
func TestBatchModeMatchesSync(t *testing.T) {
	cfg, live := buildModel(t)
	bcfg := cfg
	bcfg.BatchSize = 64
	batched, err := New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched.batch == nil {
		t.Fatal("core.Model did not engage the batch classifier path")
	}
	statsEqual(t, "batch64", feedAll(batched, live.Packets), directDrive(t, cfg, live.Packets))
}

func TestConcurrentCloseIdempotent(t *testing.T) {
	cfg, _ := buildModel(t)
	conc, err := NewConcurrent(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	conc.Close()
	conc.Close() // must not panic
}

// TestBatchModeFlushesOnTick bounds verdict latency: a partial batch must
// classify when Tick fires, not wait for BatchSize flows.
func TestBatchModeFlushesOnTick(t *testing.T) {
	cfg, _ := buildModel(t)
	cfg.BatchSize = 64
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed(netflow.Packet{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28})
	eng.Tick(200)
	st := eng.Stats()
	if st.Flows != 1 {
		t.Fatalf("flow not evicted: %d", st.Flows)
	}
	sum := 0
	for _, n := range st.ByClass {
		sum += n
	}
	if sum != 1 {
		t.Fatalf("verdict still pending after Tick: ByClass sums to %d", sum)
	}
}

// TestBatchModeFallsBackWithoutBatchClassifier keeps plain Classifier
// models working when BatchSize is set.
func TestBatchModeFallsBackWithoutBatchClassifier(t *testing.T) {
	cfg, _ := buildModel(t)
	cfg.Model = staticModel{}
	cfg.BatchSize = 32
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.batch != nil {
		t.Fatal("static model must not engage batch mode")
	}
	eng.Feed(netflow.Packet{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28})
	eng.Flush()
	if eng.Stats().Flows != 1 {
		t.Fatal("fallback engine dropped the flow")
	}
}

// TestOnFlowAllocFree pins the zero-allocation contract of steady-state
// classification, in both synchronous and micro-batch mode.
func TestOnFlowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, live := buildModel(t)
	// Harvest completed flows to replay directly into onFlow.
	var flows []*netflow.Flow
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) { flows = append(flows, f) })
	for i := range live.Packets {
		a.Add(&live.Packets[i])
	}
	a.Flush()
	if len(flows) < 10 {
		t.Fatalf("only %d flows harvested", len(flows))
	}
	for name, batch := range map[string]int{"sync": 0, "batch": 8} {
		cfg := cfg
		cfg.BatchSize = batch
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows { // warm pools and pending buffers
			eng.onFlow(f)
		}
		eng.flushBatch()
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			eng.onFlow(flows[i%len(flows)])
			i++
		})
		eng.flushBatch()
		if allocs != 0 {
			t.Errorf("%s mode: onFlow allocates %.2f objects per flow", name, allocs)
		}
	}
}

// alwaysAttack alerts on every flow.
type alwaysAttack struct{}

func (alwaysAttack) Predict([]float32) int { return 1 }

// TestTickSurvivesOnAlertFeedingBack pins the per-flow path's callback
// contract end to end: OnAlert may Feed packets back while Tick is
// evicting. Here the packet re-uses the 5-tuple of a flow the same tick
// has yet to evict, past its idle timeout, which ends that flow on the
// packet path and starts a successor. Every flow must still be classified
// exactly once and every packet belong to exactly one of them.
func TestTickSurvivesOnAlertFeedingBack(t *testing.T) {
	cfg := fastCfg(alwaysAttack{})
	var eng *Engine
	var alerted []*netflow.Flow
	cfg.OnAlert = func(a Alert) {
		alerted = append(alerted, a.Flow)
		if len(alerted) == 1 {
			eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 200, netflow.ACK))
		}
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed(tcpPkt(0x0a000001, 0x0a000002, 40000, 443, 0, netflow.SYN))
	eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 1, netflow.SYN))
	eng.Tick(200) // past the 120 s idle timeout of both flows
	if st := eng.Stats(); st.Flows != 2 || st.Alerts != 2 {
		t.Fatalf("after Tick: %d flows, %d alerts; want the two idle flows, once each", st.Flows, st.Alerts)
	}
	eng.Close()
	st := eng.Stats()
	if st.Flows != 3 || st.Alerts != 3 || len(alerted) != 3 {
		t.Fatalf("after Close: %d flows, %d alerts, %d callbacks; want 3 each (the successor survived the tick)", st.Flows, st.Alerts, len(alerted))
	}
	pkts := 0
	seen := map[*netflow.Flow]bool{}
	for _, f := range alerted {
		if seen[f] {
			t.Fatalf("flow %v classified twice", f.Key)
		}
		seen[f] = true
		pkts += f.TotalPackets()
	}
	if pkts != st.Packets || pkts != 3 {
		t.Fatalf("flows hold %d packets, engine counted %d, fed 3", pkts, st.Packets)
	}
}
