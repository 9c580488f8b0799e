package pipeline

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
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

// predictRows is the per-row test models' batch method.
func predictRows(predict func([]float32) int, x *hdc.Matrix, out []int) {
	for i := range out {
		out[i] = predict(x.Row(i))
	}
}

// staticModel is a Classifier that calls every flow benign.
type staticModel struct{}

func (staticModel) Predict([]float32) int { return 0 }

func (staticModel) PredictBatchInto(x *hdc.Matrix, out []int) { clear(out) }

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
type alwaysAttack = constAttackModel

// TestTickSurvivesOnAlertFeedingBack pins the callback contract, per flow
// and batched: while Tick evicts, the first alert's callback feeds a packet
// that ends an expired flow the tick has yet to evict and starts its
// successor, a SYN+RST flow, a tick that evicts the successor, one more
// flow, and a flush. Every flow must alert exactly once, within the outer
// Tick, every packet belong to one of them, and a sink see the alerts in
// verdict order — the order OnAlert saw them.
func TestTickSurvivesOnAlertFeedingBack(t *testing.T) {
	for _, batch := range []int{0, 1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			cfg := fastCfg(alwaysAttack{})
			cfg.BatchSize = batch
			var eng *Engine
			var alerted []*netflow.Flow // in verdict order
			var order []int             // the sink's alerts, as indices into alerted
			cfg.OnAlert = func(a Alert) {
				alerted = append(alerted, a.Flow)
				if len(alerted) == 1 {
					eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 200, netflow.ACK))
					eng.Feed(tcpPkt(0x0a000005, 0x0a000006, 40001, 443, 200, netflow.SYN))
					eng.Feed(tcpPkt(0x0a000005, 0x0a000006, 40001, 443, 200, netflow.RST))
					eng.Tick(400) // past the successor's idle timeout
					eng.Feed(tcpPkt(0x0a000007, 0x0a000008, 40002, 443, 400, netflow.SYN))
					eng.Flush()
				}
			}
			cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { order = append(order, slices.Index(alerted, a.Flow)) })}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng.Feed(tcpPkt(0x0a000001, 0x0a000002, 40000, 443, 0, netflow.SYN))
			eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 1, netflow.SYN))
			eng.Tick(200) // past the 120 s idle timeout of both flows
			n := len(alerted)
			eng.Close()
			if st := eng.Stats(); n != 5 || st.Flows != 5 || st.Alerts != 5 {
				t.Fatalf("%d alerts by the end of Tick, then %d flows and %d alerts after Close; want 5 each", n, st.Flows, st.Alerts)
			}
			if !slices.Equal(order, []int{0, 1, 2, 3, 4}) { // so the 5 flows are distinct
				t.Fatalf("sink saw the verdicts in order %v", order)
			}
			pkts, st := 0, eng.Stats()
			for _, f := range alerted {
				pkts += f.TotalPackets()
			}
			if pkts != st.Packets || pkts != 6 {
				t.Fatalf("flows hold %d packets, engine counted %d, fed 6", pkts, st.Packets)
			}
		})
	}
}
