// Kernel and engine micro-benchmarks: the blocked kernels against their
// row-at-a-time references, and the serving engines (single, sharded,
// quantized, runner-driven) over one cached capture — what CI smoke-runs
// for one iteration each, plus the telemetry-overhead pin. The paper's
// tables and figures are regenerated by cmd/experiments, and the
// benchmark of record is bench/ (see BENCHMARK.json).
package cyberhd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/experiments"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/rng"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// benchSamples sizes the cached dataset split the kernel benchmarks
// train their model on.
const benchSamples = 2500

var (
	benchMu     sync.Mutex
	benchSplits = map[string][2]*datasets.Dataset{}
)

// benchSplit caches normalized splits across benchmarks.
func benchSplit(b *testing.B, name string) (train, test *datasets.Dataset) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchSplits[name]; ok {
		return s[0], s[1]
	}
	tr, te, err := experiments.LoadSplit(name, experiments.Config{Samples: benchSamples, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	benchSplits[name] = [2]*datasets.Dataset{tr, te}
	return tr, te
}

// ------------------------------------------------ Kernel layer (PR 1)
//
// The benchmarks below compare the blocked kernel layer against the
// seed's row-at-a-time kernels, kept here as explicit naive references:
// RBF encoding was one float64 hdc.Dot plus math.Cos per output dimension
// and prediction recomputed every class norm per call (naiveArgmaxCosine).

// naiveRBFEncode is the seed's RBF.Encode.
func naiveRBFEncode(base *hdc.Matrix, bias []float32, x, dst []float32) {
	for d := 0; d < base.Rows; d++ {
		dst[d] = float32(math.Cos(hdc.Dot(base.Row(d), x) + float64(bias[d])))
	}
}

// naiveArgmaxCosine is the seed's prediction: float64 cosine against
// every class row, both norms recomputed per call.
func naiveArgmaxCosine(class *hdc.Matrix, q []float32) int {
	best, sim := 0, math.Inf(-1)
	for r := 0; r < class.Rows; r++ {
		if s := hdc.Cosine(class.Row(r), q); s > sim {
			best, sim = r, s
		}
	}
	return best
}

// benchEncShape builds matching shapes for the naive and blocked paths:
// a 512-dim RBF over the 78 CIC flow features.
func benchEncShape(samples int) (base *hdc.Matrix, bias []float32, x *hdc.Matrix, enc *encoder.RBF) {
	const inDim, dim = netflow.NumFeatures, 512
	r := rng.New(11)
	base = hdc.NewMatrix(dim, inDim)
	r.FillNorm(base.Data, 0, 1/math.Sqrt(inDim))
	bias = make([]float32, dim)
	r.FillUniform(bias, 0, 2*math.Pi)
	x = hdc.NewMatrix(samples, inDim)
	r.FillNorm(x.Data, 0, 1)
	enc = encoder.NewRBF(inDim, dim, 0, 12)
	return
}

// BenchmarkEncodeBatch measures batch RBF encoding (256 flows × 78
// features → 512 dims): the seed's per-row matvec loop against the
// blocked panel GEMM with fused cosine.
func BenchmarkEncodeBatch(b *testing.B) {
	base, bias, x, enc := benchEncShape(256)
	out := hdc.NewMatrix(x.Rows, enc.Dim())
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < x.Rows; s++ {
				naiveRBFEncode(base, bias, x.Row(s), out.Row(s))
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encoder.EncodeBatchInto(enc, x, out)
		}
	})
}

var benchSink int

// BenchmarkPredict measures repeated single-sample prediction on
// identical shapes (78 features, 512 dims, 5 classes): the seed path
// (fresh encode buffer, float64 row-at-a-time encode, per-call class
// norms) against the pooled kernel path.
func BenchmarkPredict(b *testing.B) {
	base, bias, x, enc := benchEncShape(1)
	class := hdc.NewMatrix(5, base.Rows)
	rng.New(13).FillNorm(class.Data, 0, 1)
	q := x.Row(0)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := make([]float32, base.Rows)
			naiveRBFEncode(base, bias, q, h)
			benchSink = naiveArgmaxCosine(class, h)
		}
	})
	m := &core.Model{Enc: enc, Class: class}
	m.Predict(q)
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = m.Predict(q)
		}
	})
}

// BenchmarkPredictEncoded isolates scoring: per-call norm recomputation
// (naiveArgmaxCosine) against the Scorer's cached norms + kernel dots.
func BenchmarkPredictEncoded(b *testing.B) {
	train, test := benchSplit(b, "nsl-kdd")
	m, err := experiments.TrainBaselineHD(train, experiments.PhysDim, 4)
	if err != nil {
		b.Fatal(err)
	}
	q := test.X.Row(0)
	h := make([]float32, m.Dim())
	m.Enc.Encode(q, h)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = naiveArgmaxCosine(m.Class, h)
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = m.PredictEncoded(h)
		}
	})
}

// benchStream caches the engine benchmarks' shape (512-dim model over
// CICIDS2017 flows, 400-session live capture) so the sharded sweep does
// not retrain the model per measurement. The model is only ever read by
// the engine benchmarks, so sharing it across engines is safe.
var benchStream struct {
	once sync.Once
	cfg  pipeline.Config
	live *traffic.Stream
	err  error
}

// benchStreamShape returns the shared engine config (zero BatchSize; copy
// and adjust) and capture.
func benchStreamShape(b *testing.B) (pipeline.Config, *traffic.Stream) {
	b.Helper()
	benchStream.once.Do(func() {
		train := datasets.CICIDS2017(1500, 21)
		trainSet, _, norm := train.NormalizedSplit(0.9, 3)
		m, err := core.Train(
			NewRBFEncoder(trainSet.NumFeatures(), 512, 0, 5),
			trainSet.X, trainSet.Y,
			core.Options{Classes: trainSet.NumClasses(), Epochs: 4, Seed: 7},
		)
		if err != nil {
			benchStream.err = err
			return
		}
		benchStream.cfg = pipeline.Config{Model: m, Normalizer: norm, ClassNames: train.ClassNames}
		benchStream.live = traffic.Generate(traffic.Config{Sessions: 400, Seed: 99})
	})
	if benchStream.err != nil {
		b.Fatal(benchStream.err)
	}
	return benchStream.cfg, benchStream.live
}

// benchEngine streams the shared capture through an engine per iteration
// and reports flows/s: the synchronous Engine, or with shards > 0 the
// flow-sharded engine (shards1 is what NewConcurrent builds), classifying
// in micro-batches of batch flows at quantization width w (0: float32).
func benchEngine(b *testing.B, batch, shards int, w bitpack.Width) {
	cfg, live := benchStreamShape(b)
	cfg.BatchSize, cfg.Shards, cfg.Quantize = batch, shards, w
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng pipeline.Stream
		var err error
		if shards > 0 {
			eng, err = pipeline.NewSharded(cfg)
		} else {
			eng, err = pipeline.New(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			eng.Feed(live.Packets[p])
		}
		eng.Close()
		flows = eng.Stats().Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkEngineClassify measures end-to-end streaming throughput
// (packets → flows → featurize → classify) with per-flow prediction vs
// 64-flow micro-batches.
func BenchmarkEngineClassify(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchEngine(b, 0, 0, 0) })
	b.Run("batch64", func(b *testing.B) { benchEngine(b, 64, 0, 0) })
}

// ------------------------------------------------ Sharded engine (PR 2)

// BenchmarkShardedClassify measures streaming throughput of the
// flow-sharded engine at 1/2/4/8 shards (shards1 is what NewConcurrent
// builds), all with 64-flow micro-batches. Scaling tracks available cores: on a 1-CPU host every
// variant is ingress-bound and roughly flat.
func BenchmarkShardedClassify(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) { benchEngine(b, 64, n, 0) })
	}
}

// -------------------------------------------- Quantized serving (PR 3)

// BenchmarkQuantizedClassify measures end-to-end streaming throughput of
// packed integer inference at every supported bitwidth against the
// float32 engine, all with 64-flow micro-batches on identical traffic —
// the serving form of the paper's Table I sweep.
func BenchmarkQuantizedClassify(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchEngine(b, 64, 0, 0) })
	for _, w := range []bitpack.Width{bitpack.W1, bitpack.W2, bitpack.W4, bitpack.W8, bitpack.W16, bitpack.W32} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchEngine(b, 64, 0, w) })
	}
}

// ------------------------------------------- Serving runtime (PR 4)

// benchRunnerReplay streams the shared capture through the serving
// runtime — Runner over a slice source with 1 s auto-ticks — and reports
// flows/s. Comparable against benchEngine, which hand-drives the same
// engine without ticks: the delta is the runtime's pump overhead.
func benchRunnerReplay(b *testing.B, batch int) {
	cfg, live := benchStreamShape(b)
	cfg.BatchSize = batch
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := pipeline.NewRunner(cfg, netflow.NewSliceSource(live.Packets))
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		flows = st.Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkRunnerReplay measures end-to-end serving-runtime throughput
// (source → runner → engine → stats) per-flow and micro-batched.
func BenchmarkRunnerReplay(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchRunnerReplay(b, 0) })
	b.Run("batch64", func(b *testing.B) { benchRunnerReplay(b, 64) })
}

// ------------------------------------------------- Telemetry (PR 5)

// BenchmarkTelemetryOverhead isolates what live observability costs the
// serving path. Engines are always instrumented — the atomic counters
// are the source of truth behind Stats and Snapshot — so the marginal
// cost is measured directly: hotpath times the exact per-flow counter
// sequence the engine adds (packet count, flow completion, verdict with
// histogram observation; zero allocations, a handful of uncontended
// atomics), engine times the full instrumented pipeline per flow for
// scale, and snapshot times the scrape-side read that admin endpoints
// and progress callbacks pay.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("hotpath", func(b *testing.B) {
		tel := telemetry.New(traffic.LabelNames())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tel.AddPackets(1)
			tel.FlowCompleted()
			tel.Verdict(i&7, i&7 != 0, 0.25)
		}
	})
	b.Run("engine", func(b *testing.B) { benchEngine(b, 64, 0, 0) })
	b.Run("snapshot", func(b *testing.B) {
		cfg, live := benchStreamShape(b)
		eng, err := pipeline.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			eng.Feed(live.Packets[p])
		}
		eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.Telemetry().Snapshot()
		}
	})
}
