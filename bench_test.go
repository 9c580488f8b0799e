// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark measures the wall-clock cost of the
// experiment's unit of work and reports the experiment's headline numbers
// as custom metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation in one run:
//
//	BenchmarkFig3*   — accuracy comparison (acc_pct metric per model/dataset)
//	BenchmarkFig4*   — training time and per-query inference latency
//	BenchmarkTable1* — quantized inference per bitwidth + modeled CPU/FPGA
//	                   energy efficiencies
//	BenchmarkFig5*   — fault-injection robustness (loss_pp metric)
//	BenchmarkAblation* — design-choice ablations
//
// Scale is reduced relative to cmd/experiments (benchmarks run the whole
// grid repeatedly); the experiment harness behind both is identical.
package cyberhd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/baseline/svm"
	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/experiments"
	"cyberhd/internal/faults"
	"cyberhd/internal/hdc"
	"cyberhd/internal/hwmodel"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// benchSamples keeps per-iteration cost manageable across the full grid.
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

// ---------------------------------------------------------------- Fig 3

// BenchmarkFig3 trains each model per iteration and reports held-out
// accuracy — the bar heights of Fig 3.
func BenchmarkFig3(b *testing.B) {
	for _, ds := range datasets.PaperDatasets() {
		for _, model := range experiments.ModelNames {
			b.Run(model+"/"+ds, func(b *testing.B) {
				train, test := benchSplit(b, ds)
				var acc float64
				for i := 0; i < b.N; i++ {
					acc = benchTrainEval(b, model, train, test)
				}
				b.ReportMetric(100*acc, "acc_pct")
			})
		}
	}
}

func benchTrainEval(b *testing.B, model string, train, test *datasets.Dataset) float64 {
	b.Helper()
	switch model {
	case "DNN":
		m, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: experiments.DNNEpochs, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		return m.Evaluate(test.X, test.Y)
	case "SVM":
		m, err := svm.TrainLinear(train.X, train.Y, train.NumClasses(), svm.LinearOptions{Epochs: experiments.SVMEpochs, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		return m.Evaluate(test.X, test.Y)
	case "BaselineHD-0.5k":
		m, err := experiments.TrainBaselineHD(train, experiments.PhysDim, 4)
		if err != nil {
			b.Fatal(err)
		}
		return m.Evaluate(test.X, test.Y)
	case "BaselineHD-4k":
		m, err := experiments.TrainBaselineHD(train, experiments.EffDim, 4)
		if err != nil {
			b.Fatal(err)
		}
		return m.Evaluate(test.X, test.Y)
	case "CyberHD":
		m, err := experiments.TrainCyberHD(train, 4)
		if err != nil {
			b.Fatal(err)
		}
		return m.Evaluate(test.X, test.Y)
	}
	b.Fatalf("unknown model %q", model)
	return 0
}

// ---------------------------------------------------------------- Fig 4

// BenchmarkFig4Train measures wall-clock training per model (Fig 4 left).
// The benchmark time per op IS the figure's bar.
func BenchmarkFig4Train(b *testing.B) {
	for _, ds := range datasets.PaperDatasets() {
		for _, model := range experiments.ModelNames {
			b.Run(model+"/"+ds, func(b *testing.B) {
				train, test := benchSplit(b, ds)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchTrainOnly(b, model, train)
				}
				_ = test
			})
		}
	}
}

func benchTrainOnly(b *testing.B, model string, train *datasets.Dataset) {
	b.Helper()
	switch model {
	case "DNN":
		if _, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: experiments.DNNEpochs, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	case "SVM":
		if _, err := svm.TrainLinear(train.X, train.Y, train.NumClasses(), svm.LinearOptions{Epochs: experiments.SVMEpochs, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	case "BaselineHD-0.5k":
		if _, err := experiments.TrainBaselineHD(train, experiments.PhysDim, 4); err != nil {
			b.Fatal(err)
		}
	case "BaselineHD-4k":
		if _, err := experiments.TrainBaselineHD(train, experiments.EffDim, 4); err != nil {
			b.Fatal(err)
		}
	case "CyberHD":
		if _, err := experiments.TrainCyberHD(train, 4); err != nil {
			b.Fatal(err)
		}
	default:
		b.Fatalf("unknown model %q", model)
	}
}

// BenchmarkFig4Inference measures per-query latency (Fig 4 right) on
// NSL-KDD; ns/op is the figure's bar.
func BenchmarkFig4Inference(b *testing.B) {
	train, test := benchSplit(b, "nsl-kdd")
	q := test.X.Row(0)

	dnn, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: 3, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DNN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dnn.Predict(q)
		}
	})

	lsvm, err := svm.TrainLinear(train.X, train.Y, train.NumClasses(), svm.LinearOptions{Epochs: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lsvm.Predict(q)
		}
	})

	hd4k, err := experiments.TrainBaselineHD(train, experiments.EffDim, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BaselineHD-4k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hd4k.Predict(q)
		}
	})

	cyber, err := experiments.TrainCyberHD(train, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("CyberHD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cyber.Predict(q)
		}
	})
}

// -------------------------------------------------------------- Table I

// BenchmarkTable1 measures quantized class-memory scoring at each bitwidth
// and the paper's effective dimensionality, and reports the calibrated
// platform-model efficiencies as metrics — the three rows of Table I.
func BenchmarkTable1(b *testing.B) {
	rows, err := hwmodel.Table(hwmodel.DefaultCPU(), hwmodel.DefaultFPGA(), hwmodel.PaperEffectiveDims)
	if err != nil {
		b.Fatal(err)
	}
	const classes = 5
	for _, row := range rows {
		b.Run(fmt.Sprintf("%dbit", row.Width), func(b *testing.B) {
			r := rng.New(uint64(row.Width))
			flat := make([]float32, classes*row.EffectiveDim)
			r.FillNorm(flat, 0, 1)
			mem := bitpack.QuantizeMatrix(flat, classes, row.EffectiveDim, row.Width)
			qv := make([]float32, row.EffectiveDim)
			r.FillNorm(qv, 0, 1)
			query := bitpack.Quantize(qv, row.Width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = mem.Classify(query)
			}
			b.ReportMetric(float64(row.EffectiveDim), "eff_dim")
			b.ReportMetric(row.CPUEff, "cpu_eff_x")
			b.ReportMetric(row.FPGAEff, "fpga_eff_x")
		})
	}
}

// ---------------------------------------------------------------- Fig 5

// BenchmarkFig5 measures one fault-injection round (clone, corrupt,
// re-evaluate) per model configuration and reports the accuracy loss in
// percentage points — the cells of Fig 5 at the 10% error rate.
func BenchmarkFig5(b *testing.B) {
	const rate = 0.10
	train, test := benchSplit(b, "nsl-kdd")

	dnn, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: experiments.DNNEpochs, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	dnnClean := dnn.Evaluate(test.X, test.Y)
	b.Run("DNN", func(b *testing.B) {
		r := rng.New(9)
		var loss float64
		for i := 0; i < b.N; i++ {
			hurt := dnn.Clone()
			for _, ws := range hurt.Weights() {
				faults.InjectFloat32Bits(ws, rate, 1, r)
			}
			loss = dnnClean - hurt.Evaluate(test.X, test.Y)
		}
		b.ReportMetric(100*loss, "loss_pp")
	})

	for _, w := range experiments.Fig5Widths {
		b.Run(fmt.Sprintf("CyberHD-%dbit", w), func(b *testing.B) {
			m, err := experiments.TrainBaselineHD(train, experiments.Fig5Dim(w), 4)
			if err != nil {
				b.Fatal(err)
			}
			q, err := quantize.FromCore(m, w)
			if err != nil {
				b.Fatal(err)
			}
			clean := q.Evaluate(test.X, test.Y)
			r := rng.New(uint64(w) + 9)
			b.ResetTimer()
			var loss float64
			for i := 0; i < b.N; i++ {
				hurt := q.Clone()
				faults.InjectQuantizedBits(hurt.Class, rate, r)
				loss = clean - hurt.Evaluate(test.X, test.Y)
			}
			b.ReportMetric(100*loss, "loss_pp")
		})
	}
}

// ------------------------------------------------------------ Ablations

// BenchmarkAblationDropStrategy compares variance-guided against random
// dimension selection per iteration (ablation index).
func BenchmarkAblationDropStrategy(b *testing.B) {
	train, test := benchSplit(b, "nsl-kdd")
	strategies := map[string]func(m *core.Model, drop int) []int{
		"variance": nil,
	}
	dropRng := rng.New(7)
	strategies["random"] = func(m *core.Model, drop int) []int {
		return dropRng.Perm(m.Dim())[:drop]
	}
	for name, sel := range strategies {
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				enc := NewRBFEncoder(train.NumFeatures(), experiments.PhysDim, 0, 4)
				m, err := core.Train(enc, train.X, train.Y, core.Options{
					Classes: train.NumClasses(), Epochs: experiments.CyberEpochs,
					RegenCycles: experiments.RegenCycles, RegenRate: experiments.RegenRate,
					LearningRate: experiments.HDLearningRate, Seed: 5, DropSelector: sel,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = m.Evaluate(test.X, test.Y)
			}
			b.ReportMetric(100*acc, "acc_pct")
		})
	}
}

// BenchmarkAblationRegenRate sweeps the regeneration rate R.
func BenchmarkAblationRegenRate(b *testing.B) {
	train, test := benchSplit(b, "nsl-kdd")
	for _, rate := range []float64{0.1, 0.2, 0.4} {
		b.Run(fmt.Sprintf("R=%.0f%%", 100*rate), func(b *testing.B) {
			var acc float64
			var effDim int
			for i := 0; i < b.N; i++ {
				enc := NewRBFEncoder(train.NumFeatures(), experiments.PhysDim, 0, 4)
				m, err := core.Train(enc, train.X, train.Y, core.Options{
					Classes: train.NumClasses(), Epochs: experiments.CyberEpochs,
					RegenCycles: experiments.RegenCycles, RegenRate: rate,
					LearningRate: experiments.HDLearningRate, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = m.Evaluate(test.X, test.Y)
				effDim = m.EffectiveDim
			}
			b.ReportMetric(100*acc, "acc_pct")
			b.ReportMetric(float64(effDim), "eff_dim")
		})
	}
}

// ------------------------------------------------ Kernel layer (PR 1)
//
// The benchmarks below compare the blocked kernel layer against the
// seed's row-at-a-time kernels, kept here as explicit naive references:
// RBF encoding was one float64 hdc.Dot plus math.Cos per output dimension
// and prediction recomputed every class norm per call (hdc.ArgmaxCosine).
// BENCH_1.json is the frozen snapshot of these speedups.

// naiveRBFEncode is the seed's RBF.Encode.
func naiveRBFEncode(base *hdc.Matrix, bias []float32, x, dst []float32) {
	for d := 0; d < base.Rows; d++ {
		dst[d] = float32(math.Cos(hdc.Dot(base.Row(d), x) + float64(bias[d])))
	}
}

// benchEncShape builds matching shapes for the naive and blocked paths:
// a 512-dim RBF over the 78 CIC flow features.
func benchEncShape(samples int) (base *hdc.Matrix, bias []float32, x *hdc.Matrix, enc encoder.BatchEncoder) {
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

func benchEncodeBatchNaive(b *testing.B) {
	base, bias, x, _ := benchEncShape(256)
	out := hdc.NewMatrix(x.Rows, base.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < x.Rows; s++ {
			naiveRBFEncode(base, bias, x.Row(s), out.Row(s))
		}
	}
}

func benchEncodeBatchBlocked(b *testing.B) {
	_, _, x, enc := benchEncShape(256)
	out := hdc.NewMatrix(x.Rows, enc.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoder.EncodeBatchInto(enc, x, out)
	}
}

// BenchmarkEncodeBatch measures batch RBF encoding (256 flows × 78
// features → 512 dims): the seed's per-row matvec loop against the
// blocked panel GEMM with fused cosine.
func BenchmarkEncodeBatch(b *testing.B) {
	b.Run("naive", benchEncodeBatchNaive)
	b.Run("blocked", benchEncodeBatchBlocked)
}

// benchPredictModel trains one 512-dim model for the prediction paths.
func benchPredictModel(b *testing.B) (*core.Model, []float32) {
	b.Helper()
	train, test := benchSplit(b, "nsl-kdd")
	m, err := experiments.TrainBaselineHD(train, experiments.PhysDim, 4)
	if err != nil {
		b.Fatal(err)
	}
	return m, test.X.Row(0)
}

func benchPredictNaive(b *testing.B) {
	base, bias, x, _ := benchEncShape(1)
	r := rng.New(13)
	class := hdc.NewMatrix(5, base.Rows)
	r.FillNorm(class.Data, 0, 1)
	q := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := make([]float32, base.Rows)
		naiveRBFEncode(base, bias, q, h)
		pred, _ := hdc.ArgmaxCosine(class, h)
		benchSink = pred
	}
}

func benchPredictPooled(b *testing.B) {
	base, _, x, enc := benchEncShape(1)
	r := rng.New(13)
	classData := hdc.NewMatrix(5, base.Rows)
	r.FillNorm(classData.Data, 0, 1)
	m := &core.Model{Enc: enc, Class: classData}
	q := x.Row(0)
	m.Predict(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Predict(q)
	}
}

var benchSink int

// BenchmarkPredict measures repeated single-sample prediction on
// identical shapes (78 features, 512 dims, 5 classes): the seed path
// (fresh encode buffer, float64 row-at-a-time encode, per-call class
// norms) against the pooled kernel path.
func BenchmarkPredict(b *testing.B) {
	b.Run("naive", benchPredictNaive)
	b.Run("pooled", benchPredictPooled)
}

func benchPredictEncodedNaive(b *testing.B) {
	m, q := benchPredictModel(b)
	h := make([]float32, m.Dim())
	m.Enc.Encode(q, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, _ := hdc.ArgmaxCosine(m.Class, h)
		benchSink = pred
	}
}

func benchPredictEncodedCached(b *testing.B) {
	m, q := benchPredictModel(b)
	h := make([]float32, m.Dim())
	m.Enc.Encode(q, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.PredictEncoded(h)
	}
}

// BenchmarkPredictEncoded isolates scoring: per-call norm recomputation
// (hdc.ArgmaxCosine) against the Scorer's cached norms + kernel dots.
func BenchmarkPredictEncoded(b *testing.B) {
	b.Run("naive", benchPredictEncodedNaive)
	b.Run("cached", benchPredictEncodedCached)
}

// benchStream caches the BENCH_1 engine shape (512-dim model over
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

// benchEngine streams a fixed capture through an engine per iteration and
// reports flows/sec.
func benchEngine(b *testing.B, batch int) {
	cfg, live := benchStreamShape(b)
	cfg.BatchSize = batch
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := pipeline.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			eng.Feed(live.Packets[p])
		}
		eng.Flush()
		flows = eng.Stats().Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkEngineClassify measures end-to-end streaming throughput
// (packets → flows → featurize → classify) with per-flow prediction vs
// 64-flow micro-batches.
func BenchmarkEngineClassify(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchEngine(b, 0) })
	b.Run("batch64", func(b *testing.B) { benchEngine(b, 64) })
}

// ------------------------------------------------ Sharded engine (PR 2)

// benchShardedEngine streams the capture through the flow-sharded
// multi-core engine with the given shard count.
func benchShardedEngine(b *testing.B, shards, batch int) {
	cfg, live := benchStreamShape(b)
	cfg.BatchSize = batch
	cfg.Shards = shards
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := pipeline.NewSharded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			sh.Feed(live.Packets[p])
		}
		sh.Close()
		flows = sh.Stats().Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkShardedClassify measures streaming throughput of the
// flow-sharded engine at 1/2/4/8 shards (shards1 is what NewConcurrent
// builds), all with 64-flow micro-batches (the BENCH_1 fast
// configuration). Scaling tracks available cores: on a 1-CPU host every
// variant is ingress-bound and roughly flat.
func BenchmarkShardedClassify(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) { benchShardedEngine(b, n, 64) })
	}
}

// -------------------------------------------- Quantized serving (PR 3)

// benchQuantWidths is the Table I bitwidth sweep served live.
var benchQuantWidths = []bitpack.Width{bitpack.W1, bitpack.W2, bitpack.W4, bitpack.W8, bitpack.W16, bitpack.W32}

// benchQuantEngine streams the shared capture through an engine lowered to
// packed w-bit inference.
func benchQuantEngine(b *testing.B, w bitpack.Width, batch int) {
	cfg, live := benchStreamShape(b)
	cfg.BatchSize = batch
	cfg.Quantize = w
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := pipeline.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			eng.Feed(live.Packets[p])
		}
		eng.Flush()
		flows = eng.Stats().Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkQuantizedClassify measures end-to-end streaming throughput of
// packed integer inference at every supported bitwidth against the
// float32 engine, all with 64-flow micro-batches on identical traffic —
// the serving form of the paper's Table I sweep.
func BenchmarkQuantizedClassify(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchEngine(b, 64) })
	for _, w := range benchQuantWidths {
		w := w
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchQuantEngine(b, w, 64) })
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
	b.Run("engine", func(b *testing.B) { benchEngine(b, 64) })
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
