package experiments

import (
	"fmt"
	"time"

	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/baseline/svm"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/metrics"
)

// Default experiment hyperparameters, calibrated once against the paper's
// qualitative results (`go run ./cmd/experiments` reproduces them) and
// shared by every figure.
const (
	// PhysDim is CyberHD's physical dimensionality (the paper's D = 0.5k).
	PhysDim = 512
	// EffDim is the baselineHD comparison dimensionality (the paper's
	// D* = 4k = 8× PhysDim).
	EffDim = 4096
	// RegenCycles × RegenRate give CyberHD D* = PhysDim·(1+cycles·rate)
	// = 512·(1+7·0.2) ≈ 1.7k regenerated on top of 512 physical.
	RegenCycles = 7
	RegenRate   = 0.2
	// CyberEpochs is adaptive passes per regeneration cycle.
	CyberEpochs = 8
	// BaselineEpochs reflects the premise that static-encoder HDC needs
	// more retraining iterations to converge.
	BaselineEpochs = 15
	// HDLearningRate is η for all HDC variants.
	HDLearningRate = 0.1
	// DNNEpochs for the MLP baseline.
	DNNEpochs = 15
	// SVMEpochs for the Pegasos linear SVM.
	SVMEpochs = 10
)

// ModelNames in the presentation order of Fig 3.
var ModelNames = []string{"DNN", "SVM", "BaselineHD-0.5k", "BaselineHD-4k", "CyberHD"}

// Result is one (model, dataset) measurement.
type Result struct {
	Model   string
	Dataset string
	// Accuracy on the held-out test split.
	Accuracy float64
	// TrainTime is wall-clock fit time.
	TrainTime time.Duration
	// InferTime is wall-clock batch-prediction time over the whole test
	// split, whose size is the next field.
	InferTime   time.Duration
	TestSamples int
}

// PerQuery returns the mean per-sample inference latency.
func (r Result) PerQuery() time.Duration {
	if r.TestSamples == 0 {
		return 0
	}
	return r.InferTime / time.Duration(r.TestSamples)
}

// Config scales a comparison run.
type Config struct {
	// Samples per tabular dataset (sessions for CIC sets). Default 8000
	// tabular / 3000 sessions.
	Samples int
	// Seed drives dataset synthesis, splits and model initialization.
	Seed uint64
}

func (c *Config) defaults() {
	if c.Samples <= 0 {
		c.Samples = 8000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// LoadSplit synthesizes a paper dataset and returns its normalized
// train/test split.
func LoadSplit(name string, cfg Config) (train, test *datasets.Dataset, err error) {
	cfg.defaults()
	n := cfg.Samples
	if name == "cic-ids-2017" || name == "cic-ids-2018" {
		n = (cfg.Samples*3 + 7) / 8 // session budget: flows expand ≈1.6×
	}
	d, ok := datasets.ByName(name, n, cfg.Seed)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	train, test, _ = d.NormalizedSplit(0.75, cfg.Seed+1)
	return train, test, nil
}

// evaluator abstracts the five models for timing-fair comparison.
type evaluator interface {
	PredictBatch(x *hdc.Matrix) []int
}

func measure(m evaluator, test *datasets.Dataset) (float64, time.Duration) {
	t0 := time.Now()
	preds := m.PredictBatch(test.X)
	infer := time.Since(t0)
	return metrics.Accuracy(preds, test.Y), infer
}

// TrainCyberHD fits the paper's model with the calibrated defaults.
func TrainCyberHD(train *datasets.Dataset, seed uint64) (*core.Model, error) {
	enc := encoder.NewRBF(train.NumFeatures(), PhysDim, 0, seed)
	return core.Train(enc, train.X, train.Y, core.Options{
		Classes: train.NumClasses(), Epochs: CyberEpochs,
		RegenCycles: RegenCycles, RegenRate: RegenRate,
		LearningRate: HDLearningRate, Seed: seed + 1,
	})
}

// TrainBaselineHD fits a static-encoder HDC model at the given dim.
func TrainBaselineHD(train *datasets.Dataset, dim int, seed uint64) (*core.Model, error) {
	enc := encoder.NewRBF(train.NumFeatures(), dim, 0, seed)
	return core.Train(enc, train.X, train.Y, core.Options{
		Classes: train.NumClasses(), Epochs: BaselineEpochs,
		LearningRate: HDLearningRate, Seed: seed + 1,
	})
}

// RunComparison trains and measures every model on one dataset. The same
// run feeds Fig 3 (accuracies) and Fig 4 (times).
func RunComparison(name string, cfg Config) ([]Result, error) {
	cfg.defaults()
	train, test, err := LoadSplit(name, cfg)
	if err != nil {
		return nil, err
	}
	var out []Result
	add := func(model string, trainTime time.Duration, m evaluator) {
		acc, infer := measure(m, test)
		out = append(out, Result{
			Model: model, Dataset: name, Accuracy: acc,
			TrainTime: trainTime, InferTime: infer, TestSamples: test.Len(),
		})
	}

	t0 := time.Now()
	dnn, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: DNNEpochs, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	add("DNN", time.Since(t0), dnn)

	t0 = time.Now()
	lsvm, err := svm.TrainLinear(train.X, train.Y, train.NumClasses(), svm.LinearOptions{Epochs: SVMEpochs, Seed: cfg.Seed + 3})
	if err != nil {
		return nil, err
	}
	add("SVM", time.Since(t0), lsvm)

	t0 = time.Now()
	hdLow, err := TrainBaselineHD(train, PhysDim, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	add("BaselineHD-0.5k", time.Since(t0), hdLow)

	t0 = time.Now()
	hdHigh, err := TrainBaselineHD(train, EffDim, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	add("BaselineHD-4k", time.Since(t0), hdHigh)

	t0 = time.Now()
	cyber, err := TrainCyberHD(train, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	add("CyberHD", time.Since(t0), cyber)

	return out, nil
}
