// Package cyberhd is a Go implementation of CyberHD — "Scalable and
// Efficient Hyperdimensional Computing for Network Intrusion Detection"
// (DAC 2023) — together with every substrate its evaluation depends on:
// hyperdimensional encoders and classifiers with dynamic dimension
// regeneration, quantized inference, fault injection, DNN/SVM baselines,
// a packet→flow→feature network substrate, synthetic reconstructions of
// the four evaluation datasets, and a streaming detection engine.
//
// This root package is the stable facade. The typical workflow:
//
//	ds := cyberhd.NSLKDD(20000, 42)
//	det, err := cyberhd.TrainDetector(ds, cyberhd.DefaultConfig())
//	class := det.Classify(features)
//
// Live traffic starts from det.EngineConfig(): set the fields the run
// needs, and a Runner pumps any PacketSource through the detection engine
// that config describes and fans alerts to sinks (see serve.go and the
// serving-runtime section of ARCHITECTURE.md):
//
//	cfg := det.EngineConfig()
//	cfg.BatchSize = 64
//	cfg.Sinks = []cyberhd.AlertSink{cyberhd.NewJSONLSink(os.Stdout)}
//	r, err := cyberhd.NewServeRunner(cfg, source)
//	...
//	stats, err := r.Run(ctx)
//
// Lower-level control (a hand-built encoder, quantization, cluster
// serving, the model control plane) is exposed through type aliases into
// the implementation packages — one for each name the commands and
// examples of this module use.
package cyberhd

import (
	"fmt"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/quantize"
	"cyberhd/internal/traffic"
)

// Re-exported core types. Aliases keep the implementation internal while
// giving users stable names rooted at this package.
type (
	// Dataset is a labeled feature table (see NSLKDD, CICIDS2017,
	// DatasetByName, LoadCSV).
	Dataset = datasets.Dataset
	// Model is a trained HDC classifier.
	Model = core.Model
	// TrainOptions configures HDC training (core semantics: RegenCycles=0
	// is a static BaselineHD model).
	TrainOptions = core.Options
	// Width is a quantization bitwidth. Quantize packs at 1, 2, 4, 8, 16
	// or 32 (the paper's offline Table I and Fig 5 widths); engines, the
	// control plane and cluster workers serve 0 (float32) and W1 only.
	Width = bitpack.Width
	// COWModel is the concurrency-safe model wrapper: classification reads
	// immutable atomic snapshots while hot reloads publish new versions
	// (see NewCOWModel).
	COWModel = core.COWModel
	// TrafficConfig parameterizes the synthetic traffic generator.
	TrafficConfig = traffic.Config
	// TrafficStream is a generated labeled capture.
	TrafficStream = traffic.Stream
)

// Quantization widths.
const (
	W1  = bitpack.W1
	W2  = bitpack.W2
	W4  = bitpack.W4
	W8  = bitpack.W8
	W16 = bitpack.W16
	W32 = bitpack.W32
)

// Dataset constructors (synthetic reconstructions; see the Datasets
// section of README.md for the substitution rationale) and the low-level
// model constructors beneath TrainDetector.
var (
	// NSLKDD synthesizes the 41-feature, 5-class NSL-KDD reconstruction.
	NSLKDD = datasets.NSLKDD
	// CICIDS2017 derives the 78-feature, 8-class CIC-IDS-2017
	// reconstruction from simulated packet traffic.
	CICIDS2017 = datasets.CICIDS2017
	// DatasetByName builds any of the four paper datasets — nsl-kdd,
	// unsw-nb15, cic-ids-2017, cic-ids-2018 — by canonical name.
	DatasetByName = datasets.ByName
	// LoadCSV and SaveCSV persist datasets.
	LoadCSV = datasets.LoadCSV
	// SaveCSV writes a dataset to a CSV file.
	SaveCSV = datasets.SaveCSV
	// GenerateTraffic synthesizes a labeled packet capture.
	GenerateTraffic = traffic.Generate
	// NewRBFEncoder builds the paper's RBF random-feature encoder — the one
	// encoder — mapping inDim input features to dim hyperspace dimensions;
	// gamma <= 0 selects the default bandwidth.
	NewRBFEncoder = encoder.NewRBF
	// Train fits an HDC model on a feature matrix with the given encoder.
	// Most callers want TrainDetector instead; this is the low-level entry
	// point.
	Train = core.Train
	// Quantize lowers a trained model to the given bitwidth: a
	// reduced-precision model for edge deployment.
	Quantize = quantize.FromCore
	// NewCOWModel publishes a trained model for concurrent classification
	// and hot reload: readers load an immutable (encoder, class-matrix)
	// snapshot through one atomic pointer read; ReplaceModel swaps the next
	// version in. The model is published as is — do not mutate it
	// afterwards.
	NewCOWModel = core.NewCOWModel
	// AttachW1 makes a COWModel serve W1, the one packed serving width,
	// and returns the W1 model it packed for the live version; every
	// later publication is packed as it is published. The version does
	// not advance. Attach right after NewCOWModel (or a snapshot load),
	// before anything serves or saves the model: an engine serves its
	// model exactly as handed to it.
	AttachW1 = quantize.AttachLive
)

// Config is the one-call training configuration for TrainDetector.
type Config struct {
	// Dim is the physical hyperspace dimensionality (paper: 512).
	Dim int
	// Epochs is adaptive passes per regeneration cycle.
	Epochs int
	// RegenCycles is the number of drop/regenerate rounds; zero cycles
	// trains a static BaselineHD model.
	RegenCycles int
	// RegenRate is R, the fraction of dimensions dropped per cycle.
	RegenRate float64
	// LearningRate is η for the adaptive update.
	LearningRate float64
	// Gamma is the RBF encoder bandwidth (<= 0: default).
	Gamma float64
	// TrainFraction of samples used for fitting (rest measures TestAccuracy).
	// A value outside (0, 1), NaN included, selects 0.75.
	TrainFraction float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns the paper-calibrated configuration (D = 0.5k,
// R = 20%, 7 regeneration cycles).
func DefaultConfig() Config {
	return Config{
		Dim: 512, Epochs: 8, RegenCycles: 7, RegenRate: 0.2,
		LearningRate: 0.1, TrainFraction: 0.75, Seed: 1,
	}
}

// Detector bundles everything needed to classify live flows: the model,
// the normalizer fitted on its training split, and class names.
type Detector struct {
	// Model is the trained HDC classifier.
	Model *Model
	// Normalizer carries the feature statistics of the training split;
	// every query must be normalized with it before prediction.
	Normalizer *datasets.Normalizer
	// ClassNames label the model's class indices.
	ClassNames []string
	// TestAccuracy is the held-out accuracy measured during TrainDetector.
	TestAccuracy float64
}

// TrainDetector splits ds, fits a normalizer and a CyberHD model, and
// reports held-out accuracy.
func TrainDetector(ds *Dataset, cfg Config) (*Detector, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = 512
	}
	if !(cfg.TrainFraction > 0 && cfg.TrainFraction < 1) {
		cfg.TrainFraction = 0.75
	}
	train, test, norm := ds.NormalizedSplit(cfg.TrainFraction, cfg.Seed)
	enc := encoder.NewRBF(train.NumFeatures(), cfg.Dim, cfg.Gamma, cfg.Seed+1)
	m, err := core.Train(enc, train.X, train.Y, core.Options{
		Classes: train.NumClasses(), Epochs: cfg.Epochs,
		RegenCycles: cfg.RegenCycles, RegenRate: cfg.RegenRate,
		LearningRate: cfg.LearningRate, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return &Detector{
		Model:        m,
		Normalizer:   norm,
		ClassNames:   ds.ClassNames,
		TestAccuracy: m.Evaluate(test.X, test.Y),
	}, nil
}

// Classify normalizes a raw feature vector and returns the predicted class
// name.
func (d *Detector) Classify(features []float32) string {
	x := make([]float32, len(features))
	copy(x, features)
	d.Normalizer.ApplyVec(x)
	return d.ClassNames[d.Model.Predict(x)]
}

// EffectiveDim reports the detector's effective dimensionality D* (physical
// dims plus regenerated dims — the paper's headline metric).
func (d *Detector) EffectiveDim() int { return d.Model.EffectiveDim }

// String summarizes the detector.
func (d *Detector) String() string {
	return fmt.Sprintf("cyberhd.Detector{classes=%d, D=%d, D*=%d, testAcc=%.2f%%}",
		len(d.ClassNames), d.Model.Dim(), d.Model.EffectiveDim, 100*d.TestAccuracy)
}
