// Package datasets provides the four evaluation datasets of the paper —
// NSL-KDD, UNSW-NB15, CIC-IDS-2017 and CIC-IDS-2018 — as schema-faithful
// synthetic reconstructions, plus splitting, normalization and CSV
// persistence.
//
// We do not redistribute (or even possess, in this environment) the real
// datasets. Instead:
//
//   - NSL-KDD and UNSW-NB15 are synthesized by a per-class latent factor
//     model over the real schemas (41/42 features, real class taxonomies
//     and imbalance ratios). See synth.go.
//   - CIC-IDS-2017/2018 are derived the way the originals were: synthetic
//     packet traffic (internal/traffic) is assembled into flows and
//     featurized by the CICFlowMeter-style extractor (internal/netflow).
//
// The experiments measure relative learner behaviour, which these
// reconstructions preserve; absolute accuracies differ from the paper's.
package datasets

import (
	"fmt"
	"math"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// Dataset is a labeled feature table.
type Dataset struct {
	// Name identifies the dataset (e.g. "nsl-kdd").
	Name string
	// FeatureNames has one entry per column of X.
	FeatureNames []string
	// ClassNames has one entry per label value.
	ClassNames []string
	// X is the n×f feature matrix.
	X *hdc.Matrix
	// Y holds the n labels, indexes into ClassNames.
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int { return d.X.Cols }

// NumClasses returns the number of classes.
func (d *Dataset) NumClasses() int { return len(d.ClassNames) }

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("datasets: nil feature matrix")
	}
	if len(d.Y) != d.X.Rows {
		return fmt.Errorf("datasets: %d labels for %d rows", len(d.Y), d.X.Rows)
	}
	if len(d.FeatureNames) != d.X.Cols {
		return fmt.Errorf("datasets: %d feature names for %d columns", len(d.FeatureNames), d.X.Cols)
	}
	for i, y := range d.Y {
		if y < 0 || y >= len(d.ClassNames) {
			return fmt.Errorf("datasets: label %d at row %d out of range", y, i)
		}
	}
	for i, v := range d.X.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("datasets: non-finite value at flat index %d", i)
		}
	}
	return nil
}

// Subset returns a dataset view copied from the given row indices.
func (d *Dataset) Subset(rows []int) *Dataset {
	out := &Dataset{
		Name:         d.Name,
		FeatureNames: d.FeatureNames,
		ClassNames:   d.ClassNames,
		X:            hdc.NewMatrix(len(rows), d.X.Cols),
		Y:            make([]int, len(rows)),
	}
	for i, r := range rows {
		copy(out.X.Row(i), d.X.Row(r))
		out.Y[i] = d.Y[r]
	}
	return out
}

// Split partitions the dataset into train/test with the given train
// fraction, stratified by class so rare attack classes appear in both
// halves. Each class contributes at least one sample to each side when it
// has at least two samples.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	if !(trainFrac > 0 && trainFrac < 1) {
		panic("datasets: trainFrac outside (0, 1)")
	}
	r := rng.New(seed)
	byClass := make([][]int, d.NumClasses())
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainRows, testRows []int
	for _, rows := range byClass {
		r.ShuffleInts(rows)
		nTrain := int(math.Round(trainFrac * float64(len(rows))))
		if len(rows) >= 2 {
			nTrain = min(max(nTrain, 1), len(rows)-1)
		}
		trainRows = append(trainRows, rows[:nTrain]...)
		testRows = append(testRows, rows[nTrain:]...)
	}
	r.ShuffleInts(trainRows)
	r.ShuffleInts(testRows)
	return d.Subset(trainRows), d.Subset(testRows)
}

// Normalizer holds per-feature affine normalization parameters fitted on
// training data and applied to any split (and to live flows in the
// streaming pipeline).
type Normalizer struct {
	Mean, InvStd []float32
}

// FitNormalizer computes per-column z-score parameters from d. Columns
// with zero variance get InvStd 0 (they normalize to 0, carrying no
// information — exactly how a constant feature should behave).
func FitNormalizer(d *Dataset) *Normalizer {
	cols := d.X.Cols
	n := &Normalizer{Mean: make([]float32, cols), InvStd: make([]float32, cols)}
	variance := make([]float64, cols)
	d.X.ColumnVariance(variance)
	for c := 0; c < cols; c++ {
		var sum float64
		for r := 0; r < d.X.Rows; r++ {
			sum += float64(d.X.At(r, c))
		}
		n.Mean[c] = float32(sum / float64(d.X.Rows))
		if sd := math.Sqrt(variance[c]); sd > 0 {
			n.InvStd[c] = float32(1 / sd)
		}
	}
	return n
}

// Apply normalizes every row of d in place.
func (n *Normalizer) Apply(d *Dataset) {
	for r := 0; r < d.X.Rows; r++ {
		n.ApplyVec(d.X.Row(r))
	}
}

// ApplyVec normalizes one feature vector in place, clamping to ±10
// standard deviations so adversarial outliers cannot blow up encodings,
// and NaN, which no clamp catches, to 0: the training mean.
func (n *Normalizer) ApplyVec(x []float32) {
	for c := range x {
		v := (x[c] - n.Mean[c]) * n.InvStd[c]
		switch {
		case v >= -10 && v <= 10: // the common case first; NaN fails both
		case v > 10:
			v = 10
		case v < -10:
			v = -10
		default:
			v = 0
		}
		x[c] = v
	}
}

// NormalizedSplit is the standard preprocessing used by every experiment:
// stratified split, z-score fitted on train, applied to both halves.
func (d *Dataset) NormalizedSplit(trainFrac float64, seed uint64) (train, test *Dataset, norm *Normalizer) {
	train, test = d.Split(trainFrac, seed)
	norm = FitNormalizer(train)
	norm.Apply(train)
	norm.Apply(test)
	return train, test, norm
}
