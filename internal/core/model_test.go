package core

import (
	"math"
	"testing"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func TestTrainValidation(t *testing.T) {
	x, y := blobs(10, 4, 2, 0.1, 100, 1)
	enc := func() *encoder.RBF { return encoder.NewRBF(4, 32, 0, 1) }

	if _, err := Train(enc(), x, y, Options{Classes: 1}); err == nil {
		t.Error("accepted 1 class")
	}
	if _, err := Train(enc(), x, y[:5], Options{Classes: 2}); err == nil {
		t.Error("accepted label/sample mismatch")
	}
	if _, err := Train(enc(), hdc.NewMatrix(0, 4), nil, Options{Classes: 2}); err == nil {
		t.Error("accepted empty training set")
	}
	bad := append([]int(nil), y...)
	bad[3] = 7
	if _, err := Train(enc(), x, bad, Options{Classes: 2}); err == nil {
		t.Error("accepted out-of-range label")
	}
	for _, o := range []Options{{RegenRate: 1.5}, {RegenRate: math.NaN()}, {LearningRate: math.NaN()}, {LearningRate: math.Inf(1)}, {LearningRate: math.Inf(-1)}} {
		o.Classes, o.RegenCycles = 2, 1
		if _, err := Train(enc(), x, y, o); err == nil {
			t.Errorf("accepted regen rate %v, learning rate %v", o.RegenRate, o.LearningRate)
		}
	}
}

func TestBaselineLearnsBlobs(t *testing.T) {
	x, y := blobs(2000, 10, 4, 0.35, 101, 2)
	xt, yt := blobs(500, 10, 4, 0.35, 101, 3)
	enc := encoder.NewRBF(10, 512, 0, 7)
	m, err := Train(enc, x, y, Options{Classes: 4, Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(xt, yt); acc < 0.9 {
		t.Errorf("baseline accuracy = %v, want >= 0.9", acc)
	}
	if m.EffectiveDim != 512 {
		t.Errorf("baseline EffectiveDim = %d, want 512", m.EffectiveDim)
	}
	if len(m.History) != 1 {
		t.Errorf("baseline history length = %d, want 1", len(m.History))
	}
}

func TestRegenerationAccounting(t *testing.T) {
	x, y := blobs(600, 8, 3, 0.3, 102, 4)
	enc := encoder.NewRBF(8, 100, 0, 9)
	m, err := Train(enc, x, y, Options{
		Classes: 3, Epochs: 2, RegenCycles: 4, RegenRate: 0.25, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 + 4*25; m.EffectiveDim != want {
		t.Errorf("EffectiveDim = %d, want %d", m.EffectiveDim, want)
	}
	if got := m.EffectiveDim - m.Dim(); got != 100 {
		t.Errorf("regenerated %d dimensions, want 100", got)
	}
	if len(m.History) != 5 {
		t.Fatalf("history length = %d, want 5", len(m.History))
	}
	for i, h := range m.History {
		if h.Cycle != i {
			t.Errorf("history[%d].Cycle = %d", i, h.Cycle)
		}
		if i > 0 && h.Dropped != 25 {
			t.Errorf("history[%d].Dropped = %d, want 25", i, h.Dropped)
		}
	}
}

func TestRegenerationImprovesLowDimensionalAccuracy(t *testing.T) {
	// The paper's core claim at miniature scale: with a deliberately small
	// physical D, regeneration should beat the static baseline on a task
	// with enough structure that D dims are not all useful at once.
	x, y := blobs(3000, 16, 6, 0.55, 103, 10)
	xt, yt := blobs(1000, 16, 6, 0.55, 103, 11)

	base, err := Train(encoder.NewRBF(16, 64, 0, 21), x, y,
		Options{Classes: 6, Epochs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cyber, err := Train(encoder.NewRBF(16, 64, 0, 21), x, y,
		Options{Classes: 6, Epochs: 3, RegenCycles: 8, RegenRate: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	accBase := base.Evaluate(xt, yt)
	accCyber := cyber.Evaluate(xt, yt)
	t.Logf("baseline=%.4f cyberhd=%.4f", accBase, accCyber)
	if accCyber < accBase-0.02 {
		t.Errorf("regeneration hurt accuracy: baseline %v vs cyberhd %v", accBase, accCyber)
	}
}

func TestInsignificantDimsPrefersLowVariance(t *testing.T) {
	m := &Model{Class: hdc.NewMatrix(3, 6)}
	// Column 2 identical across classes (zero variance after row
	// normalization); column 4 nearly so.
	rows := [][]float32{
		{1.0, -0.5, 0.3, 0.9, 0.20, -0.7},
		{-0.8, 0.6, 0.3, -0.2, 0.21, 0.5},
		{0.2, 0.9, 0.3, -0.8, 0.19, 0.1},
	}
	for i, row := range rows {
		copy(m.Class.Row(i), row)
	}
	dims := m.insignificantDims(2)
	if len(dims) != 2 {
		t.Fatalf("got %d dims", len(dims))
	}
	// Row normalization rescales, so the strictly-constant raw column may
	// gain variance; but both picks must come from the low-variance set
	// {2, 4} computed on the normalized copy.
	normed := m.Class.Clone()
	normed.NormalizeRows()
	variance := make([]float64, 6)
	normed.ColumnVariance(variance)
	for _, d := range dims {
		for o := 0; o < 6; o++ {
			if o == dims[0] || o == dims[1] {
				continue
			}
			if variance[o] < variance[d] {
				t.Errorf("dropped dim %d (var %v) but dim %d has lower var %v",
					d, variance[d], o, variance[o])
			}
		}
	}
}

func TestInsignificantDimsDeterministicAndSorted(t *testing.T) {
	m := &Model{Class: hdc.NewMatrix(2, 8)}
	r := rng.New(3)
	r.FillNorm(m.Class.Data, 0, 1)
	a := m.insignificantDims(4)
	b := m.insignificantDims(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("insignificantDims not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatal("dims not sorted ascending")
		}
	}
}

func TestUpdateOneNoChangeWhenCorrect(t *testing.T) {
	m := &Model{Class: hdc.NewMatrix(2, 4), opts: Options{LearningRate: 0.1}}
	copy(m.Class.Row(0), []float32{1, 0, 0, 0})
	copy(m.Class.Row(1), []float32{0, 1, 0, 0})
	m.Scorer().Refresh()
	before := m.Class.Clone()
	sims := make([]float64, 2)
	h := []float32{2, 0.1, 0, 0}
	if m.updateNormed(h, hdc.Norm(h), 0, sims) {
		t.Fatal("correct prediction reported an update")
	}
	if !m.Class.Equal(before) {
		t.Fatal("class matrix changed on correct prediction")
	}
}

func TestUpdateOneMovesTowardLabel(t *testing.T) {
	m := &Model{Class: hdc.NewMatrix(2, 4), opts: Options{LearningRate: 0.5}}
	copy(m.Class.Row(0), []float32{1, 0, 0, 0})
	copy(m.Class.Row(1), []float32{0, 1, 0, 0})
	m.Scorer().Refresh()
	h := []float32{0, 2, 0, 0} // looks like class 1, labelled 0
	sims := make([]float64, 2)
	simBefore := hdc.Cosine(m.Class.Row(0), h)
	if !m.updateNormed(h, hdc.Norm(h), 0, sims) {
		t.Fatal("misprediction did not update")
	}
	if after := hdc.Cosine(m.Class.Row(0), h); after <= simBefore {
		t.Errorf("label similarity did not increase: %v -> %v", simBefore, after)
	}
	// Norm cache must match fresh norms after the update.
	for i, cached := range m.Scorer().norms {
		if math.Abs(hdc.Norm(m.Class.Row(i))-cached) > 1e-9 {
			t.Fatalf("stale norm cache at row %d", i)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	x, y := blobs(400, 6, 3, 0.3, 104, 8)
	train := func() *Model {
		m, err := Train(encoder.NewRBF(6, 128, 0, 5), x, y,
			Options{Classes: 3, Epochs: 3, RegenCycles: 2, RegenRate: 0.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := train(), train()
	if !a.Class.Equal(b.Class) {
		t.Fatal("same-seed training produced different models")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs(300, 6, 3, 0.3, 105, 12)
	m, err := Train(encoder.NewRBF(6, 128, 0, 5), x, y, Options{Classes: 3, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(x)
	for _, i := range []int{0, 50, 150, 299} {
		if single := m.Predict(x.Row(i)); single != batch[i] {
			t.Fatalf("row %d: batch %d != single %d", i, batch[i], single)
		}
	}
}

func TestHistoryAccuracyNonTrivial(t *testing.T) {
	x, y := blobs(800, 8, 4, 0.3, 107, 20)
	m, err := Train(encoder.NewRBF(8, 256, 0, 5), x, y,
		Options{Classes: 4, Epochs: 3, RegenCycles: 2, RegenRate: 0.15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range m.History {
		if h.TrainAcc < 0.5 || h.TrainAcc > 1 {
			t.Errorf("history[%d].TrainAcc = %v", i, h.TrainAcc)
		}
	}
}
