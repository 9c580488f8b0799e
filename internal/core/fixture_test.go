package core

import (
	"testing"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// blobs builds a k-class Gaussian-mixture problem with class means separated
// enough to be learnable but noisy enough that a weak model misclassifies.
func blobs(n, features, k int, noise float64, meanSeed, noiseSeed uint64) (*hdc.Matrix, []int) {
	mr := rng.New(meanSeed)
	means := hdc.NewMatrix(k, features)
	mr.FillNorm(means.Data, 0, 1)
	r := rng.New(noiseSeed)
	x := hdc.NewMatrix(n, features)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		y[i] = c
		row := x.Row(i)
		for j := 0; j < features; j++ {
			row[j] = means.At(c, j) + float32(noise*r.Norm())
		}
	}
	return x, y
}

// toyModel trains the package's toy model — classes blobs over 8 features
// into dim dimensions, the encoder seeded with seed — and returns it with
// its training set. Training is fully seeded, so two calls with the same
// arguments return bit-identical models; toyModel(t, 3, 64, 9) is the
// model testdata/model_v1.snapshot was written from.
func toyModel(t testing.TB, classes, dim int, seed uint64) (*Model, *hdc.Matrix, []int) {
	t.Helper()
	x, y := blobs(600, 8, classes, 0.3, 300, 1)
	m, err := Train(encoder.NewRBF(8, dim, 0, seed), x, y, Options{Classes: classes, Epochs: 3, RegenCycles: 2, RegenRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y
}

// ToyModel is toyModel for the package's external tests.
var ToyModel = toyModel
