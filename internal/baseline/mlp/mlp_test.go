package mlp

import (
	"math"
	"testing"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

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
		for j := 0; j < features; j++ {
			x.Row(i)[j] = means.At(c, j) + float32(noise*r.Norm())
		}
	}
	return x, y
}

func TestTrainValidation(t *testing.T) {
	x, y := blobs(10, 4, 2, 0.1, 1, 2)
	if _, err := Train(x, y, 1, Options{}); err == nil {
		t.Error("accepted 1 class")
	}
	if _, err := Train(x, y[:5], 2, Options{}); err == nil {
		t.Error("accepted label mismatch")
	}
	if _, err := Train(hdc.NewMatrix(0, 4), nil, 2, Options{}); err == nil {
		t.Error("accepted empty set")
	}
	bad := append([]int(nil), y...)
	bad[0] = 9
	if _, err := Train(x, bad, 2, Options{}); err == nil {
		t.Error("accepted bad label")
	}
}

func TestLearnsBlobs(t *testing.T) {
	x, y := blobs(2000, 10, 4, 0.35, 11, 1)
	xt, yt := blobs(500, 10, 4, 0.35, 11, 2)
	n, err := Train(x, y, 4, Options{Hidden: []int{64, 32}, Epochs: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := n.Evaluate(xt, yt); acc < 0.9 {
		t.Errorf("accuracy = %v, want >= 0.9", acc)
	}
}

func TestLearnsNonLinearProblem(t *testing.T) {
	// XOR-style: class = sign(x0)·sign(x1); linearly inseparable, so a
	// working hidden layer is required.
	r := rng.New(5)
	n := 2000
	x := hdc.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.Norm(), r.Norm()
		x.Row(i)[0], x.Row(i)[1] = float32(a), float32(b)
		if (a > 0) == (b > 0) {
			y[i] = 1
		}
	}
	net, err := Train(x, y, 2, Options{Hidden: []int{32}, Epochs: 30, LearningRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := net.Evaluate(x, y); acc < 0.9 {
		t.Errorf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestDeterministic(t *testing.T) {
	x, y := blobs(300, 6, 3, 0.3, 21, 1)
	a, err := Train(x, y, 3, Options{Hidden: []int{16}, Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Train(x, y, 3, Options{Hidden: []int{16}, Epochs: 3, Seed: 9})
	wa, wb := a.Weights(), b.Weights()
	for li := range wa {
		for i := range wa[li] {
			if wa[li][i] != wb[li][i] {
				t.Fatal("same-seed training produced different weights")
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs(200, 6, 3, 0.3, 31, 1)
	n, err := Train(x, y, 3, Options{Hidden: []int{16}, Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// PredictBatch reuses one set of activations per chunk; fresh ones
	// per row must give the same verdicts.
	batch := n.PredictBatch(x)
	for _, i := range []int{0, 99, 199} {
		if p := n.predictWith(x.Row(i), n.newActivations()); p != batch[i] {
			t.Fatalf("row %d: %d != %d", i, p, batch[i])
		}
	}
}

func TestWeightsExposeLiveStorage(t *testing.T) {
	x, y := blobs(300, 6, 3, 0.2, 41, 1)
	n, err := Train(x, y, 3, Options{Hidden: []int{16}, Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	accBefore := n.Evaluate(x, y)
	for _, w := range n.Weights() {
		for i := range w {
			w[i] = 0
		}
	}
	accAfter := n.Evaluate(x, y)
	if accAfter >= accBefore && accBefore > 0.5 {
		t.Fatalf("zeroing exposed weights did not degrade: %v -> %v", accBefore, accAfter)
	}
}

func TestCloneIsolation(t *testing.T) {
	x, y := blobs(300, 6, 3, 0.2, 51, 1)
	n, err := Train(x, y, 3, Options{Hidden: []int{16}, Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := n.Evaluate(x, y)
	c := n.Clone()
	for _, w := range c.Weights() {
		for i := range w {
			w[i] = float32(math.Inf(1))
		}
	}
	if got := n.Evaluate(x, y); got != acc {
		t.Fatalf("corrupting clone changed original: %v -> %v", acc, got)
	}
}

func TestSoftmaxDegenerate(t *testing.T) {
	out := make([]float32, 3)
	softmax([]float32{float32(math.Inf(1)), float32(math.Inf(1)), 0}, out)
	var sum float32
	for _, v := range out {
		if math.IsNaN(float64(v)) {
			t.Fatal("softmax produced NaN")
		}
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestPredictSurvivesCorruptWeights(t *testing.T) {
	// After extreme corruption predictions must still be valid class ids.
	x, y := blobs(100, 5, 3, 0.2, 71, 1)
	n, err := Train(x, y, 3, Options{Hidden: []int{8}, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := n.Weights()
	w[0][0] = float32(math.Inf(1))
	w[2][3] = float32(math.Inf(-1))
	for _, p := range n.PredictBatch(x) {
		if p < 0 || p >= 3 {
			t.Fatalf("invalid prediction %d", p)
		}
	}
}
