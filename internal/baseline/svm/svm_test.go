package svm

import (
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

// xorProblem is linearly inseparable: class = [sign(x0) == sign(x1)].
func xorProblem(n int, seed uint64) (*hdc.Matrix, []int) {
	r := rng.New(seed)
	x := hdc.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.Norm(), r.Norm()
		x.Row(i)[0], x.Row(i)[1] = float32(a), float32(b)
		if (a > 0) == (b > 0) {
			y[i] = 1
		}
	}
	return x, y
}

func TestValidation(t *testing.T) {
	x, y := blobs(10, 4, 2, 0.1, 1, 2)
	if _, err := TrainLinear(x, y, 1, LinearOptions{}); err == nil {
		t.Error("linear accepted 1 class")
	}
	if _, err := TrainLinear(x, y[:4], 2, LinearOptions{}); err == nil {
		t.Error("linear accepted mismatch")
	}
	if _, err := TrainKernel(x, []int{0, 1, 5, 0, 1, 0, 1, 0, 1, 0}, 2, KernelOptions{}); err == nil {
		t.Error("kernel accepted bad label")
	}
	if _, err := TrainKernel(hdc.NewMatrix(0, 4), nil, 2, KernelOptions{}); err == nil {
		t.Error("kernel accepted empty set")
	}
}

func TestLinearLearnsBlobs(t *testing.T) {
	x, y := blobs(2000, 10, 4, 0.3, 11, 1)
	xt, yt := blobs(500, 10, 4, 0.3, 11, 2)
	m, err := TrainLinear(x, y, 4, LinearOptions{Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(xt, yt); acc < 0.9 {
		t.Errorf("linear accuracy = %v, want >= 0.9", acc)
	}
}

func TestLinearFailsXorKernelSolvesIt(t *testing.T) {
	x, y := xorProblem(1500, 3)
	xt, yt := xorProblem(500, 4)
	lin, err := TrainLinear(x, y, 2, LinearOptions{Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := lin.Evaluate(xt, yt)
	if linAcc > 0.72 {
		t.Errorf("linear solved XOR (%v); problem too easy", linAcc)
	}
	k, err := TrainKernel(x, y, 2, KernelOptions{Gamma: 1, Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kAcc := k.Evaluate(xt, yt)
	if kAcc < 0.85 {
		t.Errorf("kernel accuracy on XOR = %v, want >= 0.85", kAcc)
	}
	if kAcc <= linAcc {
		t.Errorf("kernel (%v) did not beat linear (%v) on XOR", kAcc, linAcc)
	}
}

func TestKernelLearnsBlobs(t *testing.T) {
	x, y := blobs(800, 8, 3, 0.3, 21, 1)
	xt, yt := blobs(300, 8, 3, 0.3, 21, 2)
	m, err := TrainKernel(x, y, 3, KernelOptions{Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(xt, yt); acc < 0.88 {
		t.Errorf("kernel accuracy = %v, want >= 0.88", acc)
	}
}

func TestLinearDeterministic(t *testing.T) {
	x, y := blobs(300, 5, 3, 0.3, 41, 1)
	a, err := TrainLinear(x, y, 3, LinearOptions{Epochs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TrainLinear(x, y, 3, LinearOptions{Epochs: 3, Seed: 7})
	for i := range a.W.Data {
		if a.W.Data[i] != b.W.Data[i] {
			t.Fatal("same-seed linear training differs")
		}
	}
}

func TestKernelDeterministic(t *testing.T) {
	x, y := blobs(200, 5, 2, 0.3, 51, 1)
	a, err := TrainKernel(x, y, 2, KernelOptions{Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TrainKernel(x, y, 2, KernelOptions{Epochs: 2, Seed: 7})
	for c := range a.Alpha {
		for i := range a.Alpha[c] {
			if a.Alpha[c][i] != b.Alpha[c][i] {
				t.Fatal("same-seed kernel training differs")
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs(200, 5, 3, 0.3, 61, 1)
	lin, err := TrainLinear(x, y, 3, LinearOptions{Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := lin.PredictBatch(x)
	for _, i := range []int{0, 100, 199} {
		if p := lin.Predict(x.Row(i)); p != batch[i] {
			t.Fatalf("linear row %d: %d != %d", i, p, batch[i])
		}
	}
}
