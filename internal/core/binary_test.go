package core

import (
	"testing"

	"cyberhd/internal/encoder"
)

func TestTrainBinaryValidation(t *testing.T) {
	x, y := blobs(20, 4, 2, 0.1, 400, 1)
	enc := encoder.NewRBF(4, 64, 0, 1)
	if _, err := TrainBinary(enc, x, y, 1); err == nil {
		t.Error("accepted 1 class")
	}
	if _, err := TrainBinary(enc, x, y[:3], 2); err == nil {
		t.Error("accepted label mismatch")
	}
	bad := append([]int(nil), y...)
	bad[0] = 5
	if _, err := TrainBinary(enc, x, bad, 2); err == nil {
		t.Error("accepted out-of-range label")
	}
	// A class with zero samples must be rejected (labels all 0, classes 3).
	zeros := make([]int, len(y))
	if _, err := TrainBinary(enc, x, zeros, 3); err == nil {
		t.Error("accepted empty class")
	}
}

func TestBinaryLearnsBlobs(t *testing.T) {
	x, y := blobs(2000, 10, 4, 0.3, 401, 1)
	xt, yt := blobs(500, 10, 4, 0.3, 401, 2)
	m, err := TrainBinary(encoder.NewRBF(10, 2048, 0, 7), x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(xt, yt); acc < 0.85 {
		t.Errorf("binary HDC accuracy = %v, want >= 0.85", acc)
	}
	if m.Dim() != 2048 || m.NumClasses() != 4 {
		t.Fatalf("shape %dx%d", m.NumClasses(), m.Dim())
	}
	if m.MemoryBits() != 4*2048 {
		t.Fatalf("MemoryBits = %d", m.MemoryBits())
	}
}

func TestBinaryDeterministic(t *testing.T) {
	x, y := blobs(300, 6, 3, 0.3, 402, 1)
	a, err := TrainBinary(encoder.NewRBF(6, 256, 0, 3), x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TrainBinary(encoder.NewRBF(6, 256, 0, 3), x, y, 3)
	for c := 0; c < 3; c++ {
		for d := 0; d < 256; d++ {
			if a.Class.Rows[c].Get(d) != b.Class.Rows[c].Get(d) {
				t.Fatal("same-seed binary training differs")
			}
		}
	}
}

func TestBinaryPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs(200, 6, 3, 0.3, 403, 1)
	m, err := TrainBinary(encoder.NewRBF(6, 256, 0, 3), x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(x)
	for _, i := range []int{0, 50, 199} {
		if p := m.Predict(x.Row(i)); p != batch[i] {
			t.Fatalf("row %d: %d != %d", i, p, batch[i])
		}
	}
}
