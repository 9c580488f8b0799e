package quantize

import (
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func trainedModel(t testing.TB) (*core.Model, *hdc.Matrix, []int, *hdc.Matrix, []int) {
	t.Helper()
	mr := rng.New(500)
	means := hdc.NewMatrix(4, 12)
	mr.FillNorm(means.Data, 0, 1)
	gen := func(n int, seed uint64) (*hdc.Matrix, []int) {
		r := rng.New(seed)
		x := hdc.NewMatrix(n, 12)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := i % 4
			y[i] = c
			for j := 0; j < 12; j++ {
				x.Row(i)[j] = means.At(c, j) + float32(0.3*r.Norm())
			}
		}
		return x, y
	}
	x, y := gen(1500, 1)
	xt, yt := gen(500, 2)
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, y,
		core.Options{Classes: 4, Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y, xt, yt
}

func TestFromCoreInvalidWidth(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	if _, err := FromCore(m, bitpack.Width(3)); err == nil {
		t.Fatal("accepted invalid width")
	}
}

func TestQuantizedAccuracyTracksFloat(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	floatAcc := m.Evaluate(xt, yt)
	if floatAcc < 0.9 {
		t.Fatalf("float model too weak to test quantization: %v", floatAcc)
	}
	for _, w := range bitpack.Widths {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		acc := q.Evaluate(xt, yt)
		// Wide quantization should be nearly lossless; even 1-bit should
		// retain most of the accuracy on a well-separated problem.
		minAcc := floatAcc - 0.02
		if w <= bitpack.W2 {
			minAcc = floatAcc - 0.15
		}
		if acc < minAcc {
			t.Errorf("w=%d: quantized acc %v too far below float %v", w, acc, floatAcc)
		}
	}
}

func TestQuantizedShapeAndMemory(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	q, err := FromCore(m, bitpack.W8)
	if err != nil {
		t.Fatal(err)
	}
	if rows, dim := len(q.Class.Rows), q.Class.Rows[0].Dim; dim != 512 || rows != 4 {
		t.Fatalf("shape %dx%d", rows, dim)
	}
	if want := 4 * 512 * 8; q.MemoryBits() != want {
		t.Fatalf("MemoryBits = %d, want %d", q.MemoryBits(), want)
	}
	q1, _ := FromCore(m, bitpack.W1)
	if q1.MemoryBits() != 4*512 {
		t.Fatalf("1-bit MemoryBits = %d", q1.MemoryBits())
	}
}

func TestPredictMatchesPredictEncoded(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W4)
	h := make([]float32, m.Enc.Dim())
	for _, i := range []int{0, 10, 100} {
		m.Enc.Encode(x.Row(i), h)
		if q.Predict(x.Row(i)) != q.PredictEncoded(h) {
			t.Fatalf("Predict != PredictEncoded at row %d", i)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	c := q.Clone()
	accBefore := q.Evaluate(xt, yt)
	// Corrupt the clone heavily; original must be unchanged.
	for i := 0; i < c.Class.StorageBits(); i += 2 {
		c.Class.FlipBit(i)
	}
	if acc := q.Evaluate(xt, yt); acc != accBefore {
		t.Fatalf("corrupting clone changed original: %v -> %v", accBefore, acc)
	}
}

func TestEvaluateLabelMismatchPanics(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Evaluate(x, []int{0})
}
