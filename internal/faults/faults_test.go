package faults

import (
	"math"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/rng"
)

func packed(t *testing.T, rows, dim int, w bitpack.Width) *bitpack.Matrix {
	t.Helper()
	r := rng.New(77)
	flat := make([]float32, rows*dim)
	r.FillNorm(flat, 0, 1)
	return bitpack.QuantizeMatrix(flat, rows, dim, w)
}

func countDiffs(a, b *bitpack.Matrix) int {
	diffs := 0
	for i := range a.Rows {
		for j := 0; j < a.Rows[i].Dim; j++ {
			if a.Rows[i].Get(j) != b.Rows[i].Get(j) {
				diffs++
			}
		}
	}
	return diffs
}

func TestInjectQuantizedCorruptsExpectedFraction(t *testing.T) {
	for _, w := range bitpack.Widths {
		m := packed(t, 4, 500, w)
		orig := m.Clone()
		r := rng.New(uint64(w))
		n := InjectQuantized(m, 0.1, r)
		if want := 200; n != want { // 4*500*0.1
			t.Fatalf("w=%d: reported %d corruptions, want %d", w, n, want)
		}
		diffs := countDiffs(m, orig)
		// Every corrupted element must differ (a single bit flip always
		// changes a two's-complement value, and a 1-bit flip negates).
		if diffs != n {
			t.Errorf("w=%d: %d elements differ, %d reported", w, diffs, n)
		}
	}
}

func TestInjectQuantizedZeroRate(t *testing.T) {
	m := packed(t, 2, 100, bitpack.W8)
	orig := m.Clone()
	if n := InjectQuantized(m, 0, rng.New(1)); n != 0 {
		t.Fatalf("rate 0 corrupted %d", n)
	}
	if countDiffs(m, orig) != 0 {
		t.Fatal("rate 0 changed memory")
	}
}

func TestInjectQuantizedFullRate(t *testing.T) {
	m := packed(t, 2, 64, bitpack.W1)
	orig := m.Clone()
	n := InjectQuantized(m, 1, rng.New(2))
	if n != 128 {
		t.Fatalf("full rate corrupted %d, want 128", n)
	}
	if diffs := countDiffs(m, orig); diffs != 128 {
		t.Fatalf("full rate changed %d elements", diffs)
	}
}

func TestInjectQuantizedBadRatePanics(t *testing.T) {
	m := packed(t, 1, 8, bitpack.W1)
	for _, rate := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			InjectQuantized(m, rate, rng.New(1))
		}()
	}
}

func TestInjectFloat32(t *testing.T) {
	r := rng.New(5)
	w := make([]float32, 1000)
	r.FillNorm(w, 0, 1)
	orig := append([]float32(nil), w...)
	var maxAbs float64
	for _, v := range orig {
		maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
	}
	n := InjectFloat32Bits(w, 0.15, 0, r)
	if n != 4800 {
		t.Fatalf("reported %d bits, want 15%% of 32000", n)
	}
	diffs := 0
	for i := range w {
		if w[i] != orig[i] {
			diffs++
		}
		if math.IsNaN(float64(w[i])) {
			t.Fatalf("NaN produced at %d", i)
		}
		if a := math.Abs(float64(w[i])); a > DefaultClampMul*maxAbs*1.0001 {
			t.Fatalf("word %d = %v escapes the %v× clamp on |w| <= %v", i, w[i], DefaultClampMul, maxAbs)
		}
	}
	if diffs == 0 || diffs > n {
		t.Errorf("%d words differ after %d bit flips", diffs, n)
	}
}

func TestInjectFloat32CanBlowUpMagnitude(t *testing.T) {
	// The mechanism behind DNN fragility: with the clamp out of the way,
	// some exponent MSB flip among many injections produces a huge weight.
	r := rng.New(9)
	w := make([]float32, 20000)
	r.FillNorm(w, 0, 1)
	InjectFloat32Bits(w, 0.02, 1e30, r)
	var maxAbs float64
	for _, v := range w {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 1e6 {
		t.Errorf("max |w| after injection = %v; expected exponent flips to blow up some weights", maxAbs)
	}
}

func TestInjectFloat32Deterministic(t *testing.T) {
	base := make([]float32, 500)
	rng.New(3).FillNorm(base, 0, 1)
	a := append([]float32(nil), base...)
	b := append([]float32(nil), base...)
	InjectFloat32Bits(a, 0.02, 0, rng.New(42))
	InjectFloat32Bits(b, 0.02, 0, rng.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed injection differs")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(200)
		k := r.Intn(n + 1)
		picks := sampleWithoutReplacement(n, k, r)
		if len(picks) != k {
			t.Fatalf("got %d picks, want %d", len(picks), k)
		}
		seen := map[int]bool{}
		for _, p := range picks {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("invalid or duplicate pick %d (n=%d)", p, n)
			}
			seen[p] = true
		}
	}
}

func TestSampleWithoutReplacementKExceedsN(t *testing.T) {
	picks := sampleWithoutReplacement(5, 10, rng.New(1))
	if len(picks) != 5 {
		t.Fatalf("got %d picks, want clamped 5", len(picks))
	}
}
