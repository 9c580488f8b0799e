package faults

import (
	"math"
	"math/bits"
	"strings"
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

// flippedBits counts the storage bits in which a and b differ.
func flippedBits(a, b *bitpack.Matrix) int {
	diffs := 0
	for i, row := range a.Rows {
		for j, w := range row.Words {
			diffs += bits.OnesCount64(w ^ b.Rows[i].Words[j])
		}
	}
	return diffs
}

// badRates are the rates every injector must refuse.
var badRates = []float64{-0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}

// refuses reports whether f panics with one of the package's own messages;
// a runtime error inside an injector does not count.
func refuses(f func()) (ok bool) {
	defer func() {
		msg, _ := recover().(string)
		ok = strings.HasPrefix(msg, "faults: ")
	}()
	f()
	return false
}

func TestInjectQuantizedCorruptsExpectedFraction(t *testing.T) {
	for _, w := range bitpack.Widths {
		m := packed(t, 4, 500, w)
		orig := m.Clone()
		n := InjectQuantizedBits(m, 0.1, rng.New(uint64(w)))
		if want := int(math.Round(0.1 * float64(orig.StorageBits()))); n != want {
			t.Fatalf("w=%d: reported %d flips, want %d", w, n, want)
		}
		if diffs := flippedBits(m, orig); diffs != n {
			t.Errorf("w=%d: %d storage bits differ, %d reported", w, diffs, n)
		}
		again := orig.Clone()
		InjectQuantizedBits(again, 0.1, rng.New(uint64(w)))
		if flippedBits(m, again) != 0 {
			t.Errorf("w=%d: same-seed injection differs", w)
		}
	}
}

func TestInjectQuantizedZeroRate(t *testing.T) {
	m := packed(t, 2, 100, bitpack.W8)
	orig := m.Clone()
	if n := InjectQuantizedBits(m, 0, rng.New(1)); n != 0 {
		t.Fatalf("rate 0 flipped %d", n)
	}
	if flippedBits(m, orig) != 0 {
		t.Fatal("rate 0 changed memory")
	}
}

func TestInjectQuantizedFullRate(t *testing.T) {
	for _, w := range bitpack.Widths {
		m := packed(t, 2, 64, w)
		orig := m.Clone()
		total := orig.StorageBits()
		if n := InjectQuantizedBits(m, 1, rng.New(2)); n != total {
			t.Fatalf("w=%d: full rate flipped %d, want %d", w, n, total)
		}
		if diffs := flippedBits(m, orig); diffs != total {
			t.Fatalf("w=%d: full rate inverted %d of %d storage bits", w, diffs, total)
		}
	}
}

func TestInjectQuantizedBadRatePanics(t *testing.T) {
	m := packed(t, 1, 8, bitpack.W1)
	for _, rate := range badRates {
		if !refuses(func() { InjectQuantizedBits(m, rate, rng.New(1)) }) {
			t.Errorf("rate %v was not refused", rate)
		}
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
	const mul = 2
	n := InjectFloat32Bits(w, 0.15, mul, r)
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
		if a := math.Abs(float64(w[i])); a > mul*maxAbs*1.0001 {
			t.Fatalf("word %d = %v escapes the %v× clamp on |w| <= %v", i, w[i], mul, maxAbs)
		}
	}
	if diffs == 0 || diffs > n {
		t.Errorf("%d words differ after %d bit flips", diffs, n)
	}
	// A bad rate or a non-positive clamp panics.
	bad := [][2]float64{{0.1, 0}, {0.1, -1}, {0.1, math.NaN()}}
	for _, rate := range badRates {
		bad = append(bad, [2]float64{rate, mul})
	}
	for _, c := range bad {
		if !refuses(func() { InjectFloat32Bits(w, c[0], c[1], r) }) {
			t.Errorf("rate %v, mul %v was not refused", c[0], c[1])
		}
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
	InjectFloat32Bits(a, 0.02, 1, rng.New(42))
	InjectFloat32Bits(b, 0.02, 1, rng.New(42))
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
