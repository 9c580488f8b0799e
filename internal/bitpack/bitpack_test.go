package bitpack

import (
	"math"
	"testing"
	"testing/quick"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func TestSetGetRoundTripAllWidths(t *testing.T) {
	for _, w := range Widths {
		v := NewVector(100, w)
		maxQ := w.MaxQ()
		r := rng.New(uint64(w))
		want := make([]int64, v.Dim)
		for i := 0; i < v.Dim; i++ {
			q := int64(r.Intn(int(2*maxQ+1))) - maxQ
			if w == W1 {
				if q >= 0 {
					q = 1
				} else {
					q = -1
				}
			}
			v.Set(i, q)
			want[i] = q
		}
		for i := 0; i < v.Dim; i++ {
			if got := v.Get(i); got != want[i] {
				t.Fatalf("w=%d: Get(%d) = %d, want %d", w, i, got, want[i])
			}
		}
	}
}

func TestSetDoesNotDisturbNeighbors(t *testing.T) {
	for _, w := range []Width{W2, W4, W8, W16} {
		v := NewVector(64, w)
		for i := 0; i < v.Dim; i++ {
			v.Set(i, 1)
		}
		v.Set(5, -1)
		for i := 0; i < v.Dim; i++ {
			want := int64(1)
			if i == 5 {
				want = -1
			}
			if got := v.Get(i); got != want {
				t.Fatalf("w=%d: neighbor %d disturbed: %d", w, i, got)
			}
		}
	}
}

func TestQuantizeDequantizeError(t *testing.T) {
	r := rng.New(7)
	x := make([]float32, 512)
	r.FillNorm(x, 0, 1)
	for _, w := range []Width{W32, W16, W8} {
		v := Quantize(x, w)
		// The inverse of Quantize: Scale·q for every element.
		dst := make([]float32, len(x))
		for i := range dst {
			dst[i] = v.Scale * float32(v.Get(i))
		}
		var maxErr float64
		for i := range x {
			if e := math.Abs(float64(x[i] - dst[i])); e > maxErr {
				maxErr = e
			}
		}
		// error bounded by scale/2 plus float32 representation error,
		// which dominates at 32-bit where the quantization step is tiny
		bound := float64(v.Scale)*0.51 + 4*math.Pow(2, -23)
		if maxErr > bound {
			t.Errorf("w=%d: max error %v > %v", w, maxErr, bound)
		}
	}
}

func TestQuantize1BitSigns(t *testing.T) {
	x := []float32{-2, 3, 0, -0.5}
	v := Quantize(x, W1)
	want := []int64{-1, 1, 1, -1}
	for i := range x {
		if got := v.Get(i); got != want[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want[i])
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	for _, w := range Widths {
		v := Quantize(make([]float32, 10), w)
		if v.Scale <= 0 {
			t.Fatalf("w=%d: non-positive scale on zero input", w)
		}
	}
}

// TestQuantizeNaNPacksAsZero pins one NaN rule on every build: at W2–W32
// a NaN element packs as 0, at W1 as −1 (x_i >= 0 fails), and an all-NaN
// vector packs like an all-zero one. Every other element, and the scale,
// are those of the vector with its NaNs set to 0, since max-abs skips NaN.
func TestQuantizeNaNPacksAsZero(t *testing.T) {
	r := rng.New(606)
	for _, w := range Widths {
		for _, n := range []int{8, 31, 64, 512} {
			for _, at := range []int{0, n - 1, -1} {
				x := make([]float32, n)
				r.FillNorm(x, 0, 1)
				zeroed := append([]float32(nil), x...)
				for i := range x {
					if i == at || at < 0 {
						x[i], zeroed[i] = float32(math.NaN()), 0
					}
				}
				got, ref := Quantize(x, w), Quantize(zeroed, w)
				if got.Scale != ref.Scale {
					t.Fatalf("w=%d n=%d NaN at %d: scale %v, want %v", w, n, at, got.Scale, ref.Scale)
				}
				for i := range x {
					want := ref.Get(i)
					if x[i] != x[i] && w == W1 && at >= 0 {
						want = -1
					}
					if q := got.Get(i); q != want {
						t.Fatalf("w=%d n=%d NaN at %d: element %d packs %d, want %d", w, n, at, i, q, want)
					}
				}
			}
		}
	}
}

func TestDot1MatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		x := make([]float32, n)
		y := make([]float32, n)
		r.FillNorm(x, 0, 1)
		r.FillNorm(y, 0, 1)
		a, b := Quantize(x, W1), Quantize(y, W1)
		var naive float64
		for i := 0; i < n; i++ {
			naive += float64(a.Get(i) * b.Get(i))
		}
		return Dot(a, b) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotAgainstFloat(t *testing.T) {
	r := rng.New(9)
	n := 256
	x := make([]float32, n)
	y := make([]float32, n)
	r.FillNorm(x, 0, 1)
	r.FillNorm(y, 0, 1)
	fdot := hdc.Dot(x, y)
	for _, w := range []Width{W32, W16, W8} {
		a, b := Quantize(x, w), Quantize(y, w)
		got := Dot(a, b) * float64(a.Scale) * float64(b.Scale)
		if math.Abs(got-fdot) > 0.05*math.Abs(fdot)+0.5 {
			t.Errorf("w=%d: quantized dot %v vs float %v", w, got, fdot)
		}
	}
}

func TestCosineSelf(t *testing.T) {
	r := rng.New(11)
	x := make([]float32, 200)
	r.FillNorm(x, 0, 1)
	for _, w := range Widths {
		v := Quantize(x, w)
		if got := Cosine(v, v); math.Abs(got-1) > 1e-9 {
			t.Errorf("w=%d: self cosine = %v", w, got)
		}
	}
}

func TestCosinePreservesSimilarityOrdering(t *testing.T) {
	// A query should stay closer to a correlated vector than to an
	// independent one after quantization at any width.
	r := rng.New(13)
	n := 2048
	base := make([]float32, n)
	r.FillNorm(base, 0, 1)
	near := make([]float32, n)
	copy(near, base)
	for i := 0; i < n/10; i++ { // perturb 10%
		near[r.Intn(n)] = r.NormFloat32()
	}
	far := make([]float32, n)
	r.FillNorm(far, 0, 1)
	for _, w := range Widths {
		q := Quantize(base, w)
		a := Quantize(near, w)
		b := Quantize(far, w)
		if Cosine(q, a) <= Cosine(q, b) {
			t.Errorf("w=%d: ordering lost: near %v <= far %v", w, Cosine(q, a), Cosine(q, b))
		}
	}
}

func TestFlipBitChangesExactlyOneElement(t *testing.T) {
	for _, w := range Widths {
		r := rng.New(uint64(w) * 17)
		x := make([]float32, 97)
		r.FillNorm(x, 0, 1)
		v := Quantize(x, w)
		for trial := 0; trial < 50; trial++ {
			k := r.Intn(v.StorageBits())
			before := make([]int64, v.Dim)
			for i := range before {
				before[i] = v.Get(i)
			}
			v.FlipBit(k)
			changed := 0
			for i := range before {
				if v.Get(i) != before[i] {
					changed++
				}
			}
			if changed != 1 {
				t.Fatalf("w=%d: flip changed %d elements", w, changed)
			}
			v.FlipBit(k) // flip back is identity
			for i := range before {
				if v.Get(i) != before[i] {
					t.Fatalf("w=%d: double flip not identity", w)
				}
			}
		}
	}
}

func TestFlipBitOutOfRange(t *testing.T) {
	v := NewVector(10, W1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.FlipBit(10)
}

func TestMatrixQuantizeClassify(t *testing.T) {
	// Three well-separated class prototypes; quantized classification at
	// every width must recover the right class for perturbed queries.
	r := rng.New(19)
	const dim = 1024
	classes := make([][]float32, 3)
	flat := make([]float32, 3*dim)
	for c := range classes {
		classes[c] = flat[c*dim : (c+1)*dim]
		r.FillNorm(classes[c], 0, 1)
	}
	for _, w := range Widths {
		m := QuantizeMatrix(flat, 3, dim, w)
		for c := range classes {
			q := make([]float32, dim)
			copy(q, classes[c])
			for i := 0; i < dim/20; i++ {
				q[r.Intn(dim)] = r.NormFloat32()
			}
			if got := m.Classify(Quantize(q, w)); got != c {
				t.Errorf("w=%d: classified %d as %d", w, c, got)
			}
		}
	}
}

func TestMatrixFlipBitSpansRows(t *testing.T) {
	flat := []float32{1, -1, 1, -1, 1, -1, 1, -1}
	m := QuantizeMatrix(flat, 2, 4, W1)
	total := m.StorageBits()
	if total != 8 {
		t.Fatalf("StorageBits = %d, want 8", total)
	}
	// Flip a bit in the second row's range; first row must be untouched.
	before := m.Rows[0].Clone()
	m.FlipBit(5)
	for i := 0; i < 4; i++ {
		if m.Rows[0].Get(i) != before.Get(i) {
			t.Fatal("flip leaked into row 0")
		}
	}
	if m.Rows[1].Get(1) == -1 {
		t.Fatal("bit 5 (row 1, elem 1) not flipped")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	flat := []float32{1, 2, 3, 4}
	m := QuantizeMatrix(flat, 2, 2, W8)
	c := m.Clone()
	c.Rows[0].Set(0, -5)
	if m.Rows[0].Get(0) == -5 {
		t.Fatal("Clone aliases storage")
	}
}

func TestWidthHelpers(t *testing.T) {
	if W1.MaxQ() != 1 || W8.MaxQ() != 127 || W16.MaxQ() != 32767 {
		t.Fatal("MaxQ wrong")
	}
	if Width(3).Valid() {
		t.Fatal("Width(3) should be invalid")
	}
	for _, w := range Widths {
		if !w.Valid() {
			t.Fatalf("width %d should be valid", w)
		}
	}
}

func TestNewVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid width")
		}
	}()
	NewVector(10, Width(5))
}
