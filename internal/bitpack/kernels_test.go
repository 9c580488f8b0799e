package bitpack

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cyberhd/internal/rng"
)

// scalarDot is the element-at-a-time Get reference every kernel path —
// scalar, SWAR and assembly alike — must reproduce bit-for-bit. W1–W16
// sums are exact integers, so plain index-order float64 accumulation is
// the (order-independent) contract; W32 is real floating-point work, so
// its contract is the fixed 4-lane scheme: lane = index mod 4, lanes
// folded sequentially.
func scalarDot(a, b *Vector) float64 {
	if a.Width == W32 {
		var l [4]float64
		for i := 0; i < a.Dim; i++ {
			l[i&3] += float64(a.Get(i)) * float64(b.Get(i))
		}
		return ((l[0] + l[1]) + l[2]) + l[3]
	}
	var s float64
	for i := 0; i < a.Dim; i++ {
		s += float64(a.Get(i)) * float64(b.Get(i))
	}
	return s
}

// randVec quantizes a random float vector at width w.
func randVec(r *rng.Rand, dim int, w Width) *Vector {
	x := make([]float32, dim)
	r.FillNorm(x, 0, 1)
	return Quantize(x, w)
}

// edgeDims exercises full words, partial last words, sub-word vectors,
// and both sides of the 4-word assembly block boundary at every width:
// 64 elements/word at W1 (so 255..257 straddles one whole AVX2 block),
// 32 at W2, 16 at W4, 8 at W8, 4 at W16, 2 at W32.
var edgeDims = []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97, 128,
	255, 256, 257, 511, 512, 513, 1023, 1024, 1025}

func TestDotKernelMatchesScalarAllWidths(t *testing.T) {
	for _, w := range Widths {
		for _, dim := range edgeDims {
			r := rng.New(uint64(w)*1000 + uint64(dim))
			a, b := randVec(r, dim, w), randVec(r, dim, w)
			got, want := Dot(a, b), scalarDot(a, b)
			if got != want {
				t.Errorf("w=%d dim=%d: kernel Dot %v != scalar %v", w, dim, got, want)
			}
		}
	}
}

func TestNormSqMatchesScalar(t *testing.T) {
	for _, w := range Widths {
		for _, dim := range edgeDims {
			r := rng.New(uint64(w)*2000 + uint64(dim))
			v := randVec(r, dim, w)
			var want float64
			if w == W1 {
				want = float64(dim)
			} else {
				want = scalarDot(v, v)
			}
			if got := NormSq(v); got != want {
				t.Errorf("w=%d dim=%d: NormSq %v != scalar %v", w, dim, got, want)
			}
		}
	}
}

// TestMatVecIntoMatchesDot pins batch ≡ per-sample bit-identity for every
// row count around the 4-row panel boundary, at every width.
func TestMatVecIntoMatchesDot(t *testing.T) {
	for _, w := range Widths {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
			for _, dim := range []int{17, 64, 97, 255, 512, 1025} {
				r := rng.New(uint64(w)*3000 + uint64(rows*1000+dim))
				m := &Matrix{Rows: make([]*Vector, rows)}
				for i := range m.Rows {
					m.Rows[i] = randVec(r, dim, w)
				}
				q := randVec(r, dim, w)
				out := make([]float64, rows)
				MatVecInto(m, q, out)
				for i := range m.Rows {
					if want := Dot(m.Rows[i], q); out[i] != want {
						t.Fatalf("w=%d rows=%d dim=%d: out[%d] = %v, want Dot %v", w, rows, dim, i, out[i], want)
					}
				}
			}
		}
	}
}

// polluteSlack sets every payload-free bit in v's last word, simulating
// stale garbage from pooled QuantizeInto reuse.
func polluteSlack(v *Vector) {
	per := 64 / int(v.Width)
	used := uint((v.Dim - (v.Dim/per)*per) * int(v.Width))
	if used > 0 {
		v.Words[len(v.Words)-1] |= ^(uint64(1)<<used - 1)
	}
}

// TestPartialWordMaskingEdgeWidths pins the partial-last-word contract at
// every width: a vector whose dim leaves unused slots in its last word
// must score identically whether the slack bits are zero (fresh Quantize)
// or stale garbage — on either operand, through single dots, panels and
// norms alike.
func TestPartialWordMaskingEdgeWidths(t *testing.T) {
	for _, w := range Widths {
		per := 64 / int(w)
		for _, dim := range []int{per + 1, 2*per - 1, 2*per + per/2, 5*per - 1, 9*per + 1} {
			if dim < 1 || dim%per == 0 {
				continue
			}
			r := rng.New(uint64(w)*4000 + uint64(dim))
			x := make([]float32, dim)
			y := make([]float32, dim)
			r.FillNorm(x, 0, 1)
			r.FillNorm(y, 0, 1)
			clean, cleanQ := Quantize(x, w), Quantize(y, w)
			dirty, dirtyQ := clean.Clone(), cleanQ.Clone()
			polluteSlack(dirty)
			polluteSlack(dirtyQ)
			if got, want := Dot(dirty, dirtyQ), Dot(clean, cleanQ); got != want {
				t.Errorf("w=%d dim=%d: slack bits leaked into Dot: %v != %v", w, dim, got, want)
			}
			if got, want := NormSq(dirty), NormSq(clean); got != want {
				t.Errorf("w=%d dim=%d: slack bits leaked into NormSq: %v != %v", w, dim, got, want)
			}
			// Through the 4-row panels, with pollution on rows and query.
			m := &Matrix{Rows: []*Vector{dirty, clean, dirty, clean, dirty}}
			out := make([]float64, 5)
			MatVecInto(m, dirtyQ, out)
			want := Dot(clean, cleanQ)
			for i, got := range out {
				if got != want {
					t.Errorf("w=%d dim=%d: panel row %d leaked slack: %v != %v", w, dim, i, got, want)
				}
			}
		}
	}
}

// TestQuantizeIntoMatchesQuantize checks that packing into a recycled,
// previously-dirty vector reproduces a fresh Quantize exactly — words,
// scale, dim and width.
func TestQuantizeIntoMatchesQuantize(t *testing.T) {
	r := rng.New(77)
	reuse := NewVector(999, W16) // wrong dim and width on purpose
	for i := range reuse.Words {
		reuse.Words[i] = ^uint64(0)
	}
	for _, w := range Widths {
		for _, dim := range edgeDims {
			x := make([]float32, dim)
			r.FillNorm(x, 0, 1)
			want := Quantize(x, w)
			QuantizeInto(x, w, reuse)
			if reuse.Dim != want.Dim || reuse.Width != want.Width || reuse.Scale != want.Scale {
				t.Fatalf("w=%d dim=%d: header mismatch: %+v vs %+v", w, dim, reuse, want)
			}
			if len(reuse.Words) != len(want.Words) {
				t.Fatalf("w=%d dim=%d: %d words, want %d", w, dim, len(reuse.Words), len(want.Words))
			}
			for k := range want.Words {
				if reuse.Words[k] != want.Words[k] {
					t.Fatalf("w=%d dim=%d: word %d = %#x, want %#x", w, dim, k, reuse.Words[k], want.Words[k])
				}
			}
		}
	}
}

// setReference is the per-element Set quantization reference: the slow,
// obviously-correct loop every packing path (word-at-a-time scalar and
// the vectorized quantizers) must reproduce exactly — values, scale and
// words.
func setReference(x []float32, w Width) *Vector {
	v := NewVector(len(x), w)
	var maxAbs float64
	for _, f := range x {
		if a := math.Abs(float64(f)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		v.Scale = 1
		if w == W1 {
			for i := range x {
				v.Set(i, 1)
			}
		}
		return v
	}
	maxQ := w.MaxQ()
	scale := maxAbs / float64(maxQ)
	v.Scale = float32(scale)
	if w == W1 {
		v.Scale = float32(maxAbs)
		for i, f := range x {
			if f >= 0 {
				v.Set(i, 1)
			} else {
				v.Set(i, -1)
			}
		}
		return v
	}
	for i, f := range x {
		q := int64(math.RoundToEven(float64(f) / scale))
		if q > maxQ {
			q = maxQ
		}
		if q < -maxQ {
			q = -maxQ
		}
		v.Set(i, q)
	}
	return v
}

// TestQuantizeMatchesSetReference pins the word-at-a-time packing loop
// (and, on vector builds, the SIMD quantizers) against the per-element
// Set reference: identical values, scale and words at every width,
// including partial last words and the all-zero input convention.
func TestQuantizeMatchesSetReference(t *testing.T) {
	for _, w := range Widths {
		for _, dim := range edgeDims {
			r := rng.New(uint64(w)*6000 + uint64(dim))
			x := make([]float32, dim)
			r.FillNorm(x, 0, 1)
			got, want := Quantize(x, w), setReference(x, w)
			if got.Scale != want.Scale {
				t.Fatalf("w=%d dim=%d: scale %v != %v", w, dim, got.Scale, want.Scale)
			}
			for k := range want.Words {
				if got.Words[k] != want.Words[k] {
					t.Fatalf("w=%d dim=%d: word %d = %#x, want %#x", w, dim, k, got.Words[k], want.Words[k])
				}
			}
			// All-zero input convention.
			gz, wz := Quantize(make([]float32, dim), w), setReference(make([]float32, dim), w)
			for k := range wz.Words {
				if gz.Words[k] != wz.Words[k] {
					t.Fatalf("w=%d dim=%d: zero-input word %d = %#x, want %#x", w, dim, k, gz.Words[k], wz.Words[k])
				}
			}
		}
	}
}

// TestQuantizePropertyAllWidths is the property form of the packing
// contract: random dims and seeds through testing/quick, Quantize must
// equal the Set reference word-for-word at every width.
func TestQuantizePropertyAllWidths(t *testing.T) {
	for _, w := range Widths {
		w := w
		f := func(seed uint64) bool {
			r := rng.New(seed)
			dim := 1 + r.Intn(1200)
			x := make([]float32, dim)
			r.FillNorm(x, 0, 1)
			got, want := Quantize(x, w), setReference(x, w)
			if got.Scale != want.Scale {
				return false
			}
			for k := range want.Words {
				if got.Words[k] != want.Words[k] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("w=%d: %v", w, err)
		}
	}
}

// TestQuantizeIntoZeroAlloc pins the pooled packing path allocation-free
// at every width — including W2/W4, whose vector path round-trips through
// a pooled scratch buffer.
func TestQuantizeIntoZeroAlloc(t *testing.T) {
	r := rng.New(11)
	x := make([]float32, 2048)
	r.FillNorm(x, 0, 1)
	for _, w := range Widths {
		v := NewVector(2048, w)
		if allocs := testing.AllocsPerRun(100, func() { QuantizeInto(x, w, v) }); allocs != 0 {
			t.Errorf("w=%d: QuantizeInto allocates %v per run", w, allocs)
		}
	}
}

func TestQuantizeIntoInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid width")
		}
	}()
	QuantizeInto(make([]float32, 4), Width(3), NewVector(4, W1))
}

// TestDotPropertyAllWidths is the property form of the kernel≡scalar
// contract: random dims and seeds through testing/quick at every width.
func TestDotPropertyAllWidths(t *testing.T) {
	for _, w := range Widths {
		w := w
		f := func(seed uint64) bool {
			r := rng.New(seed)
			dim := 1 + r.Intn(700)
			a, b := randVec(r, dim, w), randVec(r, dim, w)
			return Dot(a, b) == scalarDot(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("w=%d: %v", w, err)
		}
	}
}

// FuzzDotBatchEquivalence fuzzes the batch-vs-scalar contract: for any
// seed, dim, row count and width, MatVecInto must equal per-sample Dot,
// which must equal the scalar Get-loop reference.
func FuzzDotBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), 65, 5, 1)
	f.Add(uint64(2), 33, 4, 2)
	f.Add(uint64(3), 17, 9, 4)
	f.Add(uint64(4), 512, 8, 8)
	f.Add(uint64(5), 31, 3, 16)
	f.Add(uint64(6), 7, 6, 32)
	f.Fuzz(func(t *testing.T, seed uint64, dim, rows, width int) {
		w := Width(width)
		if !w.Valid() || dim < 1 || dim > 2048 || rows < 1 || rows > 16 {
			t.Skip()
		}
		r := rng.New(seed)
		m := &Matrix{Rows: make([]*Vector, rows)}
		for i := range m.Rows {
			m.Rows[i] = randVec(r, dim, w)
		}
		q := randVec(r, dim, w)
		out := make([]float64, rows)
		MatVecInto(m, q, out)
		for i, row := range m.Rows {
			want := scalarDot(row, q)
			if Dot(row, q) != want {
				t.Fatalf("Dot != scalar at row %d", i)
			}
			if out[i] != want {
				t.Fatalf("MatVecInto[%d] = %v, want %v", i, out[i], want)
			}
		}
	})
}

// TestScorerMatchesClassify checks the cached-norm scorer agrees with the
// stateless Matrix.Classify on well-separated and on random data.
func TestScorerMatchesClassify(t *testing.T) {
	for _, w := range Widths {
		r := rng.New(uint64(w) * 5000)
		const dim, classes = 256, 7
		flat := make([]float32, classes*dim)
		r.FillNorm(flat, 0, 1)
		m := QuantizeMatrix(flat, classes, dim, w)
		s := NewScorer(m)
		for trial := 0; trial < 50; trial++ {
			q := randVec(r, dim, w)
			if got, want := s.Classify(q), m.Classify(q); got != want {
				t.Fatalf("w=%d trial %d: Scorer %d != Classify %d", w, trial, got, want)
			}
		}
	}
}

// TestScorerZeroRowAndZeroQuery pins the degenerate conventions shared
// with Matrix.Classify: zero rows score 0, an all-zero query picks the
// lowest index.
func TestScorerZeroRowAndZeroQuery(t *testing.T) {
	const dim = 40
	m := &Matrix{Rows: []*Vector{
		NewVector(dim, W8), // all-zero row: norm 0
		Quantize(onesF(dim), W8),
	}}
	s := NewScorer(m)
	if got := s.Classify(Quantize(onesF(dim), W8)); got != 1 {
		t.Fatalf("query matching row 1 classified as %d", got)
	}
	if got := s.Classify(NewVector(dim, W8)); got != 0 {
		t.Fatalf("zero query should resolve to index 0, got %d", got)
	}
	if got := m.Classify(NewVector(dim, W8)); got != 0 {
		t.Fatalf("Classify zero query should resolve to index 0, got %d", got)
	}
}

func onesF(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// TestScorerRefreshAfterMutation: mutating the packed memory without
// Refresh leaves stale norms; Refresh restores agreement with Classify.
func TestScorerRefreshAfterMutation(t *testing.T) {
	r := rng.New(99)
	const dim, classes = 128, 4
	flat := make([]float32, classes*dim)
	r.FillNorm(flat, 0, 1)
	m := QuantizeMatrix(flat, classes, dim, W4)
	s := NewScorer(m)
	for k := 0; k < m.Rows[2].StorageBits(); k += 3 {
		m.Rows[2].FlipBit(k)
	}
	s.Refresh()
	for trial := 0; trial < 20; trial++ {
		q := randVec(r, dim, W4)
		if got, want := s.Classify(q), m.Classify(q); got != want {
			t.Fatalf("after Refresh: Scorer %d != Classify %d", got, want)
		}
	}
}

// benchMatVec times MatVecInto at width w on the serving shape: 8 class
// rows of 512 dimensions.
func benchMatVec(b *testing.B, w Width) {
	const dim, classes = 512, 8
	flat := make([]float32, classes*dim)
	rng.New(1).FillNorm(flat, 0, 1)
	m := QuantizeMatrix(flat, classes, dim, w)
	q := randVec(rng.New(2), dim, w)
	out := make([]float64, classes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(m, q, out)
	}
}

func BenchmarkMatVec8Bit512x8(b *testing.B) { benchMatVec(b, W8) }

func BenchmarkMatVec1Bit512x8(b *testing.B) { benchMatVec(b, W1) }

// BenchmarkMatVecWidths512x8 times the blocked panel kernels per width on
// the serving shape; compare against the same run under -tags noasm (or
// BenchmarkMatVecScalar512x8 on amd64) for the asm-vs-scalar ratio.
func BenchmarkMatVecWidths512x8(b *testing.B) {
	for _, w := range Widths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchMatVec(b, w) })
	}
}
