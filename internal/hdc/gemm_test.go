package hdc

import (
	"math"
	"testing"

	"cyberhd/internal/rng"
)

// raggedSizes exercises vector lengths around every kernel boundary: the
// 8-lane main loop, the masked tail, and panel edges.
var raggedSizes = []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 41, 63, 64, 65, 78, 100, 127, 128, 129, 511, 512, 513}

func TestDotLanesMatchesDot(t *testing.T) {
	r := rng.New(1)
	for _, n := range raggedSizes {
		a := make([]float32, n)
		b := make([]float32, n)
		r.FillNorm(a, 0, 1)
		r.FillNorm(b, 0, 1)
		got := float64(DotLanes(a, b))
		want := Dot(a, b)
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("n=%d: DotLanes %v vs Dot %v", n, got, want)
		}
	}
}

func TestDotLanesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	DotLanes([]float32{1}, []float32{1, 2})
}

// TestDotPanelMatchesDotLanes pins the kernel contract: the dispatched
// panel kernel (AVX when available) must be bit-identical to the scalar
// DotLanes reference on every row, for ragged lengths, row counts around
// the 4-row tile, and strides larger than the vector.
func TestDotPanelMatchesDotLanes(t *testing.T) {
	t.Logf("useAVX=%v", useAVX)
	r := rng.New(2)
	for _, n := range raggedSizes {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
			stride := n + r.Intn(3)
			x := make([]float32, n)
			b := make([]float32, rows*stride+n)
			r.FillNorm(x, 0, 1)
			r.FillNorm(b, 0, 1)
			out := make([]float32, rows)
			DotPanel(x, b, stride, out)
			for i := range out {
				want := DotLanes(x, b[i*stride:][:n:n])
				if out[i] != want {
					t.Fatalf("n=%d rows=%d stride=%d row %d: DotPanel %v != DotLanes %v",
						n, rows, stride, i, out[i], want)
				}
			}
		}
	}
}

// TestDotPanelAVXMatchesGeneric cross-checks the two implementations
// directly (redundant with the DotLanes test, but it pins asm against Go
// even if the reference ever drifts).
func TestDotPanelAVXMatchesGeneric(t *testing.T) {
	if !useAVX {
		t.Skip("AVX unavailable")
	}
	r := rng.New(3)
	for _, n := range raggedSizes {
		rows := 1 + r.Intn(9)
		x := make([]float32, n)
		b := make([]float32, rows*n)
		r.FillNorm(x, 0, 1)
		r.FillNorm(b, 0, 1)
		got := make([]float32, rows)
		want := make([]float32, rows)
		dotPanelAVX(&x[0], &b[0], &got[0], n, n, rows)
		dotPanelGeneric(x, b, n, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d rows=%d row %d: asm %v != generic %v", n, rows, i, got[i], want[i])
			}
		}
	}
}

func TestDotPanelEdgeCases(t *testing.T) {
	out := []float32{7, 7}
	DotPanel(nil, nil, 0, out)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("empty vectors should zero the output, got %v", out)
	}
	DotPanel([]float32{1}, []float32{2}, 1, nil) // rows == 0: no-op
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on short stride")
			}
		}()
		DotPanel(make([]float32, 4), make([]float32, 8), 2, make([]float32, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on panel overrun")
			}
		}()
		DotPanel(make([]float32, 4), make([]float32, 7), 4, make([]float32, 2))
	}()
}

// mixedMagnitude fills v with normal draws scaled across ~16 decades, so
// float64 sums of their products round differently under any other
// association than Dot's.
func mixedMagnitude(r *rng.Rand, v []float32) {
	r.FillNorm(v, 0, 1)
	for i := range v {
		v[i] *= float32(math.Pow(10, float64(r.Intn(17)-8)))
	}
}

// checkDotPanel64 requires every output of Dots and of Dots4 on p, which
// holds m, to equal Dot of its row bit for bit (NaN results only have to
// be NaN on both sides: payload propagation is not part of the contract).
// The four queries are x, then x rotated by q places, negated on odd q.
func checkDotPanel64(t *testing.T, p *Panel64, m *Matrix, x []float32) {
	t.Helper()
	k, n := m.Rows, len(x)
	var qs [4][]float32
	for q := range qs {
		qs[q] = append(append([]float32(nil), x[q%max(n, 1):]...), x[:q%max(n, 1)]...)
		for i := range qs[q] {
			qs[q][i] *= float32(1 - 2*(q%2))
		}
	}
	one, four := make([]float64, k), make([]float64, 4*k)
	p.Dots4(&qs, four)
	for q := range qs {
		p.Dots(qs[q], one)
		for i := range one {
			want := Dot(m.Row(i), qs[q])
			for form, got := range [2]float64{one[i], four[q*k+i]} {
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("avx512=%v fma=%v k=%d n=%d query %d row %d: Dots%s %v != Dot %v", useAVX512, useFMA, k, n, q, i, [2]string{"", "4"}[form], got, want)
				}
			}
		}
	}
}

// TestDotPanel64MatchesDot pins the second lane contract on the float64
// dot panel, Panel64, on every dispatch path: Dots and Dots4 are Dot,
// exactly, on every row, for row counts around the eight-row pass, the
// ragged lengths around the lane groups and their tail, values of mixed
// magnitude, a zero row, a zero query, a row rewritten by SetRow, and
// storage reused across shapes.
func TestDotPanel64MatchesDot(t *testing.T) {
	panel64Paths(t, func(string) {
		r := rng.New(11)
		var p Panel64
		for k := 1; k <= 17; k++ {
			for _, n := range append([]int{0, 4, 5, 130}, raggedSizes...) {
				m, x := NewMatrix(k, n), make([]float32, n)
				mixedMagnitude(r, m.Data)
				Zero(m.Row(k / 2))
				p.Set(m)
				checkDotPanel64(t, &p, m, x)
				mixedMagnitude(r, x)
				checkDotPanel64(t, &p, m, x)
				Axpy(0.5, x, m.Row(k-1))
				p.SetRow(k-1, m.Row(k-1))
				checkDotPanel64(t, &p, m, x)
			}
		}
	})
}

func TestDotPanel64EdgeCases(t *testing.T) {
	var p Panel64
	p.Dots(nil, nil) // the zero value is an empty panel
	p.Dots4(&[4][]float32{}, nil)
	p.Set(NewMatrix(2, 0))
	out := []float64{7, 7}
	if p.Dots(nil, out); out[0] != 0 || out[1] != 0 {
		t.Errorf("empty rows should zero the output, got %v", out)
	}
	p.Set(NewMatrix(2, 4))
	for name, f := range map[string]func(){
		"short query":      func() { p.Dots(make([]float32, 3), make([]float64, 2)) },
		"short output":     func() { p.Dots(make([]float32, 4), make([]float64, 1)) },
		"short block":      func() { p.Dots4(&[4][]float32{{0, 0, 0, 0}}, make([]float64, 8)) },
		"row out of range": func() { p.SetRow(2, make([]float32, 4)) },
		"short row":        func() { p.SetRow(0, make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on %s", name)
				}
			}()
			f()
		}()
	}
}

// FuzzDotPanel64 reads the fuzz bytes as float32 bit patterns — the
// first n the query, the rest whole rows of a panel — so infinities, NaNs,
// denormals and cancelling sums all reach Dots on every dispatch path.
func FuzzDotPanel64(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(1), uint8(0))
	f.Add(make([]byte, 4*5*6), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, n8, pad uint8) {
		v := make([]float32, len(raw)/4)
		for i := range v {
			v[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		n := min(int(n8), len(v))
		k := int(pad % 4)
		if n > 0 {
			k = (len(v) - n) / n
		}
		m, p := &Matrix{Rows: k, Cols: n, Data: v[n : n+k*n]}, new(Panel64)
		p.Set(m)
		panel64Paths(t, func(string) { checkDotPanel64(t, p, m, v[:n]) })
	})
}

// matMulTNaive is the unblocked reference: the kernel dot of every row
// pair, no tiling, no parallelism.
func matMulTNaive(a, b, dst *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, j, DotLanes(a.Row(i), b.Row(j)))
		}
	}
}

// TestMatMulTMatchesNaive is the blocking-determinism test: the
// cache-blocked, chunk-parallel product must be bit-identical to the
// naive double loop on shapes that do not divide the panel or tile sizes.
func TestMatMulTMatchesNaive(t *testing.T) {
	r := rng.New(4)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {4, 8, 4}, {7, 78, 13}, {33, 17, 29},
		{5, 512, 10}, {300, 41, 130}, {64, 78, 512},
	}
	for _, s := range shapes {
		a := NewMatrix(s.m, s.k)
		b := NewMatrix(s.n, s.k)
		r.FillNorm(a.Data, 0, 1)
		r.FillNorm(b.Data, 0, 1)
		got := NewMatrix(s.m, s.n)
		want := NewMatrix(s.m, s.n)
		MatMulT(a, b, got)
		matMulTNaive(a, b, want)
		if !got.Equal(want) {
			t.Fatalf("%dx%d·(%dx%d)ᵀ: blocked != naive", s.m, s.k, s.n, s.k)
		}
	}
}

func TestMatMulTShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMulT(NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(2, 2)) },
		func() { MatMulT(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(2, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMatrixResize(t *testing.T) {
	m := NewMatrix(4, 8)
	data := &m.Data[0]
	m.Resize(2, 6)
	if m.Rows != 2 || m.Cols != 6 || len(m.Data) != 12 {
		t.Fatalf("resize to 2x6 gave %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Error("shrinking resize reallocated")
	}
	m.Resize(10, 10)
	if len(m.Data) != 100 {
		t.Fatalf("growing resize len %d", len(m.Data))
	}
}

func TestCos32Accuracy(t *testing.T) {
	worst := 0.0
	for x := -40.0; x < 40.0; x += 0.00037 {
		d := math.Abs(float64(Cos32(float32(x))) - math.Cos(float64(float32(x))))
		if d > worst {
			worst = d
		}
	}
	t.Logf("worst abs err %g", worst)
	if worst > 1e-6 {
		t.Errorf("Cos32 worst error %g exceeds 1e-6", worst)
	}
}

func TestMatMulTAllocFree(t *testing.T) {
	a := NewMatrix(32, 78)
	b := NewMatrix(512, 78)
	dst := NewMatrix(32, 512)
	allocs := testing.AllocsPerRun(20, func() { MatMulT(a, b, dst) })
	if allocs != 0 {
		t.Errorf("MatMulT allocated %.1f objects per call", allocs)
	}
}

// BenchmarkPanel64ScoreShape is the adaptive rule's similarity pass at the
// paper's shape, 8 class rows of D = 512 under the float64 contract, timed
// per query: single is one Dots a query, block one Dots4 per four.
func BenchmarkPanel64ScoreShape(b *testing.B) {
	m, r := NewMatrix(8, 512), rng.New(13)
	r.FillNorm(m.Data, 0, 1)
	var qs [4][]float32
	for q := range qs {
		qs[q] = make([]float32, 512)
		r.FillNorm(qs[q], 0, 1)
	}
	var p Panel64
	p.Set(m)
	out := make([]float64, 4*8)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Dots(qs[i%4], out[:8])
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i += 4 {
			p.Dots4(&qs, out)
		}
	})
}
