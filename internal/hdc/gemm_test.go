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
