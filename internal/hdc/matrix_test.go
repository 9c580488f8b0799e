package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"cyberhd/internal/rng"
)

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row does not alias storage")
	}
	m.Set(0, 0, 5)
	if m.Row(0)[0] != 5 {
		t.Fatal("Set not visible through Row")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not Equal to source")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Row(0), []float32{1, 2, 3})
	copy(m.Row(1), []float32{4, 5, 6})
	dst := make([]float32, 2)
	m.MulVec([]float32{1, 1, 1}, dst)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestMulVecPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad dims")
		}
	}()
	m.MulVec([]float32{1}, make([]float32, 2))
}

func TestColumnVariance(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Row(0), []float32{1, 5, 2})
	copy(m.Row(1), []float32{3, 5, 4})
	out := make([]float64, 3)
	m.ColumnVariance(out)
	// col0: mean 2, var ((1-2)^2+(3-2)^2)/2 = 1; col1: 0; col2: 1
	if !almost(out[0], 1, 1e-9) || out[1] != 0 || !almost(out[2], 1, 1e-9) {
		t.Fatalf("ColumnVariance = %v", out)
	}
}

func TestColumnVarianceEmptyRows(t *testing.T) {
	m := NewMatrix(0, 3)
	out := []float64{9, 9, 9}
	m.ColumnVariance(out)
	for _, v := range out {
		if v != 0 {
			t.Fatalf("empty matrix variance = %v", out)
		}
	}
}

func TestColumnVarianceNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(64)
		m := NewMatrix(rows, cols)
		r.FillNorm(m.Data, 0, 3)
		out := make([]float64, cols)
		m.ColumnVariance(out)
		for _, v := range out {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroColumns(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = 1
	}
	m.ZeroColumns([]int{0, 2})
	want := []float32{0, 1, 0, 0, 1, 0}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("ZeroColumns data = %v", m.Data)
		}
	}
}

func TestZeroColumnsOutOfRange(t *testing.T) {
	m := NewMatrix(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range column")
		}
	}()
	m.ZeroColumns([]int{5})
}

func TestNormalizeRows(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Row(0), []float32{3, 4})
	copy(m.Row(1), []float32{0, 0}) // zero row stays zero
	copy(m.Row(2), []float32{-5, 12})
	m.NormalizeRows()
	if !almost(Norm(m.Row(0)), 1, 1e-6) || !almost(Norm(m.Row(2)), 1, 1e-6) {
		t.Fatal("rows not unit norm")
	}
	if Norm(m.Row(1)) != 0 {
		t.Fatal("zero row changed")
	}
}

// TestRowNorms: Norms, four rows per pass, is Norm bit for bit for row
// counts around the pass and lengths off its multiples.
func TestRowNorms(t *testing.T) {
	r := rng.New(5)
	for rows := 0; rows <= 9; rows++ {
		for _, n := range []int{0, 1, 511, 513} {
			data := make([]float32, rows*n)
			r.FillNorm(data, 0, 3)
			out := make([]float64, rows)
			Norms(data, n, out)
			for i, got := range out {
				if want := Norm(data[i*n : (i+1)*n]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows=%d n=%d row %d: Norms %v != Norm %v", rows, n, i, got, want)
				}
			}
		}
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 300, 5000} {
		hits := make([]int32, n)
		ParallelChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}
