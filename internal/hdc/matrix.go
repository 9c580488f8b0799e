package hdc

import "fmt"

// Matrix is a dense row-major float32 matrix. It is the storage type for
// class-hypervector models (rows = classes) and encoder base matrices
// (rows = hyperspace dimensions).
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("hdc: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Resize reshapes m to rows×cols, reusing the existing allocation when it
// is large enough. Contents after a resize are unspecified (stale values
// survive when capacity is reused); callers must overwrite every element
// they read.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("hdc: Resize with negative dimension")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = m · x where x has length Cols and dst length Rows.
// It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float32, dst []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("hdc: MulVec dims (%dx%d)·%d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		dst[r] = float32(Dot(m.Row(r), x))
	}
}

// ColumnVariance writes the variance of each column (population variance
// across rows) into out, which must have length Cols. This is the paper's
// step F: dimensions whose values are similar across all class vectors
// carry common information and contribute little to discrimination.
func (m *Matrix) ColumnVariance(out []float64) {
	if len(out) != m.Cols {
		panic("hdc: ColumnVariance out length mismatch")
	}
	if m.Rows == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	inv := 1 / float64(m.Rows)
	for c := 0; c < m.Cols; c++ {
		var sum, sumSq float64
		for r := 0; r < m.Rows; r++ {
			v := float64(m.Data[r*m.Cols+c])
			sum += v
			sumSq += v * v
		}
		mean := sum * inv
		out[c] = sumSq*inv - mean*mean
		if out[c] < 0 { // guard tiny negative from rounding
			out[c] = 0
		}
	}
}

// ZeroColumns clears the listed columns in every row. Used when dropping
// insignificant dimensions from a trained model (paper step G).
func (m *Matrix) ZeroColumns(cols []int) {
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			panic("hdc: ZeroColumns index out of range")
		}
		for r := 0; r < m.Rows; r++ {
			m.Data[r*m.Cols+c] = 0
		}
	}
}

// NormalizeRows scales every row to unit norm in place (paper step D).
// All-zero rows are left unchanged.
func (m *Matrix) NormalizeRows() {
	for r := 0; r < m.Rows; r++ {
		Normalize(m.Row(r))
	}
}

// Equal reports whether m and o have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}
