// Package hdc implements the dense hypervector and matrix algebra that the
// rest of the repository builds on: dot products, cosine similarity, norms,
// scaled accumulation, matrix–vector products and per-dimension statistics.
//
// Hypervectors are flat []float32 slices. Reductions accumulate in float64
// so that statistics over long vectors (norms, variances) stay accurate,
// while storage and bandwidth remain float32 — matching the edge-device
// framing of the paper. Hot loops are written 4-way unrolled over flat
// slices so the compiler's bounds-check elimination and auto-vectorization
// apply.
package hdc

import "math"

// Dot returns the inner product of a and b accumulated in float64.
// It panics if the lengths differ.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("hdc: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b, or 0 when either vector
// is all-zero (the conventional choice: a zero vector is similar to nothing).
func Cosine(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Axpy computes y += alpha * x in place. It panics if the lengths differ.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("hdc: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float32, v []float32) {
	for i := range v {
		v[i] *= alpha
	}
}

// Normalize scales v to unit Euclidean norm in place and returns the
// original norm. An all-zero vector is left unchanged and 0 is returned.
func Normalize(v []float32) float64 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
	return n
}

// Zero clears v in place.
func Zero(v []float32) {
	for i := range v {
		v[i] = 0
	}
}

// Similarities writes the cosine similarity of q against every row of m
// into out: one DotPanel64 pass — float64 dots, bit-identical to Dot row by
// row — divided by the caller's cached norms. qNorm is Norm(q) and
// rowNorms holds Norm of every row (see Matrix.RowNorms); a zero norm on
// either side scores 0.
func Similarities(m *Matrix, q []float32, qNorm float64, rowNorms, out []float64) {
	if len(q) != m.Cols || len(rowNorms) != m.Rows || len(out) != m.Rows {
		panic("hdc: Similarities length mismatch")
	}
	DotPanel64(q, m.Data, m.Cols, out)
	for r, nr := range rowNorms {
		if nr == 0 || qNorm == 0 {
			out[r] = 0
		} else {
			out[r] /= nr * qNorm
		}
	}
}
