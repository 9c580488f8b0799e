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

// Norms writes out[r] = Norm(data[r*n : (r+1)*n]) for every r, bit for
// bit: the rows of an n-column row-major block, four per pass as four
// independent float64 chains whose latencies overlap. Each chain is
// still Norm's sequential sum.
func Norms(data []float32, n int, out []float64) {
	r := 0
	for ; r+4 <= len(out); r += 4 {
		a := data[r*n : (r+1)*n]
		b, c, d := data[(r+1)*n:][:len(a)], data[(r+2)*n:][:len(a)], data[(r+3)*n:][:len(a)]
		var sa, sb, sc, sd float64
		for i, v := range a {
			sa += float64(v) * float64(v)
			sb += float64(b[i]) * float64(b[i])
			sc += float64(c[i]) * float64(c[i])
			sd += float64(d[i]) * float64(d[i])
		}
		out[r], out[r+1], out[r+2], out[r+3] = math.Sqrt(sa), math.Sqrt(sb), math.Sqrt(sc), math.Sqrt(sd)
	}
	for ; r < len(out); r++ {
		out[r] = Norm(data[r*n : (r+1)*n])
	}
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
