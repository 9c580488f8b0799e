package hdc

import (
	"fmt"
	"math"
)

// This file is the high-performance kernel layer behind encoding and
// scoring: multi-row dot panels, cache-blocked matrix products, and the
// fused cosine epilogue of the RBF encoder.
//
// # Numerics
//
// There are two lane contracts, and every kernel in this file is
// bit-identical to the scalar function that defines its contract — on the
// amd64 AVX path, on the portable Go path, and under any tiling of the
// surrounding loops, because each output's summation order depends only
// on its own row, never on how outputs are grouped into panels or
// goroutines. The package tests assert both.
//
// 8 × float32 = DotLanes: lane j sums the products at indices congruent
// to j mod 8 with unfused multiply/add, and the lanes fold sequentially
// (l0+l1+...+l7) into a float32 result that callers widen to float64.
// DotPanel, MatMulT and everything a serving pass runs — encoding, class
// scoring — use it: it trades the float64 partial products of Dot for
// ~an order of magnitude of throughput, and over the vector lengths used
// here (tens to a few thousand elements of roughly unit scale) the
// relative error stays within a few 1e-6, well below the discrimination
// scale of HDC class similarities.
//
// 4 × float64 = Dot: each float32 pair is widened and multiplied exactly
// in float64, lane j sums the products at indices congruent to j mod 4
// over the whole groups of four, the tail elements go to lane 0, and the
// fold is ((s0+s1)+s2)+s3. DotPanel64 is its panel form and Similarities
// its caller, so whatever moves a class hypervector — the adaptive
// learning rule in core.Train, online feedback (Model.Update,
// COWModel.Update) and quantize.Retrain — keeps float64 similarities at
// panel speed. Norms stay the sequential float64 sum of Norm.

// panelTargetBytes sizes the row panels MatMulT streams through the inner
// kernel: a panel of B rows should sit in L1 alongside the current A row
// and the output tile, so every A row reuses the panel from cache.
const panelTargetBytes = 16 << 10

// DotLanes is the scalar reference implementation of the kernel dot
// product: eight float32 lane accumulators over index classes mod 8,
// folded sequentially. DotPanel and everything built on it produce
// bit-identical sums; use Dot when float64 partial products matter.
func DotLanes(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("hdc: DotLanes length mismatch")
	}
	var l [8]float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		l[0] += a[i] * b[i]
		l[1] += a[i+1] * b[i+1]
		l[2] += a[i+2] * b[i+2]
		l[3] += a[i+3] * b[i+3]
		l[4] += a[i+4] * b[i+4]
		l[5] += a[i+5] * b[i+5]
		l[6] += a[i+6] * b[i+6]
		l[7] += a[i+7] * b[i+7]
	}
	for ; i < len(a); i++ {
		l[i&7] += a[i] * b[i]
	}
	s := l[0]
	for _, v := range l[1:] {
		s += v
	}
	return s
}

// DotPanel computes out[r] = DotLanes(x, b[r*stride : r*stride+len(x)])
// for every r in [0, len(out)) — one query against a panel of contiguous
// rows. It is the inner kernel of MatMulT, batch encoding, and class
// scoring, dispatching to the AVX implementation when available.
func DotPanel(x, b []float32, stride int, out []float32) {
	n, rows := len(x), len(out)
	checkPanel(n, len(b), stride, rows)
	if rows == 0 {
		return
	}
	if n == 0 {
		for r := range out {
			out[r] = 0
		}
		return
	}
	if useAVX {
		dotPanelAVX(&x[0], &b[0], &out[0], n, stride, rows)
		return
	}
	dotPanelGeneric(x, b, stride, out)
}

// DotPanel64 computes out[r] = Dot(b[r*stride : r*stride+len(x)], x) for
// every r in [0, len(out)): DotPanel's shape under the float64 lane
// contract. The AVX kernel converts the query once per four rows and
// folds in registers; the portable form is Dot itself, row by row.
func DotPanel64(x, b []float32, stride int, out []float64) {
	n, rows := len(x), len(out)
	checkPanel(n, len(b), stride, rows)
	if useAVX && n > 0 && rows > 0 {
		dotPanel64AVX(&x[0], &b[0], &out[0], n, stride, rows)
		return
	}
	for r := range out {
		out[r] = Dot(b[r*stride:][:n:n], x)
	}
}

// checkPanel panics unless rows rows of n elements, stride apart, fit in
// a panel of size elements.
func checkPanel(n, size, stride, rows int) {
	if stride < n {
		panic("hdc: panel stride shorter than vector")
	}
	if rows > 0 && (rows-1)*stride+n > size {
		panic("hdc: panel out of range")
	}
}

// dotPanelGeneric is the portable DotPanel: four rows per pass share the
// query loads, each row accumulating in the DotLanes pattern.
func dotPanelGeneric(x, b []float32, stride int, out []float32) {
	n := len(x)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		r0 := b[(r+0)*stride:][:n:n]
		r1 := b[(r+1)*stride:][:n:n]
		r2 := b[(r+2)*stride:][:n:n]
		r3 := b[(r+3)*stride:][:n:n]
		var l0, l1, l2, l3 [8]float32
		i := 0
		for ; i+8 <= n; i += 8 {
			for j := 0; j < 8; j++ {
				xv := x[i+j]
				l0[j] += xv * r0[i+j]
				l1[j] += xv * r1[i+j]
				l2[j] += xv * r2[i+j]
				l3[j] += xv * r3[i+j]
			}
		}
		for ; i < n; i++ {
			xv := x[i]
			l0[i&7] += xv * r0[i]
			l1[i&7] += xv * r1[i]
			l2[i&7] += xv * r2[i]
			l3[i&7] += xv * r3[i]
		}
		out[r+0] = foldLanes(&l0)
		out[r+1] = foldLanes(&l1)
		out[r+2] = foldLanes(&l2)
		out[r+3] = foldLanes(&l3)
	}
	for ; r < len(out); r++ {
		out[r] = DotLanes(x, b[r*stride:][:n:n])
	}
}

func foldLanes(l *[8]float32) float32 {
	s := l[0]
	for _, v := range l[1:] {
		s += v
	}
	return s
}

// panelRows picks the B-panel height for an inner dimension of cols so a
// panel stays within panelTargetBytes (at least 4 rows, multiple of 4).
func panelRows(cols int) int {
	p := panelTargetBytes / (4 * cols)
	if p < 4 {
		return 4
	}
	return p &^ 3
}

// MatMulT computes dst = a · bᵀ where a is m×k and b is n×k, so dst is
// m×n: dst[i][j] is the kernel dot of a's row i with b's row j. It blocks
// b into L1-sized panels, parallelizes over rows of a with ParallelChunks,
// and produces bit-identical results to the naive DotLanes double loop
// regardless of blocking or worker count.
func MatMulT(a, b, dst *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("hdc: MatMulT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("hdc: MatMulT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Rows == 0 || b.Rows == 0 {
		return
	}
	if Serial(a.Rows) {
		matMulTChunk(a, b, dst, 0, a.Rows)
		return
	}
	ParallelChunks(a.Rows, func(lo, hi int) { matMulTChunk(a, b, dst, lo, hi) })
}

// matMulTChunk computes rows [lo, hi) of MatMulT, walking b in L1-sized
// panels reused across the chunk's rows of a.
func matMulTChunk(a, b, dst *Matrix, lo, hi int) {
	pr := panelRows(b.Cols)
	for j0 := 0; j0 < b.Rows; j0 += pr {
		j1 := j0 + pr
		if j1 > b.Rows {
			j1 = b.Rows
		}
		panel := b.Data[j0*b.Cols:]
		for i := lo; i < hi; i++ {
			DotPanel(a.Row(i), panel, b.Cols, dst.Row(i)[j0:j1])
		}
	}
}

// Kernel cosine constants: single-precision half-period reduction
// (Cody–Waite split of π) plus a degree-12 even Taylor polynomial on
// [-π/2, π/2] and a parity sign flip. Every step is a single-rounded
// float32 operation, so the scalar form below and the 8-lane AVX2 form in
// gemm_amd64.s (same ops, vectorized) are bit-identical. Worst absolute
// error is a few float32 ulps (~2e-7) — below the resolution of the
// unit-range outputs the RBF encoder stores. Callers needing float64
// cosines want math.Cos, not this.
const (
	cosInvPi = float32(1 / math.Pi)
	cosPiHi  = float32(3.140625) // 8-bit mantissa: n*cosPiHi is exact for |n| < 2^15
	cosPiLo  = float32(math.Pi - 3.140625)
	cosC6    = float32(1.0 / 479001600)
	cosC5    = float32(-1.0 / 3628800)
	cosC4    = float32(1.0 / 40320)
	cosC3    = float32(-1.0 / 720)
	cosC2    = float32(1.0 / 24)
	cosC1    = float32(-0.5)
)

// Cos32 is the kernel cosine. Every RBF encode path (single, batch,
// per-dimension refresh) evaluates exactly this function — scalar here,
// vectorized in assembly — so their outputs are bit-identical. Arguments
// are assumed moderate (|x| ≲ 2^15, far beyond any encoder
// pre-activation); it is not a general-range math.Cos replacement.
func Cos32(x float32) float32 {
	v := x * cosInvPi
	n := float32(math.RoundToEven(float64(v)))
	r := x - n*cosPiHi
	r -= n * cosPiLo
	z := r * r
	p := cosC6
	p = p*z + cosC5
	p = p*z + cosC4
	p = p*z + cosC3
	p = p*z + cosC2
	p = p*z + cosC1
	p = p*z + 1
	// cos(x) = (-1)^n · cos(r): flip the sign bit on odd half-periods.
	return math.Float32frombits(math.Float32bits(p) ^ uint32(int32(n))<<31)
}

// CosInto writes the fused RBF epilogue dst[i] = Cos32(pre[i] + bias[i]):
// the pre-activations of a dot panel plus the encoder phases, in one
// vectorized pass.
func CosInto(dst, pre, bias []float32) {
	if len(pre) != len(dst) || len(bias) != len(dst) {
		panic("hdc: CosInto length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	if useAVX2 {
		cosIntoAVX2(&dst[0], &pre[0], &bias[0], len(dst))
		return
	}
	for i, p := range pre {
		dst[i] = Cos32(p + bias[i])
	}
}
