package hdc

import (
	"fmt"
	"math"
)

// This file is the high-performance kernel layer behind encoding and
// scoring: multi-row dot panels, cache-blocked matrix products, and the
// RBF encode kernel with its cosine fused in.
//
// # Numerics
//
// There are two lane contracts, and every kernel in this file is
// bit-identical to the scalar function that defines its contract — on the
// amd64 AVX paths, on the portable Go path, and under any tiling of the
// surrounding loops, because each output's summation order depends only
// on its own row, never on how outputs are grouped into panels or
// goroutines. The package tests assert both, for finite inputs: a NaN
// operand yields NaN on every path, but which NaN payload survives is
// not part of either contract.
//
// 8 × float32 = DotLanes: lane j sums the products at indices congruent
// to j mod 8 with unfused multiply/add, and the lanes fold sequentially
// (l0+l1+...+l7) into a float32 result that callers widen to float64.
// DotPanel, MatMulT and everything a serving pass runs — encoding, class
// scoring — use it: it trades the float64 partial products of Dot for
// ~an order of magnitude of throughput, and over the vector lengths used
// here (tens to a few thousand elements of roughly unit scale) the
// relative error stays within a few 1e-6, well below the discrimination
// scale of HDC class similarities. DotPanel vectorizes it along a row —
// one vector lane per lane class, a horizontal fold per output — while
// EncodePanel vectorizes across rows: each lane class is one vector
// accumulator holding that class for sixteen rows, and the fold is seven
// vertical adds. Both keep each output's operations in DotLanes order.
//
// 4 × float64 = Dot: each float32 pair is widened and multiplied exactly
// in float64, lane j sums the products at indices congruent to j mod 4
// over the whole groups of four, the tail elements go to lane 0, and the
// fold is ((s0+s1)+s2)+s3. Panel64 is its panel form: the class memory
// widened to float64 once, so a visit of the learning rule converts only
// the query, and a float32×float32 product is exact in float64, so a
// fused multiply-add rounds exactly where Dot's multiply and add do.
// core.Scorer owns the panel for what moves a class hypervector, the
// adaptive learning rule in core.Train. Norms stay the sequential float64
// sum of Norm.
//
// A third contract is sign-exact, not float for float: SignPanel's bits
// equal Cos32(DotLanes(B[r], x) + bias[r]) >= 0, the sign of EncodePanel's
// output, on every path. Its AVX-512 path accumulates with fused
// multiply-adds and computes no cosine, so its sums differ from the
// unfused ones by a few ulps; a written error bound certifies each bit it
// keeps, and EncodePanel recomputes every group it cannot certify (see
// signs.go).

// DotLanes is the scalar reference implementation of the kernel dot
// product: eight float32 lane accumulators over index classes mod 8,
// folded sequentially. DotPanel and everything built on it produce
// bit-identical sums; use Dot when float64 partial products matter.
func DotLanes(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("hdc: DotLanes length mismatch")
	}
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	for len(a) >= 8 && len(b) >= 8 {
		l0 += a[0] * b[0]
		l1 += a[1] * b[1]
		l2 += a[2] * b[2]
		l3 += a[3] * b[3]
		l4 += a[4] * b[4]
		l5 += a[5] * b[5]
		l6 += a[6] * b[6]
		l7 += a[7] * b[7]
		a, b = a[8:], b[8:]
	}
	l := [8]float32{l0, l1, l2, l3, l4, l5, l6, l7}
	for i := range a { // the len mod 8 tail, into lanes 0.. in order
		l[i] += a[i] * b[i]
	}
	return l[0] + l[1] + l[2] + l[3] + l[4] + l[5] + l[6] + l[7]
}

// DotPanel computes out[r] = DotLanes(x, b[r*stride : r*stride+len(x)])
// for every r in [0, len(out)) — one query against a panel of contiguous
// rows. It is the inner kernel of MatMulT and class scoring, dispatching
// to the AVX implementation when available.
func DotPanel(x, b []float32, stride int, out []float32) {
	n, rows := len(x), len(out)
	if stride < n {
		panic("hdc: panel stride shorter than vector")
	}
	if rows > 0 && (rows-1)*stride+n > len(b) {
		panic("hdc: panel out of range")
	}
	if rows == 0 || n == 0 {
		clear(out)
		return
	}
	if useAVX {
		dotPanelAVX(&x[0], &b[0], &out[0], n, stride, rows)
		return
	}
	dotPanelGeneric(x, b, stride, out)
}

// Panel64 is a k×n matrix widened to float64 and interleaved in lane
// groups of four for Dots. Elements 4g…4g+3 of row r sit at (g·K + r)·4,
// so one pointer walks every row of a group; K is k padded with zero rows
// to a multiple of eight, the rows of one kernel pass. The n mod 4 tail
// elements follow the last group, one group each: tail element i of row r
// sits in lane 0 at ((n/4 + i)·K + r)·4, and lanes 1–3 stay zero. The
// zero value is an empty panel.
type Panel64 struct {
	rows, cols, stride int // k, n and K
	data               []float64
}

// Set widens m into p, reusing p's storage when it is large enough.
func (p *Panel64) Set(m *Matrix) {
	p.rows, p.cols, p.stride = m.Rows, m.Cols, (m.Rows+7)&^7
	size := (m.Cols/4 + m.Cols%4) * p.stride * 4
	if cap(p.data) < size {
		p.data = make([]float64, size)
	}
	p.data = p.data[:size]
	clear(p.data)
	for r := range m.Rows {
		p.SetRow(r, m.Row(r))
	}
}

// SetRow widens row into row r of p: call it after changing that row of
// the matrix p was Set from.
func (p *Panel64) SetRow(r int, row []float32) {
	if r < 0 || r >= p.rows || len(row) != p.cols {
		panic("hdc: Panel64.SetRow out of range")
	}
	whole := p.cols &^ 3
	for i, v := range row[:whole] {
		p.data[(i/4*p.stride+r)*4+i%4] = float64(v)
	}
	for i, v := range row[whole:] { // one group per tail element, lane 0
		p.data[((whole/4+i)*p.stride+r)*4] = float64(v)
	}
}

// Dots writes out[r] = Dot(row r, x) for every row of p, bit for bit. The
// assembly converts the query once per lane group and issues one FMA per
// row, eight rows per pass; it runs on AVX2 with FMA, and the portable
// form below reads the same panel row by row.
func (p *Panel64) Dots(x []float32, out []float64) {
	if len(x) != p.cols || len(out) != p.rows {
		panic("hdc: Panel64.Dots length mismatch")
	}
	if useFMA && p.rows > 0 && p.cols > 0 {
		dots64FMA(&x[0], &p.data[0], &out[0], p.cols, p.stride, p.rows)
		return
	}
	whole, step := p.cols&^3, p.stride*4
	for r := range out {
		var s0, s1, s2, s3 float64
		at := r * 4
		for i := 0; i < whole; i += 4 {
			d := p.data[at : at+4 : at+4]
			s0 += float64(x[i]) * d[0]
			s1 += float64(x[i+1]) * d[1]
			s2 += float64(x[i+2]) * d[2]
			s3 += float64(x[i+3]) * d[3]
			at += step
		}
		for _, v := range x[whole:] {
			s0 += float64(v) * p.data[at]
			at += step
		}
		out[r] = s0 + s1 + s2 + s3
	}
}

// Dots4 is Dots for four queries, bit for bit: out[q*k : (q+1)*k] is
// Dots(x[q]) for the panel's k rows. On AVX-512F one pass over the panel
// serves all four queries; elsewhere it is four Dots calls.
func (p *Panel64) Dots4(x *[4][]float32, out []float64) {
	k, n := p.rows, p.cols
	if len(out) != 4*k || len(x[0]) != n || len(x[1]) != n || len(x[2]) != n || len(x[3]) != n {
		panic("hdc: Panel64.Dots4 length mismatch")
	}
	if useAVX512 && k > 0 && n > 0 {
		dots64x4AVX512(&x[0][0], &x[1][0], &x[2][0], &x[3][0], &p.data[0], &out[0], n, p.stride, k)
		return
	}
	for q := range x {
		p.Dots(x[q], out[q*k:(q+1)*k])
	}
}

// dotPanelGeneric is the portable DotPanel: DotLanes row by row.
func dotPanelGeneric(x, b []float32, stride int, out []float32) {
	n := len(x)
	for r := range out {
		out[r] = DotLanes(x, b[r*stride:][:n:n])
	}
}

// MatMulT computes dst = a · bᵀ where a is m×k and b is n×k, so dst is
// m×n: dst[i][j] is the kernel dot of a's row i with b's row j — one
// DotPanel over b per row of a, rows fanned out with ParallelChunks. Each
// output is bit-identical to the naive DotLanes double loop regardless of
// worker count. b is a class matrix here, small enough to stay in cache
// across the rows of a.
func MatMulT(a, b, dst *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("hdc: MatMulT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("hdc: MatMulT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if Serial(a.Rows) {
		matMulTRows(a, b, dst, 0, a.Rows)
		return
	}
	ParallelChunks(a.Rows, func(lo, hi int) { matMulTRows(a, b, dst, lo, hi) })
}

func matMulTRows(a, b, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		DotPanel(a.Row(i), b.Data, b.Cols, dst.Row(i))
	}
}

// Kernel cosine constants: single-precision half-period reduction
// (Cody–Waite split of π) plus a degree-12 even Taylor polynomial on
// [-π/2, π/2] and a parity sign flip. Every step is a single-rounded
// float32 operation, so the scalar form below and the AVX2 and AVX-512
// forms in gemm_amd64.s (same ops, vectorized) are bit-identical. Worst
// absolute error is a few float32 ulps (~2e-7) — below the resolution of
// the unit-range outputs the RBF encoder stores. Callers needing float64
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
// per-dimension refresh) evaluates exactly this function through
// EncodePanel — scalar here, vectorized in assembly — so their outputs are
// bit-identical. Arguments are assumed moderate (|x| ≲ 2^15, far beyond
// any encoder pre-activation); it is not a general-range math.Cos.
func Cos32(x float32) float32 {
	v := x * cosInvPi
	n := float32(math.RoundToEven(float64(v)))
	r := x - n*cosPiHi
	r -= n * cosPiLo
	p := cosPoly(r * r)
	// cos(x) = (-1)^n · cos(r): flip the sign bit on odd half-periods.
	return math.Float32frombits(math.Float32bits(p) ^ uint32(int32(n))<<31)
}

// cosPoly is Cos32's polynomial, cos r as a function of z = r².
func cosPoly(z float32) float32 {
	p := cosC6
	p = p*z + cosC5
	p = p*z + cosC4
	p = p*z + cosC3
	p = p*z + cosC2
	p = p*z + cosC1
	return p*z + 1
}

// EncodeGroup is the row-group height of an encode panel: sixteen rows,
// one 512-bit vector or two 256-bit halves.
const EncodeGroup = 16

// PanelIndex is the position of element i of row r in an encode panel
// whose rows hold n elements each.
func PanelIndex(r, i, n int) int {
	return (r/EncodeGroup*n+i)*EncodeGroup + r%EncodeGroup
}

// EncodePanel writes the RBF encoding dst[r] = Cos32(DotLanes(B[r], x) +
// bias[r]) for every r in [0, len(dst)), reading the base matrix B as an
// encode panel: rows in groups of EncodeGroup, interleaved so element i of
// row r sits at panel[PanelIndex(r, i, len(x))]. A partial last group
// still occupies a whole group of panel and bias (one phase per panel
// row); what its padding rows hold does not matter.
//
// Each group runs the DotLanes lane classes as eight accumulators of
// EncodeGroup rows, folds them and adds the bias; Cos32 then runs on the
// sums (in assembly as a second pass over dst, so the cosine chains of
// successive groups overlap). Outputs are bit-identical to the scalar.
func EncodePanel(x, panel, bias, dst []float32) {
	n, rows := len(x), len(dst)
	padded := (rows + EncodeGroup - 1) / EncodeGroup * EncodeGroup
	if len(panel) < padded*n || len(bias) < padded {
		panic("hdc: EncodePanel panel shorter than its rows")
	}
	switch {
	case n == 0 || rows == 0:
	case useAVX512:
		encodePanelAVX512(&x[0], &panel[0], &bias[0], &dst[0], n, rows)
		return
	case useAVX2:
		encodePanelAVX2(&x[0], &panel[0], &bias[0], &dst[0], n, rows)
		return
	}
	encodePanelGeneric(x, panel, bias, dst)
}

// encodePanelGeneric is the portable EncodePanel: each row walks its
// interleaved column with the eight lane accumulators in locals, and a
// group's cosines run as one loop.
func encodePanelGeneric(x, panel, bias, dst []float32) {
	const G = EncodeGroup
	n := len(x)
	var dots [G]float32
	for r0 := 0; r0 < len(dst); r0 += G {
		p, d := panel[r0*n:][:G*n], dst[r0:min(r0+G, len(dst))]
		for j := range d {
			var l0, l1, l2, l3, l4, l5, l6, l7 float32
			xs, q := x, p[min(j, len(p)):] // p is empty when x is
			for len(xs) >= 8 && len(q) > 7*G {
				l0 += xs[0] * q[0]
				l1 += xs[1] * q[G]
				l2 += xs[2] * q[2*G]
				l3 += xs[3] * q[3*G]
				l4 += xs[4] * q[4*G]
				l5 += xs[5] * q[5*G]
				l6 += xs[6] * q[6*G]
				l7 += xs[7] * q[7*G]
				xs, q = xs[8:], q[min(8*G, len(q)):]
			}
			l := [8]float32{l0, l1, l2, l3, l4, l5, l6, l7}
			for k, xv := range xs { // the n mod 8 tail, lanes 0.. as in DotLanes
				l[k] += xv * q[k*G]
			}
			dots[j] = l[0] + l[1] + l[2] + l[3] + l[4] + l[5] + l[6] + l[7]
		}
		for j := range d {
			d[j] = Cos32(dots[j] + bias[r0+j])
		}
	}
}
