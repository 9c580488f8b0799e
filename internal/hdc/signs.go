package hdc

import "math"

// This file is the sign kernel: the RBF encode of EncodePanel cut down to
// the one bit a 1-bit query keeps of each output.
//
// # The certificate
//
// SignPanel.EncodeSigns is sign-exact: bit r is Cos32(DotLanes(B_r, x) +
// b_r) >= 0 on every path, the bit bitpack packs from EncodePanel's output
// (+0 and −0 give 1, NaN gives 0). The AVX-512 path gets there without the
// unfused sum and without the cosine. It accumulates with fused
// multiply-adds in DotLanes' lane order, giving s' where the scalar has s,
// and keeps v' = s'·(1/π) and n' = v' rounded to even. Cos32 evaluates
// p(r²) for r = s − n·π and flips the sign when n is odd, and p > 0 on
// every float32 z ≤ signZMax (TestCosPolyPositive checks this exhaustively
// from 1 up, and below 1 p > cos 1 − 1e-5 > ½). So when n = n' and r² ≤
// signZMax the bit is "n' is even". A lane is certified when |v'| < 2^14
// and |v' − n'| ≤ ½ − A − B·|v'|, which implies both. With u = 2^-24,
// k = ⌈len(x)/8⌉ products per lane and T = ‖x‖∞·max_r‖B_r‖₁ + max_r|b_r|:
//
//   - Each term of s passes through at most k + 9 roundings (its product,
//     k lane adds, 7 fold adds, the bias add), so s and s' each lie within
//     γ_{k+9}·T of the exact B_r·x + b_r, γ_m = m·u/(1 − m·u), and
//     |s − s'| ≤ E = 2γ_{k+9}·T (plus 2^-100 for underflow).
//   - v and v' are single roundings of s/π-sized products, so |v − v'| ≤
//     1.001·E/π + 2.001u·|v'|. With the A term 1.001·E/π and the slope B
//     above 2.001u, |v − n'| stays below ½: n = n'.
//   - The rest of A and B, signEta and signSlope − 2.001u, keep |r| ≤
//     √signZMax through the error of 1/π's float32 constant, the Cody–Waite
//     steps and v's rounding (each a few u·(1 + |v'|)).
//
// |v'| < 2^14 keeps n·cosPiHi exact and n's parity in an int32, and a
// non-finite lane fails both compares. A 16-row group with any lane not
// certified is recomputed with EncodePanel, which is the scalar by
// construction; served inputs (|x| ≤ 10 after normalization) leave under
// one such group per thousand. A query or panel holding a NaN or an infinity
// certifies nothing. The AVX2 and portable paths are EncodePanel plus the
// sign throughout.

// signZMax bounds z = r² on certified lanes: Cos32's polynomial is
// positive on every float32 in [0, signZMax] (its first zero is at
// 2.4674013, just past (π/2)²).
const signZMax = float32(2.4673)

// signSlope is B, the per-|v'| part of the certificate margin.
const signSlope = float32(4e-7)

// signEta is the constant part of A that keeps |r| within √signZMax: its
// gap to π/2 plus 1e-6 for the reduction's rounding, in half-periods.
var signEta = (math.Pi/2 - math.Sqrt(float64(signZMax))*(1-0x1p-50) + 1e-6) / math.Pi

// SignPanel is an encode panel prepared for EncodeSigns: rows base rows of
// n elements in EncodePanel's layout with their phases, plus the row
// bounds the certificate scales with.
type SignPanel struct {
	panel, bias []float32
	n, rows     int
	// The certificate's constant margin for a query x is A = ‖x‖∞·ax +
	// a0, rounded up: ax carries max_r ‖B_r‖₁, a0 max_r |b_r| and signEta.
	// A row or phase that is not finite makes them NaN, which certifies
	// nothing.
	ax, a0 float64
}

// NewSignPanel lays out the row-major rows×n matrix base, rows = len(bias),
// as a sign panel. The panel copies base and bias.
func NewSignPanel(base, bias []float32, n int) *SignPanel {
	rows := len(bias)
	if n < 0 || len(base) != rows*n {
		panic("hdc: NewSignPanel base is not len(bias) rows of n")
	}
	padded := (rows + EncodeGroup - 1) / EncodeGroup * EncodeGroup
	p := &SignPanel{panel: make([]float32, padded*n), bias: make([]float32, padded), n: n, rows: rows}
	copy(p.bias, bias)
	var l1, bmax float64
	for r := range rows {
		var sum float64
		for i, v := range base[r*n : (r+1)*n] {
			p.panel[PanelIndex(r, i, n)] = v
			sum += math.Abs(float64(v))
		}
		l1 = max(l1, sum*(1+float64(n+1)*0x1p-52)) // the float64 sum's own rounding
		bmax = max(bmax, math.Abs(float64(bias[r])))
	}
	// 1.001·E/π per unit of T, E = 2γ_m·T for m roundings per term.
	m := float64((n+7)/8+9) * 0x1p-24
	g := 1.001 * 2 * m / (1 - m) / math.Pi
	if m > 0.5 {
		g = math.NaN()
	}
	p.ax = l1 * g * (1 + 0x1p-40)
	p.a0 = (bmax*g + signEta + 0x1p-24 + 0x1p-100) * (1 + 0x1p-40) // 2^-24: the threshold's rounding
	return p
}

// Words returns the uint64 words one query's bits take.
func (p *SignPanel) Words() int { return (p.rows + 63) / 64 }

// EncodeSigns writes bit r of dst (bit r%64 of word r/64) = Cos32(
// DotLanes(B_r, x) + b_r) >= 0 for every row and clears the bits past
// Rows. It reports whether some row's cosine is neither ±0 nor NaN:
// bitpack.Quantize stores +1 everywhere instead of signs when no element
// of a vector is, so a caller packing a wider vector needs to know.
func (p *SignPanel) EncodeSigns(x []float32, dst []uint64) bool {
	if len(x) != p.n || len(dst) != p.Words() {
		panic("hdc: EncodeSigns length mismatch")
	}
	var nonzero [1]bool
	p.EncodeSignsBatch(&Matrix{Rows: 1, Cols: p.n, Data: x}, 0, 1, dst, nonzero[:])
	return nonzero[0]
}

// EncodeSignsBatch is EncodeSigns for rows [lo, hi) of x: query lo+i
// writes dst[i·Words() : (i+1)·Words()] and nonzero[i]. It walks the panel
// one 64-row word at a time across up to 64 queries, so that slice of the
// panel stays in L1 for all of them.
func (p *SignPanel) EncodeSignsBatch(x *Matrix, lo, hi int, dst []uint64, nonzero []bool) {
	words := p.Words()
	if x.Cols != p.n || lo < 0 || hi > x.Rows || lo > hi || len(dst) != (hi-lo)*words || len(nonzero) != hi-lo {
		panic("hdc: EncodeSignsBatch length mismatch")
	}
	const block = 64 // queries per pass over the panel
	var m0 [block]float32
	var ok [block]bool
	for b0 := lo; b0 < hi; b0 += block {
		b1 := min(b0+block, hi)
		for i := b0; i < b1; i++ {
			m0[i-b0], ok[i-b0] = p.certificate(x.Row(i))
			nonzero[i-lo] = false
		}
		for w := range words {
			r0, rows := w*64, min(64, p.rows-w*64)
			valid := ^uint64(0) >> (64 - rows)
			for i := b0; i < b1; i++ {
				xi, out := x.Row(i), &dst[(i-lo)*words+w]
				nz := true
				if !ok[i-b0] {
					*out, nz = p.exactSigns(xi, r0, rows)
				} else {
					var cert uint64
					*out = 0 // the pass stores only the groups it has
					encodeSignsAVX512(&xi[0], &p.panel[r0*p.n], &p.bias[r0], out, &cert, p.n, rows, m0[i-b0], signSlope)
					if cert != valid {
						*out, nz = p.recompute(xi, r0, rows, *out, cert)
					}
				}
				nonzero[i-lo] = nonzero[i-lo] || nz
			}
		}
	}
}

// certificate returns m0 = ½ − A for query x, rounded down, and whether
// any lane can be certified at all: only the AVX-512 path certifies.
func (p *SignPanel) certificate(x []float32) (float32, bool) {
	if !useAVX512 || p.n == 0 {
		return 0, false
	}
	a := float64(math.Float32frombits(absMaxAVX512(&x[0], len(x))))*p.ax + p.a0
	if !(a < 0.5) {
		return 0, false
	}
	return math.Nextafter32(float32(0.5-a), 0), true
}

// recompute replaces every group of the certified pass's word signs
// over rows [r0, r0+rows) whose certificate bits cert are not all set
// with EncodePanel's, and reports whether some row's cosine is neither ±0
// nor NaN; a certified lane's is neither.
func (p *SignPanel) recompute(x []float32, r0, rows int, signs, cert uint64) (uint64, bool) {
	nonzero := cert != 0
	for g := 0; g < rows; g += EncodeGroup {
		want := ^uint64(0) >> (64 - min(EncodeGroup, rows-g))
		if cert>>g&0xffff == want {
			continue
		}
		bits, nz := p.exactSigns(x, r0+g, min(EncodeGroup, rows-g))
		signs = signs&^(0xffff<<g) | bits<<g
		nonzero = nonzero || nz
	}
	return signs, nonzero
}

// exactSigns runs EncodePanel over rows [lo, lo+rows), rows ≤ 64 with lo
// on a group boundary, and packs the signs: the scalar bits by
// construction.
func (p *SignPanel) exactSigns(x []float32, lo, rows int) (uint64, bool) {
	var h [64]float32
	EncodePanel(x, p.panel[lo*p.n:], p.bias[lo:], h[:rows])
	var bits uint64
	nonzero := false
	for i, v := range h[:rows] {
		if v >= 0 {
			bits |= 1 << i
		}
		nonzero = nonzero || v > 0 || v < 0
	}
	return bits, nonzero
}
