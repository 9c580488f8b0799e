package hdc

import "math"

// This file is the sign kernel: the RBF encode of EncodePanel cut down to
// the one bit a 1-bit query keeps of each output. Its one entry point,
// SignPanel.EncodeSignsBatch, walks the panel a 64-row word at a time and
// can retire a query between words: a caller that can already name the
// query's verdict from its first words (quantize's W1 view, whose rows
// are ranked so the words that separate classes most come first) stops
// paying for the rest.
//
// # The certificate
//
// SignPanel.EncodeSignsBatch is sign-exact: bit r is Cos32(DotLanes(B_r,
// x) + b_r) >= 0 on every path, the bit bitpack packs from EncodePanel's
// output (+0 and −0 give 1, NaN gives 0). The AVX-512 path gets there without the
// unfused sum and without the cosine. A call covers one 64-row panel word
// for up to three queries, each load of a group's vector feeding three
// multiply-adds, lane-major: lane class j = 0…7 in turn sums its products
// j, j+8, …, fused, in a fresh register added to the running fold, and the
// bias comes last. That is DotLanes' order, so s' (where the scalar has s)
// depends on neither the block nor the query's slot, only on the fusing.
// It keeps v' = s'·(1/π) and n' = v' rounded to even. Cos32 evaluates
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

// SignPanel is an encode panel prepared for EncodeSignsBatch: rows base
// rows of n elements in EncodePanel's layout with their phases, plus the
// row bounds the certificate scales with.
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
	padded := (rows + 63) / 64 * 64 // whole words: the certified pass takes four groups
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

// EncodeSignsBatch encodes rows [lo, hi) of x to sign bits: query lo+i
// writes bit r of its words dst[i·Words() : (i+1)·Words()] (bit r%64 of
// word r/64) = Cos32(DotLanes(B_r, x) + b_r) >= 0 for every row, clears
// the bits past Rows, and sets nonzero[i] when some row's cosine is
// neither ±0 nor NaN: bitpack.Quantize stores +1 everywhere instead of
// signs when no element of a vector is, so a caller packing a wider
// vector needs to know.
//
// It walks the panel one 64-row word at a time across up to 64 queries,
// so that word stays in L1 for all of them, and runs the word's certified
// pass on three of the block's certified queries at a time, adjacent or
// not. When retire is not nil, retire(lo+i, w) runs after word w of every
// query still in its block, with that word in dst and nonzero[i] covering
// words 0…w; a true return retires the query, whose later words are then
// neither computed nor written. A nil retire computes every word.
func (p *SignPanel) EncodeSignsBatch(x *Matrix, lo, hi int, dst []uint64, nonzero []bool, retire func(i, w int) bool) {
	words := p.Words()
	if x.Cols != p.n || lo < 0 || hi > x.Rows || lo > hi || len(dst) != (hi-lo)*words || len(nonzero) != hi-lo {
		panic("hdc: EncodeSignsBatch length mismatch")
	}
	const block = 64      // queries per pass over the panel
	var m0 [block]float32 // a certified query's margin, at its place in the block
	var order [block]int  // the block's unretired certified queries in order, then the rest
	for b0 := lo; b0 < hi; b0 += block {
		nb, nc := min(block, hi-b0), 0
		for i, u := b0, nb; i < b0+nb; i++ {
			nonzero[i-lo] = false
			if m, ok := p.certificate(x.Row(i)); ok {
				m0[i-b0], order[nc] = m, i
				nc++
			} else {
				u--
				order[u] = i
			}
		}
		for w := 0; w < words && nb > 0; w++ {
			r0, rows, next := w*64, min(64, p.rows-w*64), (w+1)%words*64*p.n
			valid := ^uint64(0) >> (64 - rows)
			for t := 0; t < nb; t += 3 {
				var out [6]uint64 // an uncertified query's certificate bits stay clear
				if q := min(3, nc-t); q > 0 {
					i0, i1, i2 := order[t], order[t+min(1, q-1)], order[t+min(2, q-1)]
					m := [3]float32{m0[i0-b0], m0[i1-b0], m0[i2-b0]}
					signWordAVX512(&x.Row(i0)[0], &x.Row(i1)[0], &x.Row(i2)[0], &p.panel[r0*p.n], &p.bias[r0], &out, p.n, q, &m[0], signSlope,
						&p.panel[min(next+t/3*256, len(p.panel)-1)]) // the next word, 1 KiB a call
				}
				for j, i := range order[t:min(t+3, nb)] {
					signs, cert, nz := out[j]&valid, out[3+j]&valid, true
					if cert != valid {
						signs, nz = p.recompute(x.Row(i), r0, rows, signs, cert)
					}
					dst[(i-lo)*words+w] = signs
					nonzero[i-lo] = nonzero[i-lo] || nz
				}
			}
			if retire == nil {
				continue
			}
			k, kc := 0, 0 // the queries kept, and the certified among them
			for t, i := range order[:nb] {
				if retire(i, w) {
					continue
				}
				if t < nc {
					kc++
				}
				order[k] = i
				k++
			}
			nb, nc = k, kc
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

// recompute replaces the signs of every 16-row group of the panel word at
// r0 (rows rows) whose certificate bits cert are not all set with
// EncodePanel's, the scalar by construction, and reports whether some
// row's cosine is neither ±0 nor NaN; a certified lane's is neither.
func (p *SignPanel) recompute(x []float32, r0, rows int, signs, cert uint64) (uint64, bool) {
	nonzero := cert != 0
	var h [EncodeGroup]float32
	for g := 0; g < rows; g += EncodeGroup {
		if gr := min(EncodeGroup, rows-g); cert>>g&0xffff != ^uint64(0)>>(64-gr) {
			EncodePanel(x, p.panel[(r0+g)*p.n:], p.bias[r0+g:], h[:gr])
			signs &^= 0xffff << g
			for k, v := range h[:gr] {
				if v >= 0 {
					signs |= 1 << (g + k)
				}
				nonzero = nonzero || v > 0 || v < 0
			}
		}
	}
	return signs, nonzero
}
