package bitpack

import (
	"math"
	"math/bits"
)

// This file is the quantized analog of internal/hdc's kernel layer: blocked
// batch kernels over packed words, so the offline W2–W32 evaluation
// (Table I, Fig 5) scores in the integer domain at GEMM rates instead of
// element-at-a-time Get loops; disabling the AVX2 kernels made it 7–8×
// slower per query at D = 512. Each width has exactly one dot kernel, a 4-row panel that scores
// four rows against one query in a single pass over the query words
// (dotPanel4); a single Dot is a one-row panel with the row repeated. The
// panel has a pure-Go word-level path plus, on amd64 without the noasm
// tag, a vectorized fast path at every width from W4 up (kernels_amd64.s)
// selected at init via internal/cpufeat — see KernelPath:
//
//   - W1: XNOR + bits.OnesCount64 over whole words (matches − mismatches
//     = Dim − 2·hamming), in Go on every build. W1 serving scores through
//     quantize's folded view of the live columns, not this panel, so its
//     callers are Dot, Cosine and the stateless reference Matrix.Classify.
//   - W2: SWAR — four popcounts per word recover the exact dot of 32
//     2-bit elements (see dotCrumbsPre), no per-element extraction.
//   - W4/W8: widened-integer extraction in Go; AVX2 path sign-extends
//     bytes (nibbles via a shuffle LUT first) to int16 lanes and
//     multiplies pairwise with VPMADDWD into int32 accumulators.
//   - W16: widened-integer extraction in Go; AVX2 path VPMADDWDs whole
//     words and widens each product pair to int64 immediately.
//   - W32: four float64 lanes (lane = element index mod 4) accumulated
//     vertically and folded sequentially l0+l1+l2+l3 — the same
//     lane-based contract as hdc.DotLanes, which makes the 4-wide AVX
//     path (VCVTDQ2PD + VMULPD + VADDPD) bit-identical by construction.
//
// # Determinism
//
// W1–W16 sums are exact integers (|sum| < 2^53), so any summation order —
// assembly chunks plus scalar tails included — produces the same value.
// W32 is float64 arithmetic, so its summation order IS the contract: the
// 4-lane scheme above, which both the scalar and AVX paths implement
// group-by-group. The panel shares query word loads across its rows but
// never reorders a row's summation, so a row's score is bit-identical
// whichever panel slot it occupies — alone in Dot, padded in MatVecInto's
// remainder panel, or in a full panel — and regardless of caller-side
// batching.
// The package tests pin kernel ≡ scalar Get-loop equality at every width,
// including partial last words and slack-bit pollution.

// maxSIMDDim bounds the dimensionality routed to the int32-accumulator
// assembly kernels (W4/W8): above it a worst-case all-±MaxQ vector could
// overflow an int32 lane (W8: 2^16 per 32-element step × 2^19/32 steps =
// 2^30 < 2^31). Larger vectors — far beyond any hyperspace in the paper —
// fall back to the exact scalar path, which computes the same value.
const maxSIMDDim = 1 << 19

// compatible panics unless a and b share dim and width.
func compatible(a, b *Vector) {
	if a.Dim != b.Dim || a.Width != b.Width {
		panic("bitpack: vector shape mismatch")
	}
}

// crumbMask selects the low bit of every 2-bit element in a word.
const crumbMask = 0x5555555555555555

// dotCrumbsPre is the W2 SWAR word kernel. A 2-bit two's-complement
// element with bits (hi, lo) has value lo − 2·hi, so the product of two
// elements expands to lo·lo − 2·(lo·hi + hi·lo) + 4·hi·hi — and since
// each bit product over a whole word is just a popcount of an AND, one
// word of 32 element products reduces to four popcounts. Exact integers,
// bit-identical to dotPanelIntAccum at w=2. The caller pre-splits one
// operand (bLo/bHi), which the 4-row panel shares across rows.
func dotCrumbsPre(a, bLo, bHi uint64) int64 {
	aLo, aHi := a&crumbMask, (a>>1)&crumbMask
	n11 := int64(bits.OnesCount64(aHi & bHi))
	n10 := int64(bits.OnesCount64(aHi & bLo))
	n01 := int64(bits.OnesCount64(aLo & bHi))
	n00 := int64(bits.OnesCount64(aLo & bLo))
	return n00 + 4*n11 - 2*(n10+n01)
}

// dot32Tail folds the up-to-3 trailing elements into their lanes.
func dot32Tail(aw, bw []uint64, full, dim int, l *[4]float64) {
	for i := full; i < dim; i++ {
		k, sh := i>>1, uint(i&1)*32
		l[i&3] += float64(int32(uint32(aw[k]>>sh))) * float64(int32(uint32(bw[k]>>sh)))
	}
}

// foldLanes folds the 4 lanes sequentially — the fixed order that closes
// the W32 contract.
func foldLanes(l *[4]float64) float64 { return ((l[0] + l[1]) + l[2]) + l[3] }

// MatVecInto scores one packed query against every row of m:
// out[r] = Dot(m.Rows[r], q), blocked into 4-row panels that share the
// query's word loads (and, on the AVX2 paths, its vector expansion).
// When the row count is not a multiple of 4, the last 1–3 rows form one
// panel padded with repeats of the last row (rows are only read). Each
// row's sum keeps its width's contract, so the results are bit-identical
// to per-row Dot calls (pinned by tests).
func MatVecInto(m *Matrix, q *Vector, out []float64) {
	if len(out) != len(m.Rows) {
		panic("bitpack: MatVecInto output length mismatch")
	}
	rows := m.Rows
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		compatible(rows[r], q)
		compatible(rows[r+1], q)
		compatible(rows[r+2], q)
		compatible(rows[r+3], q)
		dotPanel4(rows[r], rows[r+1], rows[r+2], rows[r+3], q, out[r:r+4:r+4])
	}
	if r < len(rows) {
		last := rows[len(rows)-1]
		p := [4]*Vector{last, last, last, last}
		copy(p[:], rows[r:])
		for _, row := range rows[r:] {
			compatible(row, q)
		}
		var tail [4]float64
		dotPanel4(p[0], p[1], p[2], p[3], q, tail[:])
		copy(out[r:], tail[:])
	}
}

// dotPanel4 computes four packed dots against one query in a single pass
// over the query words.
func dotPanel4(r0, r1, r2, r3, q *Vector, out []float64) {
	switch q.Width {
	case W1:
		dotPanel1x4(r0, r1, r2, r3, q, out)
	case W2:
		dotPanel2x4(r0.Words, r1.Words, r2.Words, r3.Words, q.Words, q.Dim, out)
	case W32:
		dotPanel32x4(r0.Words, r1.Words, r2.Words, r3.Words, q.Words, q.Dim, out)
	default:
		dotPanelFastx4(r0.Words, r1.Words, r2.Words, r3.Words, q.Words, q.Dim, int(q.Width), out)
	}
}

// dotPanel1x4 is the 4-row bipolar panel: one XNOR/popcount per row per
// query word, then the partial last word masked to the query's valid
// bits.
func dotPanel1x4(r0, r1, r2, r3, q *Vector, out []float64) {
	var h [4]int64
	full := q.Dim / 64
	qw := q.Words
	for k := 0; k < full; k++ {
		w := qw[k]
		h[0] += int64(bits.OnesCount64(r0.Words[k] ^ w))
		h[1] += int64(bits.OnesCount64(r1.Words[k] ^ w))
		h[2] += int64(bits.OnesCount64(r2.Words[k] ^ w))
		h[3] += int64(bits.OnesCount64(r3.Words[k] ^ w))
	}
	if rem := q.Dim % 64; rem != 0 {
		mask := uint64(1)<<uint(rem) - 1
		w := qw[full]
		h[0] += int64(bits.OnesCount64((r0.Words[full] ^ w) & mask))
		h[1] += int64(bits.OnesCount64((r1.Words[full] ^ w) & mask))
		h[2] += int64(bits.OnesCount64((r2.Words[full] ^ w) & mask))
		h[3] += int64(bits.OnesCount64((r3.Words[full] ^ w) & mask))
	}
	d := int64(q.Dim)
	out[0] = float64(d - 2*h[0])
	out[1] = float64(d - 2*h[1])
	out[2] = float64(d - 2*h[2])
	out[3] = float64(d - 2*h[3])
}

// dotPanel2x4 is the 4-row W2 SWAR panel: the query word is split into
// crumb planes once and shared by all four rows.
func dotPanel2x4(a0, a1, a2, a3, qw []uint64, dim int, out []float64) {
	var s0, s1, s2, s3 int64
	full := dim / 32
	for k := 0; k < full; k++ {
		q := qw[k]
		qLo, qHi := q&crumbMask, (q>>1)&crumbMask
		s0 += dotCrumbsPre(a0[k], qLo, qHi)
		s1 += dotCrumbsPre(a1[k], qLo, qHi)
		s2 += dotCrumbsPre(a2[k], qLo, qHi)
		s3 += dotCrumbsPre(a3[k], qLo, qHi)
	}
	if rem := dim % 32; rem != 0 {
		mask := uint64(1)<<(uint(rem)*2) - 1
		q := qw[full] & mask
		qLo, qHi := q&crumbMask, (q>>1)&crumbMask
		s0 += dotCrumbsPre(a0[full], qLo, qHi)
		s1 += dotCrumbsPre(a1[full], qLo, qHi)
		s2 += dotCrumbsPre(a2[full], qLo, qHi)
		s3 += dotCrumbsPre(a3[full], qLo, qHi)
	}
	out[0] = float64(s0)
	out[1] = float64(s1)
	out[2] = float64(s2)
	out[3] = float64(s3)
}

// dotPanelIntAccum is the 4-row widened-integer scalar core for W2–W16:
// each element is extracted with a shift pair (left-align, arithmetic
// right to sign-extend), the query element once per slot, and the
// products accumulate into four independent int64 accumulators, added
// into s — exact, and callable on word-slice tails after an assembly
// block.
func dotPanelIntAccum(a0, a1, a2, a3, qw []uint64, dim, w int, s *[4]int64) {
	per := 64 / w
	// Constant shift amounts: the low element is sign-extended with a
	// fixed (shl, sar) pair and the word shifted down by w per slot —
	// x86 variable-amount shifts serialize through CL, so keeping every
	// shift count loop-invariant is worth ~2x on this kernel.
	inv := uint(64 - w)
	uw := uint(w)
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	k := 0
	for rem := dim; rem > 0; k++ {
		slots := per
		if rem < per {
			slots = rem
		}
		q := qw[k]
		w0, w1, w2, w3 := a0[k], a1[k], a2[k], a3[k]
		for slot := 0; slot < slots; slot++ {
			qv := int64(q<<inv) >> inv
			s0 += qv * (int64(w0<<inv) >> inv)
			s1 += qv * (int64(w1<<inv) >> inv)
			s2 += qv * (int64(w2<<inv) >> inv)
			s3 += qv * (int64(w3<<inv) >> inv)
			q >>= uw
			w0 >>= uw
			w1 >>= uw
			w2 >>= uw
			w3 >>= uw
		}
		rem -= slots
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// dotPanelFastx4 is the 4-row W4/W8/W16 dispatcher: AVX2 panel kernels
// over whole 4-word blocks, scalar accumulation for the remainder (all of
// it on fallback builds or past maxSIMDDim). Both halves are exact
// integers, so the split is invisible in the result.
func dotPanelFastx4(a0, a1, a2, a3, qw []uint64, dim, w int, out []float64) {
	var s [4]int64
	per := 64 / w
	n4 := 0 // whole words the assembly covers, a multiple of 4
	if useAVX2 && dim <= maxSIMDDim {
		n4 = (dim / per) &^ 3
	}
	if n4 > 0 {
		switch w {
		case 4:
			dotNibblesPanel4AVX2(&a0[0], &a1[0], &a2[0], &a3[0], &qw[0], n4, &s)
		case 8:
			dotBytesPanel4AVX2(&a0[0], &a1[0], &a2[0], &a3[0], &qw[0], n4, &s)
		case 16:
			dotShortsPanel4AVX2(&a0[0], &a1[0], &a2[0], &a3[0], &qw[0], n4, &s)
		}
	}
	if rem := dim - n4*per; rem > 0 {
		dotPanelIntAccum(a0[n4:], a1[n4:], a2[n4:], a3[n4:], qw[n4:], rem, w, &s)
	}
	out[0] = float64(s[0])
	out[1] = float64(s[1])
	out[2] = float64(s[2])
	out[3] = float64(s[3])
}

// dot32LanesPanelGo is the 4-row Go W32 lane core, sharing the query's
// int32→float64 conversions; row r accumulates into l[4r..4r+3].
func dot32LanesPanelGo(a0, a1, a2, a3, qw []uint64, full int, l *[16]float64) {
	for i := 0; i < full; i += 4 {
		k := i >> 1
		q0, q1 := qw[k], qw[k+1]
		f0 := float64(int32(uint32(q0)))
		f1 := float64(int32(uint32(q0 >> 32)))
		f2 := float64(int32(uint32(q1)))
		f3 := float64(int32(uint32(q1 >> 32)))
		w0, w1 := a0[k], a0[k+1]
		l[0] += f0 * float64(int32(uint32(w0)))
		l[1] += f1 * float64(int32(uint32(w0>>32)))
		l[2] += f2 * float64(int32(uint32(w1)))
		l[3] += f3 * float64(int32(uint32(w1>>32)))
		w0, w1 = a1[k], a1[k+1]
		l[4] += f0 * float64(int32(uint32(w0)))
		l[5] += f1 * float64(int32(uint32(w0>>32)))
		l[6] += f2 * float64(int32(uint32(w1)))
		l[7] += f3 * float64(int32(uint32(w1>>32)))
		w0, w1 = a2[k], a2[k+1]
		l[8] += f0 * float64(int32(uint32(w0)))
		l[9] += f1 * float64(int32(uint32(w0>>32)))
		l[10] += f2 * float64(int32(uint32(w1)))
		l[11] += f3 * float64(int32(uint32(w1>>32)))
		w0, w1 = a3[k], a3[k+1]
		l[12] += f0 * float64(int32(uint32(w0)))
		l[13] += f1 * float64(int32(uint32(w0>>32)))
		l[14] += f2 * float64(int32(uint32(w1)))
		l[15] += f3 * float64(int32(uint32(w1>>32)))
	}
}

// dotPanel32x4 is the 4-row W32 panel: 4 float64 lanes per row under the
// W32 lane contract, sharing the query's conversions.
func dotPanel32x4(a0, a1, a2, a3, qw []uint64, dim int, out []float64) {
	var l [16]float64
	full := dim &^ 3
	if useAVX && full >= 8 {
		dotLanes32Panel4AVX(&a0[0], &a1[0], &a2[0], &a3[0], &qw[0], full>>2, &l)
	} else if full > 0 {
		dot32LanesPanelGo(a0, a1, a2, a3, qw, full, &l)
	}
	rows := [4][]uint64{a0, a1, a2, a3}
	for r := 0; r < 4; r++ {
		lr := (*[4]float64)(l[r*4 : r*4+4])
		dot32Tail(rows[r], qw, full, dim, lr)
		out[r] = foldLanes(lr)
	}
}

// NormSq returns the integer-domain squared Euclidean norm of v: Dim for
// W1 (every element is ±1), Dot(v, v) at every other width — the same
// values the scalar Get-loop produces.
func NormSq(v *Vector) float64 {
	if v.Width == W1 {
		return float64(v.Dim)
	}
	return Dot(v, v)
}

// QuantizeInto is Quantize writing into v, reusing its word storage when
// the capacity suffices — the allocation-free form for pooled query
// packing. v is fully overwritten (dim, width, scale, payload and slack
// bits), so the result is bit-identical to a fresh Quantize(x, w).
func QuantizeInto(x []float32, w Width, v *Vector) {
	if !w.Valid() {
		panic("bitpack: QuantizeInto invalid width")
	}
	n := wordsFor(len(x), w)
	if cap(v.Words) < n {
		v.Words = make([]uint64, n)
	} else {
		v.Words = v.Words[:n]
		for i := range v.Words {
			v.Words[i] = 0
		}
	}
	v.Dim = len(x)
	v.Width = w
	v.Scale = 1
	quantizeBody(x, w, v)
}

// stackClasses is the class-count ceiling for stack-allocated score
// buffers in Scorer.Classify; beyond it each call allocates one.
const stackClasses = 64

// Scorer is the inference-side view of a packed class matrix, mirroring
// core.Scorer for the quantized domain: it caches the integer-domain row
// norms that cosine scoring divides by and drives classification through
// the blocked MatVecInto panels. The query norm is a positive constant
// across rows, so argmax_r dot_r/‖row_r‖ picks the same class as full
// cosine without a per-query norm pass; zero rows score 0 and an all-zero
// query scores 0 everywhere, matching Matrix.Classify's conventions.
//
// The class matrix is shared, not copied: callers that mutate rows after
// construction (fault injection, re-packing) must call Refresh, exactly
// like core.Scorer after class-matrix mutation.
type Scorer struct {
	class *Matrix
	norms []float64
}

// NewScorer builds a scorer over class (shared, not copied) and computes
// the initial row norms.
func NewScorer(class *Matrix) *Scorer {
	s := &Scorer{class: class, norms: make([]float64, len(class.Rows))}
	s.Refresh()
	return s
}

// Refresh recomputes every cached row norm. Call after mutating the packed
// class memory (bit flips, re-quantization in place).
func (s *Scorer) Refresh() {
	for i, r := range s.class.Rows {
		s.norms[i] = math.Sqrt(NormSq(r))
	}
}

// Classify returns the row index with the highest normalized similarity to
// the packed query q, allocation-free for up to stackClasses rows. Ties
// resolve to the lowest index, like Matrix.Classify.
func (s *Scorer) Classify(q *Vector) int {
	var stack [stackClasses]float64
	var scores []float64
	if k := len(s.class.Rows); k <= stackClasses {
		scores = stack[:k]
	} else {
		scores = make([]float64, k)
	}
	MatVecInto(s.class, q, scores)
	best, bv := -1, math.Inf(-1)
	for r, sc := range scores {
		var v float64
		if n := s.norms[r]; n > 0 {
			v = sc / n
		}
		if v > bv {
			best, bv = r, v
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// KernelPath reports the packed-kernel implementation selected at init,
// so benchmarks and the serving /stats surface can attribute numbers to a
// code path: "avx2" (the W4–W16 integer dot kernels on top of "avx"),
// "avx" (vector max-abs and sign packing for W1 queries, and the W32
// float64 lanes; SWAR/popcount dots), or "popcnt-swar" (pure-Go word
// kernels — non-amd64 targets, the noasm build tag, or a CPU/OS without
// YMM state). W2–W32 queries quantize in Go on every path.
func KernelPath() string {
	switch {
	case useAVX2:
		return "avx2"
	case useAVX:
		return "avx"
	default:
		return "popcnt-swar"
	}
}
