// Package bitpack implements quantized hypervectors stored b bits per
// element inside uint64 words, for b ∈ {1, 2, 4, 8, 16, 32}.
//
// The same packed representation serves two purposes in the paper's
// evaluation: (i) Table I's bitwidth sweep, where narrower elements buy
// more FPGA parallelism at the cost of a larger effective dimensionality,
// and (ii) Fig 5's fault injection, where hardware errors are modeled as
// uniform random flips of *physical storage bits* — packing makes "a bit"
// a well-defined target at every width.
//
// Elements are two's-complement signed integers of b bits, except b == 1
// which is the conventional bipolar encoding: stored bit 1 ⇒ +1, 0 ⇒ −1.
// One-bit dot products use XNOR/popcount over whole words.
package bitpack

import (
	"fmt"
	"math"
)

// Width is a supported element bitwidth.
type Width int

// Supported element bitwidths.
const (
	W1  Width = 1
	W2  Width = 2
	W4  Width = 4
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
)

// Widths lists all supported bitwidths in descending order, matching the
// columns of Table I.
var Widths = []Width{W32, W16, W8, W4, W2, W1}

// Valid reports whether w is a supported bitwidth.
func (w Width) Valid() bool {
	switch w {
	case W1, W2, W4, W8, W16, W32:
		return true
	}
	return false
}

// MaxQ returns the largest representable magnitude for width w
// (symmetric range ±MaxQ; 1-bit is ±1).
func (w Width) MaxQ() int64 {
	if w == W1 {
		return 1
	}
	return (1 << (uint(w) - 1)) - 1
}

// Vector is a quantized hypervector: Dim elements of Width bits packed
// little-endian-within-word into Words. Scale converts stored integers back
// to the float domain: x ≈ Scale · q.
type Vector struct {
	// Dim is the element count.
	Dim int
	// Width is the element bitwidth.
	Width Width
	// Scale converts stored integers to the float domain: x ≈ Scale · q.
	Scale float32
	// Words holds the packed payload, Dim×Width bits little-endian within
	// each uint64; slack bits past the payload are never read by kernels.
	Words []uint64
}

// wordsFor returns the number of uint64 words needed for n elements of
// width w.
func wordsFor(n int, w Width) int {
	per := 64 / int(w)
	return (n + per - 1) / per
}

// NewVector allocates a zeroed quantized vector. For W1, "zero" decodes to
// −1 at every position (stored bit 0); callers normally Quantize into it.
func NewVector(dim int, w Width) *Vector {
	if !w.Valid() {
		panic(fmt.Sprintf("bitpack: invalid width %d", w))
	}
	if dim < 0 {
		panic("bitpack: negative dim")
	}
	return &Vector{Dim: dim, Width: w, Scale: 1, Words: make([]uint64, wordsFor(dim, w))}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := &Vector{Dim: v.Dim, Width: v.Width, Scale: v.Scale, Words: make([]uint64, len(v.Words))}
	copy(out.Words, v.Words)
	return out
}

// StorageBits returns the number of physical storage bits holding payload
// (Dim × Width). Fault injection draws uniformly over this range.
func (v *Vector) StorageBits() int { return v.Dim * int(v.Width) }

// Set stores the signed integer q at element i, truncated to the vector's
// width. For W1, q >= 0 stores +1 and q < 0 stores −1.
func (v *Vector) Set(i int, q int64) {
	if i < 0 || i >= v.Dim {
		panic("bitpack: Set index out of range")
	}
	w := int(v.Width)
	if v.Width == W1 {
		bit := uint64(0)
		if q >= 0 {
			bit = 1
		}
		word, off := i/64, uint(i%64)
		v.Words[word] = v.Words[word]&^(1<<off) | bit<<off
		return
	}
	per := 64 / w
	word, slot := i/per, i%per
	off := uint(slot * w)
	mask := (uint64(1)<<uint(w) - 1)
	v.Words[word] = v.Words[word]&^(mask<<off) | (uint64(q)&mask)<<off
}

// Get returns the signed integer stored at element i (sign-extended).
// For W1 it returns +1 or −1.
func (v *Vector) Get(i int) int64 {
	if i < 0 || i >= v.Dim {
		panic("bitpack: Get index out of range")
	}
	w := int(v.Width)
	if v.Width == W1 {
		word, off := i/64, uint(i%64)
		if v.Words[word]>>off&1 == 1 {
			return 1
		}
		return -1
	}
	per := 64 / w
	word, slot := i/per, i%per
	off := uint(slot * w)
	mask := (uint64(1)<<uint(w) - 1)
	raw := v.Words[word] >> off & mask
	// sign-extend
	signBit := uint64(1) << uint(w-1)
	if raw&signBit != 0 {
		raw |= ^mask
	}
	return int64(raw)
}

// FlipBit flips physical storage bit k, where k indexes the payload bits
// of the vector in element order (k ∈ [0, StorageBits())). This is the
// fault model for Fig 5: a flip of the element's most significant (sign)
// bit changes its value most; at 1-bit width every flip negates one
// element.
func (v *Vector) FlipBit(k int) {
	if k < 0 || k >= v.StorageBits() {
		panic("bitpack: FlipBit index out of range")
	}
	w := int(v.Width)
	elem, bit := k/w, k%w
	per := 64 / w
	word, slot := elem/per, elem%per
	off := uint(slot*w + bit)
	v.Words[word] ^= 1 << off
}

// Quantize builds a packed vector of width w from x using symmetric linear
// quantization: scale = max|x| / MaxQ(w), q = round(x/scale) clamped to the
// symmetric range. For w == 1 the result is the sign pattern with scale
// max|x| (scale only matters for dequantization magnitude, not similarity).
// max|x| skips NaN elements; a NaN element packs as 0 at W2–W32 and as −1
// at W1, on every platform and build. QuantizeInto is the storage-reusing
// form for pooled query packing.
func Quantize(x []float32, w Width) *Vector {
	v := NewVector(len(x), w)
	quantizeBody(x, w, v)
	return v
}

// quantizeBody packs x into the zeroed, correctly-sized vector v — the
// shared implementation of Quantize and QuantizeInto. W1 packs sign bits
// (the served query path: maxAbsAVX and packSignsAVX where AVX is on);
// W2–W32, which only offline evaluation packs, go through the one scalar
// loop quantizeScalar.
func quantizeBody(x []float32, w Width, v *Vector) {
	maxAbs := maxAbsOf(x)
	if maxAbs == 0 {
		v.Scale = 1
		if w == W1 {
			// all-zero input: store an arbitrary but fixed pattern (+1s)
			packSigns(x, v, true)
		}
		return
	}
	if w == W1 {
		v.Scale = float32(maxAbs)
		packSigns(x, v, false)
		return
	}
	maxQ := w.MaxQ()
	scale := maxAbs / float64(maxQ)
	v.Scale = float32(scale)
	quantizeScalar(x, w, scale, maxQ, v)
}

// maxAbsOf returns max |x_i| as a float64, skipping NaN elements. Absolute
// value and max are exact in float32 and the final widening is exact, so
// this equals the all-float64 reference reduction bit-for-bit; the AVX
// path covers whole 8-lane blocks and the scalar loop the tail.
func maxAbsOf(x []float32) float64 {
	var m float32
	start := 0
	if useAVX && len(x) >= 8 {
		start = len(x) &^ 7
		m = maxAbsAVX(&x[0], start)
	}
	for _, f := range x[start:] {
		if f < 0 {
			f = -f
		}
		if f > m {
			m = f
		}
	}
	return float64(m)
}

// quantizeScalar packs x word-at-a-time (elements accumulate into a
// register before one store), producing exactly the values a per-element
// Set loop would: q = round-to-even(x/scale) clamped to ±maxQ, and a NaN
// element packs as 0 on every platform (Go leaves the integer conversion
// of NaN to the implementation: math.MinInt64 on amd64, 0 on arm64).
func quantizeScalar(x []float32, w Width, scale float64, maxQ int64, v *Vector) {
	per := 64 / int(w)
	mask := uint64(1)<<uint(w) - 1
	i := 0
	for k := range v.Words {
		slots := per
		if n := len(x) - i; n < per {
			slots = n
		}
		var word uint64
		for slot := 0; slot < slots; slot++ {
			var q int64
			if f := float64(x[i]) / scale; f == f {
				q = int64(math.RoundToEven(f))
				if q > maxQ {
					q = maxQ
				} else if q < -maxQ {
					q = -maxQ
				}
			}
			word |= (uint64(q) & mask) << uint(slot*int(w))
			i++
		}
		v.Words[k] = word
	}
}

// packSigns packs the W1 sign pattern of x (or all +1s when allPos) 64
// elements per word: bit = 1 iff x_i >= 0 (so +0 and −0 both store +1).
// The AVX path covers whole 64-element words with the identical
// predicate; the scalar loop finishes the rest.
func packSigns(x []float32, v *Vector, allPos bool) {
	i := 0
	if !allPos && useAVX && len(x) >= 64 {
		nw := len(x) / 64
		packSignsAVX(&v.Words[0], &x[0], nw)
		i = nw * 64
	}
	for k := i / 64; k < len(v.Words); k++ {
		slots := 64
		if n := len(x) - i; n < 64 {
			slots = n
		}
		var word uint64
		for slot := 0; slot < slots; slot++ {
			if allPos || x[i] >= 0 {
				word |= 1 << uint(slot)
			}
			i++
		}
		v.Words[k] = word
	}
}

// Dot returns the inner product Σ a_i·b_i of two packed vectors of
// identical dim and width, in the integer domain (the float-domain product
// is Dot·a.Scale·b.Scale). It is a one-row panel: kernels.go's dotPanel4
// with a repeated in every row slot and b as the query — XNOR/popcount at
// W1, SWAR popcounts at W2, exact widened-integer accumulation at W4–W16,
// and 4-lane float64 accumulation at W32 (32-bit element products summed
// over thousands of dimensions overflow int64; the fixed lane scheme —
// lane = index mod 4, lanes folded sequentially — makes the summation
// order deterministic across the scalar and vector paths). MatVecInto is
// the batch form scoring a query against a whole class memory.
func Dot(a, b *Vector) float64 {
	compatible(a, b)
	var out [4]float64
	dotPanel4(a, a, a, a, b, out[:])
	return out[0]
}

// Cosine returns the cosine similarity of two packed vectors in the integer
// domain (scales cancel). Zero vectors yield 0.
func Cosine(a, b *Vector) float64 {
	dot := Dot(a, b)
	na := math.Sqrt(NormSq(a))
	nb := math.Sqrt(NormSq(b))
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// Matrix is a set of equally-shaped quantized vectors, one per row — the
// quantized class-hypervector memory.
type Matrix struct {
	// Rows holds one packed vector per class.
	Rows []*Vector
}

// QuantizeMatrix packs each row of the rows×cols float matrix data
// (row-major) at width w.
func QuantizeMatrix(data []float32, rows, cols int, w Width) *Matrix {
	if len(data) != rows*cols {
		panic("bitpack: QuantizeMatrix size mismatch")
	}
	m := &Matrix{Rows: make([]*Vector, rows)}
	for r := 0; r < rows; r++ {
		m.Rows[r] = Quantize(data[r*cols:(r+1)*cols], w)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: make([]*Vector, len(m.Rows))}
	for i, r := range m.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// StorageBits returns the total payload bits across all rows.
func (m *Matrix) StorageBits() int {
	total := 0
	for _, r := range m.Rows {
		total += r.StorageBits()
	}
	return total
}

// FlipBit flips global payload bit k, counting across rows in order.
func (m *Matrix) FlipBit(k int) {
	if k < 0 {
		panic("bitpack: Matrix.FlipBit negative index")
	}
	for _, r := range m.Rows {
		if k < r.StorageBits() {
			r.FlipBit(k)
			return
		}
		k -= r.StorageBits()
	}
	panic("bitpack: Matrix.FlipBit index out of range")
}

// Classify returns the row index with the highest integer-domain cosine
// similarity to q, which must match the rows' dim and width. It scores
// through MatVecInto and recomputes every row norm per call — the
// stateless reference; hot paths classify through a Scorer, which caches
// the row norms. Each score is Cosine's arithmetic (a zero norm scores 0),
// and ties resolve to the lowest index.
func (m *Matrix) Classify(q *Vector) int {
	var stack [stackClasses]float64
	var dots []float64
	if k := len(m.Rows); k <= stackClasses {
		dots = stack[:k]
	} else {
		dots = make([]float64, k)
	}
	MatVecInto(m, q, dots)
	nq := math.Sqrt(NormSq(q))
	best, bestSim := 0, math.Inf(-1)
	for i, r := range m.Rows {
		var s float64
		if nr := math.Sqrt(NormSq(r)); nr != 0 && nq != 0 {
			s = dots[i] / (nr * nq)
		}
		if s > bestSim {
			best, bestSim = i, s
		}
	}
	return best
}
