// Package encoder maps low-dimensional feature vectors into hyperspace.
//
// There is one encoder: RBF, the random-Fourier-feature map
// H_d = cos(B_d·x + b_d) with Gaussian base vectors (Rahimi & Recht,
// NeurIPS'07). The paper selects it for cybersecurity datasets because
// flow features interact non-linearly, and every number it reports is
// this encoder, static or regenerated; the model layer holds it as the
// concrete *RBF.
//
// RBF supports per-dimension Regenerate, the mechanism behind CyberHD's
// dynamic dimensionality: dropping an insignificant dimension re-draws
// only that dimension's base parameters, and EncodeDimsBatch recomputes
// only the affected coordinates of already-encoded data.
//
// State is the encoder's serialized form. Its field set is frozen for
// byte stability of model snapshots, and the retired "linear" and
// "idlevel" kinds are refused by FromState.
package encoder

import (
	"fmt"
	"math"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// blockBytes sizes the slice of the encode panel EncodeBatchInto runs
// across a chunk's samples before moving on: a few groups that stay in
// L1 alongside the sample rows. Output values do not depend on it.
const blockBytes = 24 << 10

// EncodeBatch encodes every row of x (n×InDim) into a new n×Dim matrix
// through the blocked batch kernel.
func EncodeBatch(e *RBF, x *hdc.Matrix) *hdc.Matrix {
	out := hdc.NewMatrix(x.Rows, e.Dim())
	EncodeBatchInto(e, x, out)
	return out
}

// EncodeBatchInto encodes every row of x into the matching row of out
// (n×Dim), reusing out's storage — the allocation-free form of
// EncodeBatch for pooled buffers. It is one blocked pass: the encode
// panel is walked a few L1-sized groups at a time, each slice reused
// across all samples of a chunk. Bit-identical to row-at-a-time Encode.
func EncodeBatchInto(e *RBF, x, out *hdc.Matrix) {
	if x.Cols != e.InDim() {
		panic(fmt.Sprintf("encoder: batch has %d features, encoder wants %d", x.Cols, e.InDim()))
	}
	if out.Rows != x.Rows || out.Cols != e.Dim() {
		panic(fmt.Sprintf("encoder: batch output is %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, e.Dim()))
	}
	if hdc.Serial(x.Rows) {
		e.encodeChunk(x, out, 0, x.Rows)
		return
	}
	hdc.ParallelChunks(x.Rows, func(lo, hi int) { e.encodeChunk(x, out, lo, hi) })
}

// EncodeDimsBatch recomputes the listed output dimensions for every row of
// x into the corresponding rows of enc (n×Dim), in parallel. Used after
// Regenerate to refresh a cached encoding without re-encoding everything:
// the listed rows are gathered sixteen at a time into a one-group encode
// panel, each sample runs the encode kernel over it, and the results are
// scattered to their columns — bit-identical to a full re-encode of those
// dimensions.
func EncodeDimsBatch(e *RBF, x, enc *hdc.Matrix, dims []int) {
	if x.Cols != e.InDim() {
		panic(fmt.Sprintf("encoder: batch has %d features, encoder wants %d", x.Cols, e.InDim()))
	}
	if enc.Rows != x.Rows || enc.Cols != e.Dim() {
		panic(fmt.Sprintf("encoder: cached encoding is %dx%d, want %dx%d", enc.Rows, enc.Cols, x.Rows, e.Dim()))
	}
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic(fmt.Sprintf("encoder: dimension %d outside [0, %d)", d, e.Dim()))
		}
	}
	hdc.ParallelChunks(x.Rows, func(lo, hi int) {
		const G = hdc.EncodeGroup
		panel := make([]float32, G*e.inDim)
		var bias, h [G]float32
		for j0 := 0; j0 < len(dims); j0 += G {
			group := dims[j0:min(j0+G, len(dims))]
			for k, d := range group {
				for i := 0; i < e.inDim; i++ {
					panel[hdc.PanelIndex(k, i, e.inDim)] = e.panel[hdc.PanelIndex(d, i, e.inDim)]
				}
				bias[k] = e.bias[d]
			}
			for i := lo; i < hi; i++ {
				hdc.EncodePanel(x.Row(i), panel, bias[:], h[:len(group)])
				row := enc.Row(i)
				for k, d := range group {
					row[d] = h[k]
				}
			}
		}
	})
}

// RBF is the random-Fourier-feature encoder: H_d = cos(base_d · x + bias_d),
// base_d ~ N(0, gamma²·I), bias_d ~ U[0, 2π). With unit-variance inputs this
// approximates an RBF kernel feature map, giving HDC the non-linearity the
// paper needs for attack patterns.
//
// The base matrix is stored once, as an hdc.EncodePanel panel: rows in
// groups of hdc.EncodeGroup, interleaved element by element, the last
// group padded with zero rows (and zero phases). State carries it
// row-major; CaptureState and FromState convert.
type RBF struct {
	panel      []float32 // Dim × InDim base, at hdc.PanelIndex positions
	bias       []float32 // one phase per panel row
	inDim, dim int
	gamma      float64
	r          *rng.Rand
}

// newRBF allocates an all-zero encoder of the given shape.
func newRBF(inDim, dim int, gamma float64, r *rng.Rand) *RBF {
	rows := (dim + hdc.EncodeGroup - 1) / hdc.EncodeGroup * hdc.EncodeGroup
	return &RBF{
		panel: make([]float32, rows*inDim), bias: make([]float32, rows),
		inDim: inDim, dim: dim, gamma: gamma, r: r,
	}
}

// NewRBF builds an RBF encoder with dim output dimensions for inDim input
// features. gamma scales the Gaussian base vectors (kernel bandwidth);
// gamma <= 0 selects the 1/sqrt(inDim) default.
func NewRBF(inDim, dim int, gamma float64, seed uint64) *RBF {
	if inDim <= 0 || dim <= 0 {
		panic("encoder: NewRBF with non-positive dims")
	}
	if gamma <= 0 {
		gamma = 1 / math.Sqrt(float64(inDim))
	}
	e := newRBF(inDim, dim, gamma, rng.New(seed))
	for d := 0; d < dim; d++ {
		e.drawRow(d)
	}
	e.r.FillUniform(e.bias[:dim], 0, 2*math.Pi)
	return e
}

// drawRow draws base row d from N(0, gamma²·I), element by element in the
// order a row-major fill would take.
func (e *RBF) drawRow(d int) {
	for i := 0; i < e.inDim; i++ {
		k := hdc.PanelIndex(d, i, e.inDim)
		e.r.FillNorm(e.panel[k:k+1], 0, e.gamma)
	}
}

// Dim returns the hyperspace dimensionality.
func (e *RBF) Dim() int { return e.dim }

// InDim returns the expected feature count.
func (e *RBF) InDim() int { return e.inDim }

// Encode writes cos(B·x + b) into dst through the encode kernel
// (hdc.EncodePanel). Bit-identical to EncodeBatchInto and
// EncodeDimsBatch.
func (e *RBF) Encode(x, dst []float32) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: RBF.Encode length mismatch")
	}
	hdc.EncodePanel(x, e.panel, e.bias, dst)
}

// encodeChunk encodes sample rows [lo, hi), reusing each L1-sized slice
// of the panel across the whole chunk.
func (e *RBF) encodeChunk(x, out *hdc.Matrix, lo, hi int) {
	const G = hdc.EncodeGroup
	step := max(1, blockBytes/(4*G*e.inDim)) * G
	for r0 := 0; r0 < e.dim; r0 += step {
		r1 := min(r0+step, e.dim)
		panel, bias := e.panel[r0*e.inDim:], e.bias[r0:]
		for i := lo; i < hi; i++ {
			hdc.EncodePanel(x.Row(i), panel, bias, out.Row(i)[r0:r1])
		}
	}
}

// Regenerate redraws the Gaussian base vector and phase of each listed
// dimension (paper step H: replacement draws come from the same Gaussian
// distribution as initialization).
func (e *RBF) Regenerate(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic("encoder: Regenerate dimension out of range")
		}
		e.drawRow(d)
		e.bias[d] = float32(2 * math.Pi * e.r.Float64())
	}
}
