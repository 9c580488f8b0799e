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

// encPanel is the number of encoder base rows processed per kernel panel:
// 64 rows of float32 features keep a panel within L1 alongside the input
// row and pre-activation buffer. Output values are independent of the
// panel size; it only affects cache behavior.
const encPanel = 64

// EncodeBatch encodes every row of x (n×InDim) into a new n×Dim matrix
// through the blocked batch kernel.
func EncodeBatch(e *RBF, x *hdc.Matrix) *hdc.Matrix {
	out := hdc.NewMatrix(x.Rows, e.Dim())
	EncodeBatchInto(e, x, out)
	return out
}

// EncodeBatchInto encodes every row of x into the matching row of out
// (n×Dim), reusing out's storage — the allocation-free form of
// EncodeBatch for pooled buffers. It is one blocked pass: the base matrix
// is walked in L1-sized panels reused across all samples of a chunk, so
// the batch costs one cache-resident GEMM plus the cosine epilogue
// instead of n independent matvecs. Bit-identical to row-at-a-time
// Encode.
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
// the listed base rows and phases are gathered into one contiguous panel,
// each sample runs the same DotPanel + CosInto as Encode over it, and the
// results are scattered to their columns — bit-identical to a full
// re-encode of those dimensions.
func EncodeDimsBatch(e *RBF, x, enc *hdc.Matrix, dims []int) {
	if x.Cols != e.InDim() {
		panic(fmt.Sprintf("encoder: batch has %d features, encoder wants %d", x.Cols, e.InDim()))
	}
	if enc.Rows != x.Rows || enc.Cols != e.Dim() {
		panic(fmt.Sprintf("encoder: cached encoding is %dx%d, want %dx%d", enc.Rows, enc.Cols, x.Rows, e.Dim()))
	}
	f := e.base.Cols
	panel := make([]float32, len(dims)*f)
	bias := make([]float32, len(dims))
	for j, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic(fmt.Sprintf("encoder: dimension %d outside [0, %d)", d, e.Dim()))
		}
		copy(panel[j*f:], e.base.Row(d))
		bias[j] = e.bias[d]
	}
	hdc.ParallelChunks(x.Rows, func(lo, hi int) {
		h := make([]float32, len(dims))
		for i := lo; i < hi; i++ {
			hdc.DotPanel(x.Row(i), panel, f, h)
			hdc.CosInto(h, h, bias)
			row := enc.Row(i)
			for j, d := range dims {
				row[d] = h[j]
			}
		}
	})
}

// RBF is the random-Fourier-feature encoder: H_d = cos(base_d · x + bias_d),
// base_d ~ N(0, gamma²·I), bias_d ~ U[0, 2π). With unit-variance inputs this
// approximates an RBF kernel feature map, giving HDC the non-linearity the
// paper needs for attack patterns.
type RBF struct {
	base  *hdc.Matrix // Dim × InDim
	bias  []float32
	gamma float64
	r     *rng.Rand
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
	e := &RBF{
		base:  hdc.NewMatrix(dim, inDim),
		bias:  make([]float32, dim),
		gamma: gamma,
		r:     rng.New(seed),
	}
	e.r.FillNorm(e.base.Data, 0, gamma)
	e.r.FillUniform(e.bias, 0, 2*math.Pi)
	return e
}

// Dim returns the hyperspace dimensionality.
func (e *RBF) Dim() int { return e.base.Rows }

// InDim returns the expected feature count.
func (e *RBF) InDim() int { return e.base.Cols }

// Encode writes cos(B·x + b) into dst through the panel kernel: blocked
// lane-wise dot products (hdc.DotPanel) with the fused table-cosine
// epilogue (hdc.CosInto). Bit-identical to EncodeBatchInto and
// EncodeDimsBatch.
func (e *RBF) Encode(x, dst []float32) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: RBF.Encode length mismatch")
	}
	f := e.base.Cols
	var pre [encPanel]float32
	for j0 := 0; j0 < e.base.Rows; j0 += encPanel {
		j1 := j0 + encPanel
		if j1 > e.base.Rows {
			j1 = e.base.Rows
		}
		hdc.DotPanel(x, e.base.Data[j0*f:], f, pre[:j1-j0])
		hdc.CosInto(dst[j0:j1], pre[:j1-j0], e.bias[j0:j1])
	}
}

// encodeChunk encodes sample rows [lo, hi), reusing each base panel
// across the whole chunk.
func (e *RBF) encodeChunk(x, out *hdc.Matrix, lo, hi int) {
	f := e.base.Cols
	var pre [encPanel]float32
	for j0 := 0; j0 < e.base.Rows; j0 += encPanel {
		j1 := j0 + encPanel
		if j1 > e.base.Rows {
			j1 = e.base.Rows
		}
		panel := e.base.Data[j0*f:]
		for i := lo; i < hi; i++ {
			hdc.DotPanel(x.Row(i), panel, f, pre[:j1-j0])
			hdc.CosInto(out.Row(i)[j0:j1], pre[:j1-j0], e.bias[j0:j1])
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
		e.r.FillNorm(e.base.Row(d), 0, e.gamma)
		e.bias[d] = float32(2 * math.Pi * e.r.Float64())
	}
}
