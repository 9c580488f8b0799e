package core

import (
	"math"
	"sync"

	"cyberhd/internal/hdc"
)

// Scorer is the inference-side view of a class hypervector matrix: it
// caches the row norms that cosine scoring divides by and drives all
// predictions through the kernel layer (hdc.DotPanel for single queries,
// hdc.MatMulT for batches). The naive path recomputed every class norm on
// every prediction; the Scorer recomputes a norm only when its row
// changes (adaptive updates, dropped columns, reloads), which callers
// signal through Refresh and RefreshRow.
//
// Argmax note: cosine is dot/(‖row‖·‖query‖), and the query norm is a
// positive constant across classes, so scoring skips it entirely —
// argmax_r dot_r/‖row_r‖ picks the same class, without a D-element norm
// pass per query. Zero rows score 0, and an all-zero query scores 0
// against everything, the conventions of the float64 reference argmax
// the package tests hold it to.
//
// Similarities, the learning rule's side, scores against the panel: a
// float64 copy of the class memory that its first call builds and Refresh
// and RefreshRow then keep current. A predict-only scorer (a model decoded
// from a snapshot) never builds one.
type Scorer struct {
	class *hdc.Matrix
	norms []float64
	panel *hdc.Panel64

	// scorePool recycles per-query score buffers for class counts too
	// large for the stack; batchPool recycles batch score matrices.
	scorePool sync.Pool
	batchPool sync.Pool
}

// newScorer builds a scorer over class (shared, not copied) and computes
// the initial row norms.
func newScorer(class *hdc.Matrix) *Scorer {
	s := &Scorer{class: class, norms: make([]float64, class.Rows)}
	s.Refresh()
	return s
}

// Refresh recomputes every cached row norm and the built panel. Call after
// bulk mutation of the class matrix (training cycles, ZeroColumns,
// deserialization).
func (s *Scorer) Refresh() {
	hdc.Norms(s.class.Data, s.class.Cols, s.norms)
	if s.panel != nil {
		s.panel.Set(s.class)
	}
}

// RefreshRow recomputes the cached norm and panel row of one row. Call
// after mutating that row (the adaptive update touches two rows per step).
func (s *Scorer) RefreshRow(r int) {
	row := s.class.Row(r)
	s.norms[r] = hdc.Norm(row)
	if s.panel != nil {
		s.panel.SetRow(r, row)
	}
}

// Similarities writes the cosine of h against every class row into out:
// float64 dots, bit-identical to hdc.Dot, over the cached row norm times
// hNorm, which is hdc.Norm(h). A zero norm on either side scores 0.
func (s *Scorer) Similarities(h []float32, hNorm float64, out []float64) {
	if s.panel == nil {
		s.panel = new(hdc.Panel64)
		s.panel.Set(s.class)
	}
	s.panel.Dots(h, out)
	for r, nr := range s.norms {
		if nr == 0 || hNorm == 0 {
			out[r] = 0
		} else {
			out[r] /= nr * hNorm
		}
	}
}

// stackClasses is the class-count ceiling for stack-allocated score
// buffers; beyond it PredictEncoded falls back to the pool.
const stackClasses = 64

// PredictEncoded returns the class whose hypervector has the highest
// cosine similarity to the encoded query h, allocation-free in steady
// state.
func (s *Scorer) PredictEncoded(h []float32) int {
	if len(h) != s.class.Cols {
		panic("core: PredictEncoded query length mismatch")
	}
	k := s.class.Rows
	var stack [stackClasses]float32
	var scores []float32
	var pooled *[]float32
	if k <= stackClasses {
		scores = stack[:k]
	} else {
		pooled, _ = s.scorePool.Get().(*[]float32)
		if pooled == nil || cap(*pooled) < k {
			pooled = new([]float32)
			*pooled = make([]float32, k)
		}
		scores = (*pooled)[:k]
	}
	hdc.DotPanel(h, s.class.Data, s.class.Cols, scores)
	best := s.argmaxNormed(scores)
	if pooled != nil {
		s.scorePool.Put(pooled)
	}
	return best
}

// PredictBatchEncoded classifies every row of enc into out (len enc.Rows)
// through one class-matrix×query MatMulT.
func (s *Scorer) PredictBatchEncoded(enc *hdc.Matrix, out []int) {
	if len(out) != enc.Rows {
		panic("core: PredictBatchEncoded output length mismatch")
	}
	scores, _ := s.batchPool.Get().(*hdc.Matrix)
	if scores == nil {
		scores = new(hdc.Matrix)
	}
	scores.Resize(enc.Rows, s.class.Rows)
	hdc.MatMulT(enc, s.class, scores)
	if hdc.Serial(enc.Rows) {
		s.argmaxRows(scores, out, 0, enc.Rows)
	} else {
		hdc.ParallelChunks(enc.Rows, func(lo, hi int) { s.argmaxRows(scores, out, lo, hi) })
	}
	s.batchPool.Put(scores)
}

func (s *Scorer) argmaxRows(scores *hdc.Matrix, out []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = s.argmaxNormed(scores.Row(i))
	}
}

// argmaxNormed returns the index maximizing scores[r]/norms[r], with zero
// rows scoring 0 and ties resolved to the lowest index.
func (s *Scorer) argmaxNormed(scores []float32) int {
	best, bv := -1, math.Inf(-1)
	for r, sc := range scores {
		var v float64
		if n := s.norms[r]; n > 0 {
			v = float64(sc) / n
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
