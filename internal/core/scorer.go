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
// signal through Refresh and the learning rule, row by row, through
// refreshRow.
//
// Argmax note: cosine is dot/(‖row‖·‖query‖), and the query norm is a
// positive constant across classes, so scoring skips it entirely —
// argmax_r dot_r/‖row_r‖ picks the same class, without a D-element norm
// pass per query. Zero rows score 0, and an all-zero query scores 0
// against everything, the conventions of the float64 reference argmax
// the package tests hold it to.
//
// The learning rule's side — similarities and Train's block loop — scores
// against the panel: a float64 copy of the class memory, built on first
// use and kept current by Refresh and refreshRow. A predict-only scorer
// (a model decoded from a snapshot) never builds one.
type Scorer struct {
	class *hdc.Matrix
	norms []float64
	panel *hdc.Panel64

	// batchPool recycles batch score matrices.
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

// refreshRow recomputes the cached norm and panel row of one row. Call
// after mutating that row (the adaptive update touches two rows per step).
func (s *Scorer) refreshRow(r int) {
	row := s.class.Row(r)
	s.norms[r] = hdc.Norm(row)
	if s.panel != nil {
		s.panel.SetRow(r, row)
	}
}

// similarities writes the cosine of h against every class row into out:
// float64 dots, bit-identical to hdc.Dot, over the cached row norm times
// hNorm, which is hdc.Norm(h). A zero norm on either side scores 0.
func (s *Scorer) similarities(h []float32, hNorm float64, out []float64) {
	s.panel64().Dots(h, out)
	s.cosines(out, hNorm)
}

// panel64 returns the learning rule's panel, building it on first use.
func (s *Scorer) panel64() *hdc.Panel64 {
	if s.panel == nil {
		s.panel = new(hdc.Panel64)
		s.panel.Set(s.class)
	}
	return s.panel
}

// cosines turns the panel dots in out of a query of norm hNorm into its
// cosines against the classes.
func (s *Scorer) cosines(out []float64, hNorm float64) {
	for r, nr := range s.norms {
		if nr == 0 || hNorm == 0 {
			out[r] = 0
		} else {
			out[r] /= nr * hNorm
		}
	}
}

// stackClasses is the class-count ceiling for stack-allocated score
// buffers; beyond it PredictEncoded allocates one per call.
const stackClasses = 64

// PredictEncoded returns the class whose hypervector has the highest
// cosine similarity to the encoded query h, allocation-free for up to
// stackClasses classes.
func (s *Scorer) PredictEncoded(h []float32) int {
	if len(h) != s.class.Cols {
		panic("core: PredictEncoded query length mismatch")
	}
	var stack [stackClasses]float32
	var scores []float32
	if k := s.class.Rows; k <= stackClasses {
		scores = stack[:k]
	} else {
		scores = make([]float32, k)
	}
	hdc.DotPanel(h, s.class.Data, s.class.Cols, scores)
	return s.argmaxNormed(scores)
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
