package core

import (
	"math"

	"cyberhd/internal/hdc"
)

// Scorer is the inference-side view of a class hypervector matrix: it
// caches the row norms that cosine scoring divides by and a float64 copy
// of the class memory, hdc.Panel64, that every dot against the classes
// runs through — the learning rule's similarities, Train's block loop and
// both predict paths — so a verdict's dots are hdc.Dot's, bit for bit.
// Both are built with the scorer and recomputed only when a row changes
// (adaptive updates, dropped columns, reloads), which callers signal
// through Refresh and the learning rule, row by row, through refreshRow.
//
// Argmax note: cosine is dot/(‖row‖·‖query‖), and the query norm is a
// positive constant across classes, so prediction skips it entirely —
// argmax_r dot_r/‖row_r‖ picks the same class, without a D-element norm
// pass per query. Zero rows score 0, and an all-zero query scores 0
// against everything, the conventions of the float64 reference argmax
// the package tests hold it to.
type Scorer struct {
	class *hdc.Matrix
	norms []float64
	panel hdc.Panel64
}

// newScorer builds a scorer over class (shared, not copied): the initial
// row norms and the panel.
func newScorer(class *hdc.Matrix) *Scorer {
	s := &Scorer{class: class, norms: make([]float64, class.Rows)}
	s.Refresh()
	return s
}

// Refresh recomputes every cached row norm and the panel. Call after bulk
// mutation of the class matrix (training cycles, ZeroColumns,
// deserialization).
func (s *Scorer) Refresh() {
	hdc.Norms(s.class.Data, s.class.Cols, s.norms)
	s.panel.Set(s.class)
}

// refreshRow recomputes the cached norm and panel row of one row. Call
// after mutating that row (the adaptive update touches two rows per step).
func (s *Scorer) refreshRow(r int) {
	row := s.class.Row(r)
	s.norms[r] = hdc.Norm(row)
	s.panel.SetRow(r, row)
}

// similarities writes the cosine of h against every class row into out:
// float64 dots, bit-identical to hdc.Dot, over the cached row norm times
// hNorm, which is hdc.Norm(h). A zero norm on either side scores 0.
func (s *Scorer) similarities(h []float32, hNorm float64, out []float64) {
	s.panel.Dots(h, out)
	s.cosines(out, hNorm)
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
// buffers; beyond it each predict call allocates one.
const stackClasses = 64

// PredictEncoded returns the class whose hypervector has the highest
// cosine similarity to the encoded query h, allocation-free for up to
// stackClasses classes.
func (s *Scorer) PredictEncoded(h []float32) int {
	if len(h) != s.class.Cols {
		panic("core: PredictEncoded query length mismatch")
	}
	var stack [stackClasses]float64
	var scores []float64
	if k := s.class.Rows; k <= stackClasses {
		scores = stack[:k]
	} else {
		scores = make([]float64, k)
	}
	q := [1][]float32{h}
	s.score(q[:], scores)
	return s.argmaxNormed(scores)
}

// PredictBatchEncoded classifies every row of enc into out (len enc.Rows),
// rows fanned out over the cores, each chunk scored four rows per pass
// over the panel: the same dots, bit for bit, as PredictEncoded per row.
func (s *Scorer) PredictBatchEncoded(enc *hdc.Matrix, out []int) {
	if len(out) != enc.Rows {
		panic("core: PredictBatchEncoded output length mismatch")
	}
	if enc.Cols != s.class.Cols {
		panic("core: PredictBatchEncoded query length mismatch")
	}
	if hdc.Serial(enc.Rows) {
		s.predictRows(enc, out, 0, enc.Rows)
		return
	}
	hdc.ParallelChunks(enc.Rows, func(lo, hi int) { s.predictRows(enc, out, lo, hi) })
}

// predictRows classifies rows [lo, hi) of enc into out, four at a time
// while four remain.
func (s *Scorer) predictRows(enc *hdc.Matrix, out []int, lo, hi int) {
	k := s.class.Rows
	var stack [4 * stackClasses]float64
	var scores []float64
	if k <= stackClasses {
		scores = stack[:4*k]
	} else {
		scores = make([]float64, 4*k)
	}
	var q [4][]float32
	for i := lo; i < hi; i += len(q) {
		n := min(hi-i, len(q))
		for j := range n {
			q[j] = enc.Row(i + j)
		}
		s.score(q[:n], scores)
		for j := range n {
			out[i+j] = s.argmaxNormed(scores[j*k : (j+1)*k])
		}
	}
}

// score writes the panel dots of query j into out[j*k : (j+1)*k] for the
// panel's k rows: one Dots4 pass for a block of four queries, one Dots
// call per query otherwise. Both are hdc.Dot, bit for bit.
func (s *Scorer) score(q [][]float32, out []float64) {
	if len(q) == 4 {
		s.panel.Dots4((*[4][]float32)(q), out)
		return
	}
	k := s.class.Rows
	for j, h := range q {
		s.panel.Dots(h, out[j*k:(j+1)*k])
	}
}

// argmaxNormed returns the index maximizing scores[r]/norms[r], with zero
// rows scoring 0 and ties resolved to the lowest index.
func (s *Scorer) argmaxNormed(scores []float64) int {
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
