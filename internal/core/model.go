// Package core implements the paper's primary contribution: the CyberHD
// learning framework — adaptive hyperdimensional classification with
// variance-based identification and regeneration of insignificant
// dimensions — together with the static-encoder BaselineHD it is compared
// against.
//
// The training loop follows Fig. 2 of the paper:
//
//	A  encode training data into hyperspace
//	B  adaptive learning: similarity-weighted updates on mispredictions
//	D  normalize the class hypervector matrix
//	F  per-dimension variance across classes
//	G  drop the R% lowest-variance dimensions
//	H  regenerate those encoder base vectors, refresh encodings, retrain
//
// Effective dimensionality D* = physical D + Σ regenerated dimensions; the
// headline claim is that CyberHD at physical D matches BaselineHD at D*.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/metrics"
	"cyberhd/internal/rng"
)

// Options configures training.
type Options struct {
	// Classes is the number of labels. Required.
	Classes int
	// LearningRate is η in the adaptive update. Defaults to 0.035.
	LearningRate float64
	// Epochs is the number of adaptive passes per regeneration cycle
	// (and the total passes for BaselineHD). Defaults to 5.
	Epochs int
	// RegenCycles is the number of drop/regenerate rounds. 0 disables
	// regeneration, which is exactly BaselineHD.
	RegenCycles int
	// RegenRate is R, the fraction of dimensions dropped per cycle.
	// Defaults to 0.2 when RegenCycles > 0.
	RegenRate float64
	// Seed drives sample shuffling. Encoder randomness is owned by the
	// encoder itself.
	Seed uint64
	// DropSelector overrides the choice of dimensions to drop each cycle
	// (an ablation hook: e.g. random drop instead of lowest-variance).
	// Given the model and the requested count it returns dimension
	// indices. Nil selects the paper's lowest-variance rule.
	DropSelector func(m *Model, drop int) []int
}

func (o *Options) defaults() {
	if o.LearningRate <= 0 && !math.IsInf(o.LearningRate, -1) { // validate refuses -Inf
		o.LearningRate = 0.035
	}
	if o.Epochs <= 0 {
		o.Epochs = 5
	}
	if o.RegenCycles > 0 && o.RegenRate <= 0 {
		o.RegenRate = 0.2
	}
}

func (o Options) validate() error {
	if o.Classes < 2 {
		return fmt.Errorf("core: need at least 2 classes, got %d", o.Classes)
	}
	if !(o.RegenRate >= 0 && o.RegenRate < 1) { // NaN too
		return fmt.Errorf("core: regen rate %v outside [0, 1)", o.RegenRate)
	}
	if math.IsNaN(o.LearningRate) || math.IsInf(o.LearningRate, 0) {
		return fmt.Errorf("core: learning rate %v is not finite", o.LearningRate)
	}
	return nil
}

// CycleStats records one regeneration cycle for effective-dimensionality
// accounting and ablation reporting.
type CycleStats struct {
	Cycle        int     // 0 is the initial training round (no drop)
	Dropped      int     // dimensions regenerated entering this cycle
	EffectiveDim int     // cumulative D* after this cycle
	TrainAcc     float64 // training accuracy at end of cycle
}

// Model is a trained HDC classifier: an encoder plus one hypervector per
// class.
type Model struct {
	Enc *encoder.RBF
	// Class is the k×D class hypervector matrix. Prediction divides by
	// cached row norms (see Scorer), so callers that mutate Class
	// directly — rather than through Train — must call Scorer().Refresh()
	// afterwards or predictions will use stale norms. A model handed to a
	// COWModel is published as is and must not be mutated at all.
	Class *hdc.Matrix
	// EffectiveDim is D* = D + Σ dimensions regenerated during training.
	EffectiveDim int
	// History holds per-cycle statistics in training order.
	History []CycleStats

	opts Options
	// scorer caches class-row norms and runs all predictions through the
	// kernel layer (scorerOnce guards its lazy construction so first-use
	// races between concurrent Predict calls are safe); predictScratch
	// recycles per-call encode buffers so steady-state Predict never
	// allocates; encScratch recycles batch-encoding matrices.
	scorer     *Scorer
	scorerOnce sync.Once

	predictScratch sync.Pool
	encScratch     sync.Pool
}

// Scorer returns the model's norm-caching scorer, building it on first
// use (models assembled field-by-field have none yet). Safe for
// concurrent first use from Predict.
func (m *Model) Scorer() *Scorer {
	m.scorerOnce.Do(func() {
		if m.scorer == nil {
			m.scorer = newScorer(m.Class)
		}
	})
	return m.scorer
}

// Train fits a CyberHD (or, with RegenCycles == 0, BaselineHD) model.
// x is the n×f feature matrix, y the n labels in [0, opts.Classes).
// The encoder enc is mutated by regeneration and owned by the returned
// model afterwards.
func Train(enc *encoder.RBF, x *hdc.Matrix, y []int, opts Options) (*Model, error) {
	opts.defaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("core: %d samples but %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	for i, l := range y {
		if l < 0 || l >= opts.Classes {
			return nil, fmt.Errorf("core: label %d at sample %d outside [0, %d)", l, i, opts.Classes)
		}
	}
	m := &Model{
		Enc:          enc,
		Class:        hdc.NewMatrix(opts.Classes, enc.Dim()),
		EffectiveDim: enc.Dim(),
		opts:         opts,
	}
	r := rng.New(opts.Seed)
	// A: encode once, refresh per cycle. Everything a round needs besides
	// is allocated here, once per fit.
	f := &fit{
		enc:   encoder.EncodeBatch(enc, x),
		norms: make([]float64, x.Rows),
		order: make([]int, x.Rows),
		preds: make([]int, x.Rows),
		sims:  make([]float64, 4*opts.Classes),
	}

	// Bootstrap pass (one-shot bundling) gives adaptive learning a
	// non-degenerate similarity landscape to start from; cycle 0 is the
	// initial round, and every later cycle regenerates first.
	for i := 0; i < x.Rows; i++ {
		hdc.Axpy(1, f.enc.Row(i), m.Class.Row(y[i]))
	}
	drop := int(opts.RegenRate * float64(enc.Dim()))
	for cycle := 0; cycle <= opts.RegenCycles && (cycle == 0 || drop > 0); cycle++ {
		var dims []int
		if cycle > 0 {
			if opts.DropSelector != nil {
				dims = opts.DropSelector(m, drop)
			} else {
				dims = m.insignificantDims(drop) // D,E,F,G
			}
			m.Class.ZeroColumns(dims)
			enc.Regenerate(dims) // H
			encoder.EncodeDimsBatch(enc, x, f.enc, dims)
			m.EffectiveDim += len(dims)
		}
		m.Scorer().Refresh()
		m.adaptiveEpochs(f, y, r)
		m.History = append(m.History, CycleStats{
			Cycle: cycle, Dropped: len(dims), EffectiveDim: m.EffectiveDim,
			TrainAcc: m.evaluateEncoded(f, y),
		})
	}
	return m, nil
}

// fit is the per-round state of one Train call: the cached encoding of
// the training set, the norm of each of its rows (stale whenever the
// encoding is refreshed; adaptiveEpochs recomputes it on entry, so a row's
// norm is taken once per round rather than once per visit), the visiting
// order, the end-of-round predictions and the similarities of a block of
// four visits.
type fit struct {
	enc   *hdc.Matrix
	norms []float64
	order []int
	preds []int
	sims  []float64
}

// adaptiveEpochs runs opts.Epochs passes of similarity-weighted updates
// over the encoded training set in shuffled order. The norm pass on entry
// is chunk-parallel; the update loop is sequential and allocation-free.
// Each run of four visits is scored in one pass over the class panel, and
// a visit after an update in its run is scored again: a row's dot depends
// only on that row and the query, so every visit sees the similarities
// the one-visit loop would, bit for bit. The last len mod 4 visits are
// scored one at a time.
func (m *Model) adaptiveEpochs(f *fit, y []int, r *rng.Rand) {
	c, k := f.enc.Cols, m.Class.Rows
	hdc.ParallelChunks(f.enc.Rows, func(lo, hi int) { hdc.Norms(f.enc.Data[lo*c:hi*c], c, f.norms[lo:hi]) })
	for i := range f.order {
		f.order[i] = i
	}
	var h [4][]float32
	for e := 0; e < m.opts.Epochs; e++ {
		r.ShuffleInts(f.order)
		order := f.order
		for ; len(order) >= 4; order = order[4:] {
			for q, i := range order[:4] {
				h[q] = f.enc.Row(i)
			}
			m.scorer.panel64().Dots4(&h, f.sims)
			moved := false
			for q, i := range order[:4] {
				sims := f.sims[q*k : (q+1)*k]
				if moved {
					m.scorer.panel64().Dots(h[q], sims)
				}
				m.scorer.cosines(sims, f.norms[i])
				moved = m.learn(h[q], y[i], sims) || moved
			}
		}
		for _, i := range order {
			m.updateNormed(f.enc.Row(i), f.norms[i], y[i], f.sims[:k])
		}
	}
}

// updateNormed applies the paper's adaptive rule to an encoded sample of
// norm hNorm, scoring it into sims first.
func (m *Model) updateNormed(h []float32, hNorm float64, label int, sims []float64) bool {
	m.scorer.similarities(h, hNorm, sims)
	return m.learn(h, label, sims)
}

// learn is the paper's adaptive rule for an encoded sample h whose cosine
// similarities to the classes are sims: on misprediction, C_l +=
// η(1−δ_l)·H and C_l' −= η(1−δ_l')·H, where a high similarity δ means the
// pattern is already represented and the update is scaled down. It
// reports whether the class memory moved.
func (m *Model) learn(h []float32, label int, sims []float64) bool {
	pred := argmax(sims)
	if pred == label {
		return false
	}
	eta := m.opts.LearningRate
	hdc.Axpy(float32(eta*(1-sims[label])), h, m.Class.Row(label))
	hdc.Axpy(float32(-eta*(1-sims[pred])), h, m.Class.Row(pred))
	m.scorer.refreshRow(label)
	m.scorer.refreshRow(pred)
	return true
}

// insignificantDims returns the indices of the `drop` lowest-variance
// dimensions of the row-normalized class matrix (paper steps D–G). The
// model itself is not normalized; variance is computed on a copy.
func (m *Model) insignificantDims(drop int) []int {
	normed := m.Class.Clone()
	normed.NormalizeRows()
	variance := make([]float64, normed.Cols)
	normed.ColumnVariance(variance)
	idx := make([]int, len(variance))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if variance[idx[a]] != variance[idx[b]] {
			return variance[idx[a]] < variance[idx[b]]
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	if drop > len(idx) {
		drop = len(idx)
	}
	out := append([]int(nil), idx[:drop]...)
	sort.Ints(out)
	return out
}

// ImmatureDims returns the dimensions the last regeneration cycle redrew,
// as the drop rule ranks them on the trained class matrix: the
// History[len(History)-1].Dropped lowest-variance columns. Those columns
// restarted at zero and end training small and noisy. It is nil for a
// model with no regeneration (BaselineHD) or no History.
func (m *Model) ImmatureDims() []int {
	if len(m.History) == 0 || m.History[len(m.History)-1].Dropped == 0 {
		return nil
	}
	return m.insignificantDims(m.History[len(m.History)-1].Dropped)
}

func argmax(v []float64) int {
	best, bv := 0, math.Inf(-1)
	for i, x := range v {
		if x > bv {
			best, bv = i, x
		}
	}
	return best
}

// Dim returns the physical hyperspace dimensionality.
func (m *Model) Dim() int { return m.Class.Cols }

// NumClasses returns the number of classes.
func (m *Model) NumClasses() int { return m.Class.Rows }

// Predict encodes x and returns the most similar class (paper steps I, J).
// Scratch comes from the model's pool, so steady-state calls are
// allocation-free.
func (m *Model) Predict(x []float32) int {
	h, _ := m.predictScratch.Get().(*[]float32)
	if h == nil {
		h = new([]float32)
		*h = make([]float32, m.Enc.Dim())
	}
	m.Enc.Encode(x, *h)
	pred := m.Scorer().PredictEncoded(*h)
	m.predictScratch.Put(h)
	return pred
}

// PredictBatch classifies every row of x: one blocked batch encode plus
// one class-matrix GEMM, bit-identical to per-row Predict.
func (m *Model) PredictBatch(x *hdc.Matrix) []int {
	out := make([]int, x.Rows)
	m.PredictBatchInto(x, out)
	return out
}

// PredictBatchInto is PredictBatch writing into caller storage (len
// x.Rows), allocation-free in steady state for the pipeline's micro-batch
// loop.
func (m *Model) PredictBatchInto(x *hdc.Matrix, out []int) {
	enc, _ := m.encScratch.Get().(*hdc.Matrix)
	if enc == nil {
		enc = new(hdc.Matrix)
	}
	enc.Resize(x.Rows, m.Enc.Dim())
	encoder.EncodeBatchInto(m.Enc, x, enc)
	m.Scorer().PredictBatchEncoded(enc, out)
	m.encScratch.Put(enc)
}

// Evaluate returns accuracy of the model on the feature matrix x with
// labels y.
func (m *Model) Evaluate(x *hdc.Matrix, y []int) float64 {
	return metrics.Accuracy(m.PredictBatch(x), y)
}

// evaluateEncoded returns accuracy over the fit's cached encoding.
func (m *Model) evaluateEncoded(f *fit, y []int) float64 {
	m.Scorer().PredictBatchEncoded(f.enc, f.preds)
	return metrics.Accuracy(f.preds, y)
}
