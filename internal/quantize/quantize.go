// Package quantize lowers trained HDC models to reduced-precision class
// memories for the paper's cross-platform evaluation (Table I) and
// robustness study (Fig 5), and serves them live: Model drives the packed
// kernel layer of internal/bitpack (blocked panel dots, cached row norms,
// pooled query packing) so the streaming engine classifies flows in the
// integer domain with zero steady-state allocations, and Live pairs a
// core.COWModel with per-version quantization so hot reloads and packed
// inference coexist.
//
// Quantization is post-training: the float32 class hypervectors are packed
// to b-bit integers (see internal/bitpack); queries are encoded in float
// and packed with the same scheme before similarity search, so inference
// runs entirely in the integer domain.
package quantize

import (
	"fmt"
	"sync"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// Model is a quantized HDC classifier. All prediction paths run through
// the packed kernel layer: queries are packed into pooled scratch and
// scored against the class memory by a cached-norm bitpack.Scorer, so
// steady-state Predict and PredictBatchInto perform no allocations.
type Model struct {
	// Width is the element bitwidth of the class memory and queries.
	Width bitpack.Width
	// Class is the packed class hypervector memory. Prediction divides by
	// norms cached at first use (see Scorer), so callers that mutate the
	// packed rows directly — fault injection on a model that has already
	// predicted — must call Scorer().Refresh() afterwards.
	Class *bitpack.Matrix
	// Enc is the (float) encoder shared with the source model.
	Enc *encoder.RBF

	// hPool recycles encode buffers, encPool batch-encoding matrices, and
	// qPool packed-query vectors, so repeated Predict/PredictBatchInto
	// calls stop allocating per call.
	hPool   sync.Pool
	encPool sync.Pool
	qPool   sync.Pool

	// scorer caches class-row norms and scores through the blocked packed
	// panels; scorerOnce guards its lazy construction so first-use races
	// between concurrent Predict calls are safe.
	scorer     *bitpack.Scorer
	scorerOnce sync.Once
}

// FromCore packs the class memory of m at width w.
func FromCore(m *core.Model, w bitpack.Width) (*Model, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("quantize: invalid width %d", w)
	}
	return &Model{
		Width: w,
		Class: bitpack.QuantizeMatrix(m.Class.Data, m.Class.Rows, m.Class.Cols, w),
		Enc:   m.Enc,
	}, nil
}

// DeriveWidth reports the bitwidth this derived artifact was packed at.
// core.SaveSnapshot duck-types this method on Snapshot.Derived() to
// record the serving width in v2 snapshots without core importing this
// package (quantize already imports core).
func (m *Model) DeriveWidth() int { return int(m.Width) }

// Scorer returns the model's norm-caching packed scorer, building it on
// first use (models assembled field-by-field have none yet). Safe for
// concurrent first use from Predict.
func (m *Model) Scorer() *bitpack.Scorer {
	m.scorerOnce.Do(func() {
		if m.scorer == nil {
			m.scorer = bitpack.NewScorer(m.Class)
		}
	})
	return m.scorer
}

// Predict encodes x, packs it at the model width, and returns the class
// with the highest integer-domain similarity. Encode and packed-query
// buffers are pooled, so steady-state calls are allocation-free.
func (m *Model) Predict(x []float32) int {
	h, _ := m.hPool.Get().(*[]float32)
	if h == nil || len(*h) != m.Enc.Dim() {
		h = new([]float32)
		*h = make([]float32, m.Enc.Dim())
	}
	m.Enc.Encode(x, *h)
	pred := m.PredictEncoded(*h)
	m.hPool.Put(h)
	return pred
}

// PredictBatch classifies every row of x, batch-encoding through the
// blocked kernel path before packing each query.
func (m *Model) PredictBatch(x *hdc.Matrix) []int {
	out := make([]int, x.Rows)
	m.PredictBatchInto(x, out)
	return out
}

// PredictBatchInto is PredictBatch writing into caller storage (len
// x.Rows), reusing a pooled encoding matrix.
func (m *Model) PredictBatchInto(x *hdc.Matrix, out []int) {
	if len(out) != x.Rows {
		panic("quantize: PredictBatchInto output length mismatch")
	}
	enc, _ := m.encPool.Get().(*hdc.Matrix)
	if enc == nil {
		enc = new(hdc.Matrix)
	}
	enc.Resize(x.Rows, m.Enc.Dim())
	encoder.EncodeBatchInto(m.Enc, x, enc)
	if hdc.Serial(x.Rows) {
		m.classifyRows(enc, out, 0, x.Rows)
	} else {
		hdc.ParallelChunks(x.Rows, func(lo, hi int) { m.classifyRows(enc, out, lo, hi) })
	}
	m.encPool.Put(enc)
}

// PredictEncoded classifies an already-encoded float hypervector: the
// query is packed at the model width into pooled scratch and scored
// against the cached-norm class memory through the blocked packed panels.
func (m *Model) PredictEncoded(h []float32) int {
	q, _ := m.qPool.Get().(*bitpack.Vector)
	if q == nil {
		q = bitpack.NewVector(len(h), m.Width)
	}
	bitpack.QuantizeInto(h, m.Width, q)
	pred := m.Scorer().Classify(q)
	m.qPool.Put(q)
	return pred
}

func (m *Model) classifyRows(enc *hdc.Matrix, out []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = m.PredictEncoded(enc.Row(i))
	}
}

// Evaluate returns accuracy over the feature matrix x with labels y,
// through the batch encode/classify path.
func (m *Model) Evaluate(x *hdc.Matrix, y []int) float64 {
	if x.Rows != len(y) {
		panic("quantize: Evaluate label mismatch")
	}
	preds := m.PredictBatch(x)
	total := 0
	for i, p := range preds {
		if p == y[i] {
			total++
		}
	}
	return float64(total) / float64(len(y))
}

// Clone deep-copies the model (encoder is shared; class memory is copied).
// Use before destructive experiments such as fault injection.
func (m *Model) Clone() *Model {
	return &Model{Width: m.Width, Class: m.Class.Clone(), Enc: m.Enc}
}

// MemoryBits returns the class-memory footprint in bits, the quantity that
// shrinks with bitwidth in Table I.
func (m *Model) MemoryBits() int { return m.Class.StorageBits() }

// Retrain performs quantization-aware retraining: for `epochs` adaptive
// passes, predictions come from the packed model (exactly what deployment
// will compute) while corrections update a float32 shadow of the class
// memory, which is re-packed after every pass.
//
// This matters most at 1-bit: CyberHD's regeneration leaves freshly
// regenerated dimensions with small magnitudes, and plain sign()
// quantization weights their noise equally with mature dimensions.
// Retraining against the binarized decision boundary recovers the loss.
func Retrain(src *core.Model, w bitpack.Width, x *hdc.Matrix, y []int, epochs int, eta float64, seed uint64) (*Model, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("quantize: invalid width %d", w)
	}
	if x.Rows != len(y) || x.Rows == 0 {
		return nil, fmt.Errorf("quantize: %d samples, %d labels", x.Rows, len(y))
	}
	if eta <= 0 {
		eta = 0.05
	}
	if epochs <= 0 {
		epochs = 3
	}
	shadow := src.Class.Clone()
	enc2 := encoder.EncodeBatch(src.Enc, x)
	packed := bitpack.QuantizeMatrix(shadow.Data, shadow.Rows, shadow.Cols, w)
	r := rng.New(seed)
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	sims := make([]float64, shadow.Rows)
	// The shadow's norms and float64 panel, kept current: an update
	// refreshes the two rows it moves.
	sc := (&core.Model{Class: shadow}).Scorer()
	qv := bitpack.NewVector(shadow.Cols, w) // packed-query scratch, reused per sample
	for e := 0; e < epochs; e++ {
		r.ShuffleInts(order)
		for _, i := range order {
			h := enc2.Row(i)
			bitpack.QuantizeInto(h, w, qv)
			pred := packed.Classify(qv)
			if pred == y[i] {
				continue
			}
			sc.Similarities(h, hdc.Norm(h), sims)
			hdc.Axpy(float32(eta*(1-sims[y[i]])), h, shadow.Row(y[i]))
			hdc.Axpy(float32(-eta*(1-sims[pred])), h, shadow.Row(pred))
			sc.RefreshRow(y[i])
			sc.RefreshRow(pred)
		}
		packed = bitpack.QuantizeMatrix(shadow.Data, shadow.Rows, shadow.Cols, w)
	}
	return &Model{Width: w, Class: packed, Enc: src.Enc}, nil
}
