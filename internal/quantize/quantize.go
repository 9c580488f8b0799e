// Package quantize lowers trained HDC models to reduced-precision class
// memories for the paper's cross-platform evaluation (Table I) and
// robustness study (Fig 5), and serves them live at W1: Model drives the
// packed kernel layer of internal/bitpack (blocked panel dots, cached row
// norms, pooled query packing) with zero steady-state allocations, and
// AttachLive makes a core.COWModel serve a packed W1 Model: the live
// version's at once, a freshly packed one with every later version, so
// hot reloads and packed inference coexist.
// W2–W32 Models are offline only: the serving surfaces refuse them
// (pipeline.CheckWidth).
//
// Quantization is post-training: the float32 class hypervectors are packed
// to b-bit integers (see internal/bitpack); queries are encoded in float
// and packed with the same scheme before similarity search, so inference
// runs entirely in the integer domain. At 1 bit, FromCore gives the
// columns the last regeneration cycle redrew one common sign, and a Model
// encodes only the columns where its class rows differ, straight to query
// bits (hdc.SignPanel), those that separate the most class pairs first,
// and stops encoding a query once its verdict is certain. What a Model
// scores against is derived from Class at first use; after mutating Class
// later, call Refresh.
package quantize

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/metrics"
)

// Model is a quantized HDC classifier. At W2–W32 queries are packed into
// pooled scratch and scored against the class memory by a cached-norm
// bitpack.Scorer; at W1 they are scored in Hamming distance over the live
// columns (see view). Steady-state Predict and PredictBatchInto perform
// no allocations.
type Model struct {
	// Width is the element bitwidth of the class memory and queries.
	Width bitpack.Width
	// Class is the packed class hypervector memory, every column at every
	// width. Prediction scores through a view derived from it at first use
	// (see view), so callers that mutate the packed rows of a model that
	// has already predicted — fault injection after use — must call
	// Refresh afterwards.
	Class *bitpack.Matrix
	// Enc is the (float) encoder shared with the source model.
	Enc *encoder.RBF

	// hPool recycles encode buffers, encPool batch-encoding matrices, qPool
	// packed-query vectors and sPool W1 query state, so repeated
	// Predict/PredictBatchInto calls stop allocating per call.
	hPool   sync.Pool
	encPool sync.Pool
	qPool   sync.Pool
	sPool   sync.Pool

	// served is what prediction scores against; servedOnce guards its lazy
	// construction so first-use races between concurrent Predict calls are
	// safe, and Refresh replaces it.
	served     *view
	servedOnce sync.Once
}

// view is the scoring state a Model derives from Class and Enc. At W2–W32
// it is a norm-caching scorer over Class. At W1 it covers only the live
// columns, where the class rows do not all hold the same bit: every W1 row
// has norm √D, so a common column adds the same ±1 to every class's dot,
// and deleting it keeps every strict order and every tie of the scores.
// Over the K live columns the dot with class c is K − 2·H_c, H_c the
// Hamming distance, and all cosines share one positive divisor, so the
// verdict — lowest index first on ties — is the class nearest in H.
//
// The live columns are ranked by how many class pairs differ in each, most
// first, ties by column: the encoder rows (signs), the class rows (class)
// and the suffix table rem follow that order, so a query's first words
// carry most of what separates classes. After word w the leading class a
// (least H so far, lowest index on ties) is the verdict for certain when
// H_b − H_a > rem[w][a][b] for every other class b, or equals it with
// a < b: only the rem[w][a][b] later columns where rows a and b differ
// can move H_b − H_a, each by one. The sign kernel then retires the query
// (settled). Since |H_b − H_a| after word w is at most the n[a][b] −
// rem[w][a][b] columns so far where rows a and b differ (n[a][b] over all
// of them), no query can settle before the first word w where some class
// a has n[a][b] ≥ 2·rem[w][a][b] for every b; earlier words skip the
// check.
//
// A query scored from its float encoding instead (classifyEncoded) folds
// every word of its D-bit packed form against the class rows whole: a
// common column adds the same to every H_c, so the nearest class is the
// same.
type view struct {
	scorer *bitpack.Scorer // W2–W32
	// W1: the live columns of Class in rank order; word w of class c's
	// bits at them, class[w·C + c] for C classes; rem[(w·C + a)·C + b],
	// the live columns past word w where rows a and b differ; the first
	// word a query can settle after; the live columns' encode rows; and
	// word w of class c's D-bit row, rows[w·C + c].
	live  []int
	class []uint64
	rem   []int32
	first int
	signs *hdc.SignPanel
	rows  []uint64
}

// w1Scratch is pooled W1 query state: a batch chunk's sign words, nonzero
// reports and class distances (one row of C per query), and for a query
// scored from its float encoding its D-bit packed form.
type w1Scratch struct {
	words   []uint64
	nonzero []bool
	dist    []int32
	full    *bitpack.Vector
}

// FromCore packs the class memory of m at width w. At W1 it stores +1 in
// every class row for each dimension in m.ImmatureDims(), small noisy
// columns that sign() would give full ±1 weight: W1 rows all have norm √D,
// so a common column adds the same to every class's score and the argmax
// is exactly that of the dot with those dimensions deleted.
func FromCore(m *core.Model, w bitpack.Width) (*Model, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("quantize: invalid width %d", w)
	}
	class := bitpack.QuantizeMatrix(m.Class.Data, m.Class.Rows, m.Class.Cols, w)
	if w == bitpack.W1 {
		for _, j := range m.ImmatureDims() {
			for _, row := range class.Rows {
				row.Set(j, 1)
			}
		}
	}
	return &Model{Width: w, Class: class, Enc: m.Enc}, nil
}

// DeriveWidth reports the bitwidth this derived artifact was packed at.
// core.SaveSnapshot duck-types this method on Snapshot.Derived() to
// record the serving width in v2 snapshots without core importing this
// package (quantize already imports core).
func (m *Model) DeriveWidth() int { return int(m.Width) }

// view returns what prediction scores against, building it on first use
// (models assembled field by field have none yet). Safe for concurrent
// first use from Predict.
func (m *Model) view() *view {
	m.servedOnce.Do(func() { m.served = m.buildView() })
	return m.served
}

// Refresh rebuilds what prediction scores against from Class and Enc.
// Call it after mutating either on a model that has already predicted: a
// bit flip can make a W1 column live that was common. It must not run
// concurrently with prediction.
func (m *Model) Refresh() {
	m.servedOnce.Do(func() {})
	m.served = m.buildView()
}

func (m *Model) buildView() *view {
	if m.Width != bitpack.W1 {
		return &view{scorer: bitpack.NewScorer(m.Class)}
	}
	v := &view{live: rankedColumns(m.Class, m.Enc.Dim())}
	nc, words := len(m.Class.Rows), (len(v.live)+63)/64
	dw := (m.Enc.Dim() + 63) / 64
	v.class, v.rem, v.rows = make([]uint64, words*nc), make([]int32, words*nc*nc), make([]uint64, dw*nc)
	for c, r := range m.Class.Rows {
		for k, j := range v.live { // gather the row's live bits in rank order
			v.class[k/64*nc+c] |= r.Words[j/64] >> (j % 64) & 1 << (k % 64)
		}
		for w, word := range r.Words[:dw] {
			v.rows[w*nc+c] = word
		}
	}
	n := make([]int32, nc*nc) // n[a·C + b]: the live columns where rows a and b differ
	for w := words - 1; w >= 0; w-- {
		copy(v.rem[w*nc*nc:], n)
		for a, ra := range v.class[w*nc:][:nc] {
			for b, rb := range v.class[w*nc:][:nc] {
				n[a*nc+b] += int32(bits.OnesCount64(ra ^ rb))
			}
		}
	}
first:
	for ; v.first < words-1; v.first++ {
		for a := range nc {
			can := true
			for b, r := range v.rem[(v.first*nc+a)*nc:][:nc] {
				can = can && n[a*nc+b] >= 2*r
			}
			if can {
				break first
			}
		}
	}
	st := encoder.CaptureState(m.Enc)
	in := st.InDim
	base, bias := make([]float32, len(v.live)*in), make([]float32, len(v.live))
	for k, j := range v.live {
		copy(base[k*in:(k+1)*in], st.Base[j*in:(j+1)*in])
		bias[k] = st.Bias[j]
	}
	v.signs = hdc.NewSignPanel(base, bias, in)
	return v
}

// rankedColumns lists the live columns of a dim-column W1 class memory —
// those where the rows do not all hold the same bit — by how many class
// pairs differ in each, most first, ties by column.
func rankedColumns(class *bitpack.Matrix, dim int) []int {
	type column struct{ j, pairs int }
	var cols []column
	for j := range dim {
		ones := 0
		for _, row := range class.Rows {
			ones += int(row.Words[j/64] >> (j % 64) & 1)
		}
		if pairs := ones * (len(class.Rows) - ones); pairs > 0 {
			cols = append(cols, column{j, pairs})
		}
	}
	slices.SortStableFunc(cols, func(a, b column) int { return b.pairs - a.pairs })
	live := make([]int, len(cols))
	for k, c := range cols {
		live[k] = c.j
	}
	return live
}

// fold adds a word q of a query to its class distances d: class holds
// the same word of every class row.
func fold(d []int32, class []uint64, q uint64) {
	for c, r := range class[:len(d)] {
		d[c] += int32(bits.OnesCount64(q ^ r))
	}
}

// lead returns the class nearest in d, lowest index on ties: the W1
// verdict once d covers every word.
func lead(d []int32) int {
	a := 0
	for c, h := range d {
		if h < d[a] {
			a = c
		}
	}
	return a
}

// settled returns the class leading in d after word w and whether no
// later word can change the verdict (see view).
func (v *view) settled(d []int32, w int) (int, bool) {
	a := lead(d)
	rem := v.rem[(w*len(d)+a)*len(d):][:len(d)]
	for b, h := range d {
		if g := h - d[a] - rem[b]; g < 0 || g == 0 && b < a {
			return a, false
		}
	}
	return a, true
}

// scratch returns pooled W1 query state sized for n queries of v.
func (m *Model) scratch(v *view, n int) *w1Scratch {
	s, _ := m.sPool.Get().(*w1Scratch)
	if s == nil {
		s = new(w1Scratch)
	}
	words, nc := v.signs.Words(), len(m.Class.Rows)
	s.words = slices.Grow(s.words[:0], n*words)[:n*words]
	s.nonzero = slices.Grow(s.nonzero[:0], n)[:n]
	s.dist = slices.Grow(s.dist[:0], n*nc)[:n*nc]
	clear(s.dist)
	return s
}

// encode returns x's float encoding in a pooled buffer; the caller puts
// it back into hPool.
func (m *Model) encode(x []float32) *[]float32 {
	h, _ := m.hPool.Get().(*[]float32)
	if h == nil || len(*h) != m.Enc.Dim() {
		h = new([]float32)
		*h = make([]float32, m.Enc.Dim())
	}
	m.Enc.Encode(x, *h)
	return h
}

// Predict encodes x, packs it at the model width, and returns the class
// with the highest integer-domain similarity. Encode and packed-query
// buffers are pooled, so steady-state calls are allocation-free. At W1
// it is a batch of one through the sign kernel (classifySigns).
func (m *Model) Predict(x []float32) int {
	v := m.view()
	if v.signs == nil {
		h := m.encode(x)
		pred := m.PredictEncoded(*h)
		m.hPool.Put(h)
		return pred
	}
	var out [1]int
	m.classifySigns(v, &hdc.Matrix{Rows: 1, Cols: len(x), Data: x}, out[:], 0, 1)
	return out[0]
}

// classifyEncoded packs the encoded query h exactly as bitpack.Quantize(h,
// W1) packs it and folds every word of it into d, against the class rows
// whole (see view).
func (v *view) classifyEncoded(h []float32, s *w1Scratch, d []int32) int {
	if s.full == nil {
		s.full = new(bitpack.Vector)
	}
	bitpack.QuantizeInto(h, bitpack.W1, s.full)
	clear(d)
	for w, q := range s.full.Words {
		fold(d, v.rows[w*len(d):], q)
	}
	return lead(d)
}

// PredictBatch classifies every row of x, batch-encoding through the
// blocked kernel path before packing each query.
func (m *Model) PredictBatch(x *hdc.Matrix) []int {
	out := make([]int, x.Rows)
	m.PredictBatchInto(x, out)
	return out
}

// PredictBatchInto is PredictBatch writing into caller storage (len
// x.Rows), reusing a pooled encoding matrix, or at W1 pooled sign scratch.
func (m *Model) PredictBatchInto(x *hdc.Matrix, out []int) {
	if len(out) != x.Rows {
		panic("quantize: PredictBatchInto output length mismatch")
	}
	v := m.view()
	if v.signs != nil {
		if hdc.Serial(x.Rows) {
			m.classifySigns(v, x, out, 0, x.Rows)
		} else {
			hdc.ParallelChunks(x.Rows, func(lo, hi int) { m.classifySigns(v, x, out, lo, hi) })
		}
		return
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
// against the cached-norm class memory through the blocked packed panels,
// or at W1 the live columns' bits are gathered from it and scored over
// every word.
func (m *Model) PredictEncoded(h []float32) int {
	v := m.view()
	if v.signs != nil {
		if len(h) != m.Enc.Dim() {
			panic("quantize: PredictEncoded length mismatch")
		}
		s := m.scratch(v, 1)
		pred := v.classifyEncoded(h, s, s.dist)
		m.sPool.Put(s)
		return pred
	}
	q, _ := m.qPool.Get().(*bitpack.Vector)
	if q == nil {
		q = bitpack.NewVector(len(h), m.Width)
	}
	bitpack.QuantizeInto(h, m.Width, q)
	pred := v.scorer.Classify(q)
	m.qPool.Put(q)
	return pred
}

func (m *Model) classifyRows(enc *hdc.Matrix, out []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = m.PredictEncoded(enc.Row(i))
	}
}

// classifySigns is W1 PredictBatchInto over rows [lo, hi) of x: one
// blocked sign pass over the chunk that folds each word of a query into
// its class distances as it lands and retires the query once its verdict
// is settled. A query with no nonzero live output never retires and is
// scored from its float encoding: whether bitpack.Quantize stores its
// signs or all +1 then depends on the other columns.
func (m *Model) classifySigns(v *view, x *hdc.Matrix, out []int, lo, hi int) {
	s := m.scratch(v, hi-lo)
	words, nc := v.signs.Words(), len(m.Class.Rows)
	for i := lo; i < hi; i++ {
		out[i] = -1
	}
	v.signs.EncodeSignsBatch(x, lo, hi, s.words, s.nonzero, func(i, w int) bool {
		d := s.dist[(i-lo)*nc:][:nc]
		fold(d, v.class[w*nc:], s.words[(i-lo)*words+w])
		if !s.nonzero[i-lo] || w < v.first {
			return false
		}
		pred, ok := v.settled(d, w)
		if ok {
			out[i] = pred
		}
		return ok
	})
	for i := lo; i < hi; i++ {
		if out[i] < 0 {
			h := m.encode(x.Row(i))
			out[i] = v.classifyEncoded(*h, s, s.dist[(i-lo)*nc:][:nc])
			m.hPool.Put(h)
		}
	}
	m.sPool.Put(s)
}

// Evaluate returns accuracy over the feature matrix x with labels y,
// through the batch encode/classify path.
func (m *Model) Evaluate(x *hdc.Matrix, y []int) float64 {
	if x.Rows != len(y) {
		panic("quantize: Evaluate label mismatch")
	}
	return metrics.Accuracy(m.PredictBatch(x), y)
}

// Clone deep-copies the model (encoder is shared; class memory is copied).
// Use before destructive experiments such as fault injection.
func (m *Model) Clone() *Model {
	return &Model{Width: m.Width, Class: m.Class.Clone(), Enc: m.Enc}
}

// MemoryBits returns the class-memory footprint in bits, the quantity that
// shrinks with bitwidth in Table I.
func (m *Model) MemoryBits() int { return m.Class.StorageBits() }
