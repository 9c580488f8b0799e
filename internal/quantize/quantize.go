// Package quantize lowers trained HDC models to reduced-precision class
// memories for the paper's cross-platform evaluation (Table I) and
// robustness study (Fig 5), and serves them live: Model drives the packed
// kernel layer of internal/bitpack (blocked panel dots, cached row norms,
// pooled query packing) so the streaming engine classifies flows in the
// integer domain with zero steady-state allocations, and AttachLive makes
// a core.COWModel publish and serve a freshly packed Model with every
// version, so hot reloads and packed inference coexist.
//
// Quantization is post-training: the float32 class hypervectors are packed
// to b-bit integers (see internal/bitpack); queries are encoded in float
// and packed with the same scheme before similarity search, so inference
// runs entirely in the integer domain. At 1 bit, FromCore gives the
// columns the last regeneration cycle redrew one common sign, and a Model
// encodes and scores only the columns where its class rows differ,
// straight to query bits (hdc.SignPanel). What a Model scores against is
// derived from Class at first use; after mutating Class later, call
// Refresh.
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

// Model is a quantized HDC classifier. All prediction paths run through
// the packed kernel layer: queries are packed into pooled scratch and
// scored against the class memory by a cached-norm bitpack.Scorer, so
// steady-state Predict and PredictBatchInto perform no allocations.
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
// and deleting it keeps every strict order and every tie of the scores —
// the verdict, lowest index first on ties, is Class's. The query bits of
// the live columns come straight from the encoder's rows for them (signs),
// and the scorer holds Class cut down to them.
type view struct {
	scorer *bitpack.Scorer
	live   []int          // W1: the live columns of Class, ascending
	words  []liveWord     // W1: per word of a D-bit query, its live bits
	signs  *hdc.SignPanel // W1: the live columns' encode rows
}

// liveWord is one word's live-bit mask with the six move masks that
// compress it (Hacker's Delight §7-4), so squeeze packs a word's live bits
// together in twelve constant-shift steps.
type liveWord struct {
	mask uint64
	move [6]uint64
	n    int // live bits
}

func newLiveWord(mask uint64) liveWord {
	w := liveWord{mask: mask, n: bits.OnesCount64(mask)}
	m, mk := mask, ^mask<<1 // mk: the zeros to the right of each bit
	for i := range w.move {
		mp := mk ^ mk<<1 // parallel suffix: the parity of those zeros
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		w.move[i] = mp & m // bits that move right by 2^i at step i
		m = m ^ w.move[i] | w.move[i]>>(1<<i)
		mk &^= mp
	}
	return w
}

// compress packs the bits of x under the mask into the low bits, in
// order: PEXT.
func (w *liveWord) compress(x uint64) uint64 {
	x &= w.mask
	t := x & w.move[0]
	x = x ^ t | t>>1
	t = x & w.move[1]
	x = x ^ t | t>>2
	t = x & w.move[2]
	x = x ^ t | t>>4
	t = x & w.move[3]
	x = x ^ t | t>>8
	t = x & w.move[4]
	x = x ^ t | t>>16
	t = x & w.move[5]
	return x ^ t | t>>32
}

// w1Scratch is pooled W1 query state: a K-bit query for the K live
// columns, a D-bit one to squeeze it from, and a batch chunk's sign words
// and nonzero reports.
type w1Scratch struct {
	q, full *bitpack.Vector
	words   []uint64
	nonzero []bool
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
	v := new(view)
	v.live, v.words = liveColumns(m.Class, m.Enc.Dim())
	class := &bitpack.Matrix{Rows: make([]*bitpack.Vector, len(m.Class.Rows))}
	for c, row := range m.Class.Rows {
		class.Rows[c] = bitpack.NewVector(len(v.live), bitpack.W1)
		v.squeeze(row, class.Rows[c])
	}
	v.scorer = bitpack.NewScorer(class)
	st := encoder.CaptureState(m.Enc)
	n := st.InDim
	base, bias := make([]float32, len(v.live)*n), make([]float32, len(v.live))
	for k, j := range v.live {
		copy(base[k*n:(k+1)*n], st.Base[j*n:(j+1)*n])
		bias[k] = st.Bias[j]
	}
	v.signs = hdc.NewSignPanel(base, bias, n)
	return v
}

// liveColumns lists the live columns of a dim-column W1 class memory,
// word by word: a column is common when the AND over all rows equals the
// OR, and live otherwise. It also returns each word's live mask.
func liveColumns(class *bitpack.Matrix, dim int) ([]int, []liveWord) {
	live, words := []int{}, []liveWord{}
	for w := 0; w*64 < dim; w++ {
		and, or := ^uint64(0), uint64(0)
		for _, row := range class.Rows {
			and &= row.Words[w]
			or |= row.Words[w]
		}
		mask := (and ^ or) & (^uint64(0) >> (64 - min(64, dim-w*64)))
		words = append(words, newLiveWord(mask))
		for ; mask != 0; mask &= mask - 1 {
			live = append(live, w*64+bits.TrailingZeros64(mask))
		}
	}
	return live, words
}

// squeeze packs the live bits of the D-bit W1 vector full into the K-bit
// q, in column order, one compressed word at a time: a query, or a class
// row.
func (v *view) squeeze(full, q *bitpack.Vector) {
	var acc uint64
	fill, out := 0, 0 // bits in acc, words of q written
	for i, word := range full.Words {
		lw := &v.words[i]
		x := lw.compress(word)
		acc |= x << fill
		if fill += lw.n; fill >= 64 {
			q.Words[out] = acc
			out++
			fill -= 64
			acc = x >> (lw.n - fill) // the bits that did not fit; 0 when none
		}
	}
	if fill > 0 {
		q.Words[out] = acc
	}
}

// scratch returns pooled W1 query state sized for v.
func (m *Model) scratch(v *view) *w1Scratch {
	s, _ := m.sPool.Get().(*w1Scratch)
	if s == nil {
		s = new(w1Scratch)
	}
	if s.q == nil || s.q.Dim != len(v.live) {
		s.q = bitpack.NewVector(len(v.live), bitpack.W1)
		s.full = bitpack.NewVector(m.Enc.Dim(), bitpack.W1)
	}
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
// the live columns' bits come straight from the sign kernel.
func (m *Model) Predict(x []float32) int {
	v := m.view()
	if v.signs == nil {
		h := m.encode(x)
		pred := m.PredictEncoded(*h)
		m.hPool.Put(h)
		return pred
	}
	s := m.scratch(v)
	if !v.signs.EncodeSigns(x, s.q.Words) {
		m.packFull(v, x, s)
	}
	pred := v.scorer.Classify(s.q)
	m.sPool.Put(s)
	return pred
}

// packFull packs the W1 query of x into s.q from its full float
// encoding: the route for a query none of whose live outputs is nonzero,
// where whether bitpack.Quantize stores signs or all +1 depends on the
// other columns.
func (m *Model) packFull(v *view, x []float32, s *w1Scratch) {
	if len(v.live) == 0 {
		return // nothing to pack: every class scores the same
	}
	h := m.encode(x)
	v.pack(*h, s)
	m.hPool.Put(h)
}

// pack packs the live columns of the encoded query h into s.q exactly as
// bitpack.Quantize(h, W1) packs them: quantized whole, then squeezed.
func (v *view) pack(h []float32, s *w1Scratch) {
	bitpack.QuantizeInto(h, bitpack.W1, s.full)
	v.squeeze(s.full, s.q)
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
// query is packed at the model width into pooled scratch — at W1 only its
// live columns — and scored against the cached-norm class memory through
// the blocked packed panels.
func (m *Model) PredictEncoded(h []float32) int {
	v := m.view()
	if v.signs != nil {
		if len(h) != m.Enc.Dim() {
			panic("quantize: PredictEncoded length mismatch")
		}
		s := m.scratch(v)
		v.pack(h, s)
		pred := v.scorer.Classify(s.q)
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
// blocked sign pass over the chunk, then each query scored.
func (m *Model) classifySigns(v *view, x *hdc.Matrix, out []int, lo, hi int) {
	s := m.scratch(v)
	words := v.signs.Words()
	s.words = slices.Grow(s.words[:0], (hi-lo)*words)[:(hi-lo)*words]
	s.nonzero = slices.Grow(s.nonzero[:0], hi-lo)[:hi-lo]
	v.signs.EncodeSignsBatch(x, lo, hi, s.words, s.nonzero)
	for i := lo; i < hi; i++ {
		if s.nonzero[i-lo] {
			copy(s.q.Words, s.words[(i-lo)*words:])
		} else {
			m.packFull(v, x.Row(i), s)
		}
		out[i] = v.scorer.Classify(s.q)
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
