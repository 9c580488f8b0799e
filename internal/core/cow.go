package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
)

// Snapshot is one published, immutable version of a model: an encoder and
// a class hypervector matrix that are never mutated after publication,
// plus a Scorer caching the class-row norms of exactly this version.
// Readers that load a Snapshot see a consistent (encoder, class) pair even
// while the writer regenerates dimensions for the next version.
type Snapshot struct {
	// Enc encodes queries for this version. Regeneration publishes a new
	// encoder rather than mutating this one.
	Enc *encoder.RBF
	// Class is this version's class hypervector matrix (k×D).
	Class *hdc.Matrix
	// Version counts publications, starting at 1.
	Version uint64

	scorer  *Scorer
	derived any
}

// Scorer returns the snapshot's norm cache (built once at publication).
func (s *Snapshot) Scorer() *Scorer { return s.scorer }

// Derived returns the artifact the COWModel's derive hook built for this
// version (nil when no hook is installed) — e.g. the packed quantized
// class memory paired with exactly this snapshot. See COWModel.SetDerive.
func (s *Snapshot) Derived() any { return s.derived }

// PredictEncoded classifies an already-encoded hypervector against this
// snapshot's class matrix.
func (s *Snapshot) PredictEncoded(h []float32) int { return s.scorer.PredictEncoded(h) }

// COWModel makes one Model safe for concurrent classification and online
// learning by copy-on-write snapshots: readers classify against an
// immutable Snapshot loaded through one atomic pointer read, while the
// single writer applies Feedback updates to a private
// working copy and publishes the result as the next snapshot with an
// atomic swap. Class norms are cached per snapshot via the existing
// Scorer, so a publication costs one k×D matrix clone plus one norm pass.
//
// Readers (any number of goroutines, no locking):
//
//	Predict, PredictBatchInto, PredictEncoded, Snapshot
//
// Writers (serialized internally by a mutex):
//
//	Update, ReplaceModel
//
// COWModel implements pipeline.Classifier, pipeline.BatchClassifier and
// pipeline.Updater, so it drops into any engine — including
// pipeline.Sharded, where per-core workers classify while analyst
// feedback retrains the model live.
type COWModel struct {
	mu        sync.Mutex // serializes writers; guards writer, version, derive, onPublish
	writer    *Model     // private working copy; Class mutated in place
	version   uint64
	derive    func(m *Model) any
	onPublish func(version uint64)
	snap      atomic.Pointer[Snapshot]

	predictScratch sync.Pool // *cowScratch
	encScratch     sync.Pool // *hdc.Matrix
}

type cowScratch struct {
	h []float32
}

// NewCOWModel wraps a trained model. The model becomes the wrapper's
// private working copy: callers must stop using m directly (mutating it
// would race with published snapshots that share its encoder).
func NewCOWModel(m *Model) *COWModel {
	c := &COWModel{writer: m}
	c.mu.Lock()
	c.publishLocked()
	c.mu.Unlock()
	return c
}

// publishLocked clones the writer's class matrix, pairs it with the
// writer's current encoder, a fresh norm cache and (when a derive hook is
// installed) a freshly derived artifact, and swaps the package in as the
// live snapshot. Callers hold c.mu.
func (c *COWModel) publishLocked() {
	class := c.writer.Class.Clone()
	c.version++
	snap := &Snapshot{
		Enc:     c.writer.Enc,
		Class:   class,
		Version: c.version,
		scorer:  NewScorer(class),
	}
	if c.derive != nil {
		snap.derived = c.derive(c.writer)
	}
	c.snap.Store(snap)
	if c.onPublish != nil {
		c.onPublish(c.version)
	}
}

// SetOnPublish installs fn as the publication observer: it runs after
// every snapshot swap with the newly published version, and once
// immediately with the current version so gauges initialize. Engines use
// this to surface the serving model version in telemetry
// (cyberhd_model_version). fn runs under the writer lock — keep it to a
// counter store and never call back into the model. Last installer wins.
func (c *COWModel) SetOnPublish(fn func(version uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPublish = fn
	if fn != nil {
		fn(c.version)
	}
}

// ReplaceModel adopts m as the next model version: m becomes the private
// working copy and is published with one atomic snapshot swap, so
// concurrent readers switch from the old model to the new one between
// two predictions, never mid-verdict. The derive hook (e.g. the
// quantize.AttachLive re-packing hook) runs on m before the swap, so
// quantized serving state is rebuilt atomically with the publication —
// this is the hot-reload primitive of the model control plane.
//
// m must match the serving geometry (class count and hyperspace
// dimensionality); a mismatch returns an error and leaves the serving
// version untouched. The caller must stop using m directly afterwards,
// exactly as with NewCOWModel.
func (c *COWModel) ReplaceModel(m *Model) error {
	if m == nil {
		return fmt.Errorf("core: ReplaceModel: nil model")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Class.Rows != c.writer.Class.Rows {
		return fmt.Errorf("core: ReplaceModel: model has %d classes, serving %d",
			m.Class.Rows, c.writer.Class.Rows)
	}
	if m.Class.Cols != c.writer.Class.Cols {
		return fmt.Errorf("core: ReplaceModel: model dim %d, serving %d",
			m.Class.Cols, c.writer.Class.Cols)
	}
	c.writer = m
	c.publishLocked()
	return nil
}

// SetDerive installs fn as the snapshot derivation hook and republishes so
// the live snapshot immediately carries a derived artifact. On every
// subsequent publication — Update, ReplaceModel — fn runs
// on the writer's post-update state and its result rides the snapshot
// (Snapshot.Derived), giving readers a consistent (model, artifact) pair
// behind the same single atomic load.
//
// fn must treat m as read-only and must not retain references to m.Class,
// which the writer keeps mutating after publication; build the artifact
// from copied (e.g. packed) state. quantize.AttachLive uses this hook to
// re-quantize the class memory on every publish.
func (c *COWModel) SetDerive(fn func(m *Model) any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.derive = fn
	c.publishLocked()
}

// Snapshot returns the live snapshot. Successive calls may return
// different versions; every returned snapshot stays valid and immutable
// forever.
func (c *COWModel) Snapshot() *Snapshot { return c.snap.Load() }

// Version returns the live snapshot's version.
func (c *COWModel) Version() uint64 { return c.snap.Load().Version }

// Dim returns the physical hyperspace dimensionality (constant across
// versions: regeneration redraws dimensions, it never resizes).
func (c *COWModel) Dim() int { return c.snap.Load().Class.Cols }

// NumClasses returns the number of classes.
func (c *COWModel) NumClasses() int { return c.snap.Load().Class.Rows }

// scratch fetches (or builds) a pooled encode buffer sized for the model.
func (c *COWModel) scratch(dim int) *cowScratch {
	sc, _ := c.predictScratch.Get().(*cowScratch)
	if sc == nil || len(sc.h) != dim {
		sc = &cowScratch{h: make([]float32, dim)}
	}
	return sc
}

// Predict encodes x with the live snapshot's encoder and classifies it
// against the same snapshot's class matrix — one atomic load, so the
// (encoder, class) pair is always consistent. Safe for any number of
// concurrent callers; allocation-free in steady state.
func (c *COWModel) Predict(x []float32) int {
	snap := c.snap.Load()
	sc := c.scratch(snap.Class.Cols)
	snap.Enc.Encode(x, sc.h)
	pred := snap.scorer.PredictEncoded(sc.h)
	c.predictScratch.Put(sc)
	return pred
}

// PredictEncoded classifies an already-encoded hypervector against the
// live snapshot.
func (c *COWModel) PredictEncoded(h []float32) int {
	return c.snap.Load().PredictEncoded(h)
}

// PredictBatchInto classifies every row of x into out (len x.Rows)
// through the blocked encode/score kernels, against one consistent
// snapshot. Safe for concurrent callers.
func (c *COWModel) PredictBatchInto(x *hdc.Matrix, out []int) {
	snap := c.snap.Load()
	enc, _ := c.encScratch.Get().(*hdc.Matrix)
	if enc == nil {
		enc = new(hdc.Matrix)
	}
	enc.Resize(x.Rows, snap.Class.Cols)
	encoder.EncodeBatchInto(snap.Enc, x, enc)
	snap.scorer.PredictBatchEncoded(enc, out)
	c.encScratch.Put(enc)
}

// Update applies one online feedback sample (the paper's similarity-
// weighted rule) to the working copy and, when the model changed,
// publishes the next snapshot. Readers never observe a partial update.
func (c *COWModel) Update(x []float32, label int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := c.writer.Update(x, label)
	if changed {
		c.publishLocked()
	}
	return changed
}
