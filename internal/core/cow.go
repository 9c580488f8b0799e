package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
)

// Snapshot is one published version of a model: its encoder and class
// hypervector matrix, which nothing mutates once published. Readers that
// load a Snapshot see a consistent (encoder, class) pair however many
// versions are published after it.
type Snapshot struct {
	// Enc encodes queries for this version.
	Enc *encoder.RBF
	// Class is this version's class hypervector matrix (k×D).
	Class *hdc.Matrix
	// Version counts publications, starting at 1.
	Version uint64

	model   *Model
	derived any
	serve   classifier // derived when it classifies, else model
}

// classifier is what a snapshot serves verdicts through: its model, or a
// derived artifact that classifies (a packed class memory).
type classifier interface {
	Predict(x []float32) int
	PredictBatchInto(x *hdc.Matrix, out []int)
}

// Derived returns the artifact the COWModel's derive hook built for this
// version (nil when no hook is installed) — e.g. the packed quantized
// class memory paired with exactly this snapshot. See COWModel.SetDerive.
func (s *Snapshot) Derived() any { return s.derived }

// COWModel is an atomically swapped immutable model plus a derived
// artifact. Each publication pairs a trained model with, when a derive
// hook is installed, the artifact the hook builds from it, and stores the
// package behind one atomic pointer: readers load it once per verdict and
// classify through the derived artifact when it is a classifier (the
// packed class memory quantize.AttachLive derives), else through the
// published model itself, so a verdict is always computed against one
// consistent version. Nothing mutates a Model after Train returns, so a
// publication copies and computes nothing beyond the derive hook.
//
// Readers (any number of goroutines, no locking):
//
//	Predict, PredictBatchInto, Snapshot
//
// Publishers (serialized internally by a mutex):
//
//	ReplaceModel, SetDerive
//
// COWModel implements pipeline.Classifier, so it drops into any engine —
// including pipeline.Sharded, where per-core workers classify while the
// control plane hot-reloads the model.
type COWModel struct {
	mu      sync.Mutex // serializes publications; guards version and derive
	version uint64
	derive  func(m *Model) any
	snap    atomic.Pointer[Snapshot]
}

// NewCOWModel publishes m as version 1. m is published as is, not
// copied: callers must not mutate it afterwards.
func NewCOWModel(m *Model) *COWModel {
	c := &COWModel{version: 1}
	c.mu.Lock()
	c.publishLocked(m)
	c.mu.Unlock()
	return c
}

// publishLocked pairs m with, when a derive hook is installed, a freshly
// derived artifact, and swaps the package in as the live snapshot at the
// current version. Callers hold c.mu and set the version first.
func (c *COWModel) publishLocked(m *Model) *Snapshot {
	snap := &Snapshot{
		Enc:     m.Enc,
		Class:   m.Class,
		Version: c.version,
		model:   m,
		serve:   m,
	}
	if c.derive != nil {
		snap.derived = c.derive(m)
		if d, ok := snap.derived.(classifier); ok {
			snap.serve = d
		}
	}
	c.snap.Store(snap)
	return snap
}

// ReplaceModel publishes m as the next model version with one atomic
// snapshot swap, so concurrent readers switch from the old model to the
// new one between two predictions, never mid-verdict. The derive hook
// (e.g. the quantize.AttachLive re-packing hook) runs on m before the
// swap, so quantized serving state is rebuilt atomically with the
// publication — this is the hot-reload primitive of the model control
// plane.
//
// m must match the serving geometry (class count and hyperspace
// dimensionality); a mismatch returns an error and leaves the serving
// version untouched. As with NewCOWModel, m is published as is and must
// not be mutated afterwards.
func (c *COWModel) ReplaceModel(m *Model) error {
	if m == nil {
		return fmt.Errorf("core: ReplaceModel: nil model")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	serving := c.snap.Load().Class
	if m.Class.Rows != serving.Rows {
		return fmt.Errorf("core: ReplaceModel: model has %d classes, serving %d",
			m.Class.Rows, serving.Rows)
	}
	if m.Class.Cols != serving.Cols {
		return fmt.Errorf("core: ReplaceModel: model dim %d, serving %d",
			m.Class.Cols, serving.Cols)
	}
	c.version++
	c.publishLocked(m)
	return nil
}

// SetDerive installs fn as the snapshot derivation hook, derives the
// artifact for the live model and returns the snapshot carrying it. The
// version does not advance: the model has not changed. Every later
// publication runs fn on the model it publishes, and the result rides the
// snapshot (Snapshot.Derived), giving readers a consistent (model,
// artifact) pair behind the same single atomic load; an artifact that
// classifies (Predict and PredictBatchInto) serves the COWModel's
// verdicts from then on. fn must treat m as read-only. Whoever builds the
// COWModel installs the hook once, before serving it:
// quantize.AttachLive uses it to serve W1.
func (c *COWModel) SetDerive(fn func(m *Model) any) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.derive = fn
	return c.publishLocked(c.snap.Load().model)
}

// Snapshot returns the live snapshot. Successive calls may return
// different versions; every returned snapshot stays valid and immutable
// forever.
func (c *COWModel) Snapshot() *Snapshot { return c.snap.Load() }

// Version returns the live snapshot's version.
func (c *COWModel) Version() uint64 { return c.snap.Load().Version }

// Dim returns the physical hyperspace dimensionality (constant across
// versions: ReplaceModel refuses another one).
func (c *COWModel) Dim() int { return c.snap.Load().Class.Cols }

// NumClasses returns the number of classes.
func (c *COWModel) NumClasses() int { return c.snap.Load().Class.Rows }

// Predict classifies x through the live snapshot's classifier — its
// derived artifact when that classifies, else its model — with one atomic
// load, so the encoder and class memory always come from one version.
// Safe for any number of concurrent callers; allocation-free in steady
// state.
func (c *COWModel) Predict(x []float32) int { return c.snap.Load().serve.Predict(x) }

// PredictBatchInto classifies every row of x into out (len x.Rows)
// through the live snapshot's classifier, against one consistent
// snapshot. Safe for concurrent callers.
func (c *COWModel) PredictBatchInto(x *hdc.Matrix, out []int) {
	c.snap.Load().serve.PredictBatchInto(x, out)
}
