package quantize

import (
	"fmt"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
)

// Live binds a core.COWModel to quantized serving at a fixed bitwidth.
// Every published model version carries a freshly packed w-bit class
// memory — the COW derive hook quantizes on publish — so a hot reload
// rebuilds the packed memory the shards score against atomically with the
// snapshot swap. Classification loads one snapshot and uses its encoder
// and its quantized memory together: a verdict is never computed against a
// version-skewed pair.
//
// Live implements pipeline.Classifier, so it drops into Engine and
// Sharded; the engines build it automatically when Config.Quantize is set
// and Config.Model is a *core.COWModel.
// Steady-state classification (no publications in flight) is
// allocation-free; each publication pays one quantization of the class
// memory on the publisher's goroutine.
type Live struct {
	cow   *core.COWModel
	width bitpack.Width
}

// AttachLive installs the w-bit re-quantization hook on cow and returns
// the serving view, republishing immediately so the live snapshot already
// carries a packed memory. Attaching again at the same width is allowed
// (several engines may share one model); attaching at a different width
// is an error — the hook is per-COWModel, so a second width would
// silently change what existing Live views score against.
func AttachLive(cow *core.COWModel, w bitpack.Width) (*Live, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("quantize: invalid width %d", w)
	}
	if prev, ok := cow.Snapshot().Derived().(*Model); ok && prev.Width != w {
		return nil, fmt.Errorf("quantize: COWModel already serves %d-bit snapshots, cannot attach at %d bits", prev.Width, w)
	}
	cow.SetDerive(func(m *core.Model) any {
		q, err := FromCore(m, w)
		if err != nil {
			// Width was validated above; FromCore has no other failure mode.
			panic(fmt.Sprintf("quantize: re-quantization failed: %v", err))
		}
		return q
	})
	return &Live{cow: cow, width: w}, nil
}

// Width returns the serving bitwidth.
func (l *Live) Width() bitpack.Width { return l.width }

// COW returns the wrapped model (hot reloads go through its
// ReplaceModel).
func (l *Live) COW() *core.COWModel { return l.cow }

// Model returns the quantized model paired with the live snapshot.
// Successive calls may return different versions; every returned model
// stays valid and immutable forever.
func (l *Live) Model() *Model {
	q, ok := l.cow.Snapshot().Derived().(*Model)
	if !ok || q.Width != l.width {
		// A later SetDerive replaced the quantization hook (or swapped the
		// width); serving state is gone, so fail loudly rather than
		// misclassify.
		panic(fmt.Sprintf("quantize: COWModel derive hook no longer produces a %d-bit model", l.width))
	}
	return q
}

// Predict encodes x with the live version's encoder and classifies it
// against the same version's packed class memory.
func (l *Live) Predict(x []float32) int { return l.Model().Predict(x) }

// PredictBatchInto classifies every row of x into out (len x.Rows)
// through one version's batch encode + packed panel scoring.
func (l *Live) PredictBatchInto(x *hdc.Matrix, out []int) { l.Model().PredictBatchInto(x, out) }
