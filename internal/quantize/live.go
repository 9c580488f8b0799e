package quantize

import (
	"fmt"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
)

// AttachLive binds cow to quantized serving at width w: it installs a
// derive hook that packs the class memory of every published model, and
// republishes at once, so the live snapshot already carries a w-bit Model
// and cow's Predict and PredictBatchInto serve it. A hot reload rebuilds
// the packed memory atomically with the snapshot swap, and a verdict loads
// one snapshot's encoder and packed memory together, never a
// version-skewed pair. Steady-state classification stays allocation-free;
// each publication pays one quantization on the publisher's goroutine.
//
// Attaching again at the same width is allowed (several engines may share
// one model); attaching at a different width is an error — the hook is
// per-COWModel, so a second width would silently change what every engine
// serving cow scores against.
func AttachLive(cow *core.COWModel, w bitpack.Width) error {
	if !w.Valid() {
		return fmt.Errorf("quantize: invalid width %d", w)
	}
	if prev, ok := cow.Snapshot().Derived().(*Model); ok && prev.Width != w {
		return fmt.Errorf("quantize: COWModel already serves %d-bit snapshots, cannot attach at %d bits", prev.Width, w)
	}
	cow.SetDerive(func(m *core.Model) any {
		q, err := FromCore(m, w)
		if err != nil {
			// Width was validated above; FromCore has no other failure mode.
			panic(fmt.Sprintf("quantize: re-quantization failed: %v", err))
		}
		return q
	})
	return nil
}
