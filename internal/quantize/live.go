package quantize

import (
	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
)

// AttachLive binds cow to W1 serving, the one packed serving width: it
// installs a derive hook that packs the class memory of every published
// model, and republishes at once, so the live snapshot already carries a
// W1 Model and cow's Predict and PredictBatchInto serve it. A hot reload
// rebuilds the packed memory atomically with the snapshot swap, and a
// verdict loads one snapshot's encoder and packed memory together, never
// a version-skewed pair. Steady-state classification stays
// allocation-free; each publication pays one quantization on the
// publisher's goroutine. Attaching again is allowed: several engines may
// share one model.
func AttachLive(cow *core.COWModel) {
	cow.SetDerive(func(m *core.Model) any {
		q, _ := FromCore(m, bitpack.W1) // FromCore fails only on an invalid width
		return q
	})
}
