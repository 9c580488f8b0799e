package quantize

import (
	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
)

// AttachLive binds cow to W1 serving, the one packed serving width, and
// returns the W1 Model it packed for the live version. It installs a
// derive hook that packs the class memory of every published model, so
// cow's Predict and PredictBatchInto serve it at once, without advancing
// the version: the model has not changed. A hot reload rebuilds the
// packed memory atomically with the snapshot swap, and a verdict loads
// one snapshot's encoder and packed memory together, never a
// version-skewed pair. Steady-state classification stays allocation-free;
// each publication pays one quantization on the publisher's goroutine.
// The serving width is a property of the model: whoever builds cow
// attaches once, before anything serves it or saves it, and engines only
// read it.
func AttachLive(cow *core.COWModel) *Model {
	q, _ := cow.SetDerive(func(m *core.Model) any {
		q, _ := FromCore(m, bitpack.W1) // FromCore fails only on an invalid width
		return q
	}).Derived().(*Model)
	return q
}
