package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
)

// modelState is the gob wire format of a Model. The encoder is captured
// through encoder.State, including its RNG continuation, so a reloaded
// model classifies identically and future regeneration draws continue the
// saved stream.
//
// Format note (v1 limitation): this format predates the COW/quantize
// serving stack. Save serializes a bare Model — it silently drops the
// COW publication version, the Scorer's cached row norms and the
// quantized derived artifact attached by quantize.AttachLive, and Load
// rebuilds the norm cache from the class data (refreshNorms) while
// leaving quantized state to be re-derived by the serving config. Use
// SaveSnapshot/LoadSnapshot (snapshot.go) for serving-ready persistence;
// v1 files keep loading through both Load and LoadSnapshot.
type modelState struct {
	Version              int
	ClassRows, ClassCols int
	ClassData            []float32
	EffectiveDim         int
	History              []CycleStats
	Opts                 persistedOptions
	Encoder              encoder.State
}

// persistedOptions mirrors Options without the non-serializable
// DropSelector hook (ablation-only; a loaded model falls back to the
// paper's variance rule).
type persistedOptions struct {
	Classes      int
	LearningRate float64
	Epochs       int
	RegenCycles  int
	RegenRate    float64
	Seed         uint64
}

const modelStateVersion = 1

// persistOptions is the one Options → persistedOptions mapping.
func persistOptions(o Options) persistedOptions {
	return persistedOptions{
		Classes: o.Classes, LearningRate: o.LearningRate,
		Epochs: o.Epochs, RegenCycles: o.RegenCycles,
		RegenRate: o.RegenRate, Seed: o.Seed,
	}
}

// options is the inverse of persistOptions.
func (p persistedOptions) options() Options {
	return Options{
		Classes: p.Classes, LearningRate: p.LearningRate,
		Epochs: p.Epochs, RegenCycles: p.RegenCycles,
		RegenRate: p.RegenRate, Seed: p.Seed,
	}
}

// Save serializes the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	encState, err := encoder.CaptureState(m.Enc)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	state := modelState{
		Version:   modelStateVersion,
		ClassRows: m.Class.Rows, ClassCols: m.Class.Cols,
		ClassData:    m.Class.Data,
		EffectiveDim: m.EffectiveDim,
		History:      m.History,
		Opts:         persistOptions(m.opts),
		Encoder:      encState,
	}
	return gob.NewEncoder(w).Encode(&state)
}

// Load deserializes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var state modelState
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if state.Version != modelStateVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", state.Version)
	}
	return state.model()
}

// model rebuilds the Model a decoded state describes — the one state →
// *Model path, shared by Load and the v2 snapshot decoder (whose state
// carries the same fields under the same names): class-matrix size check,
// encoder restore, dimension cross-check, options, norm cache.
func (state *modelState) model() (*Model, error) {
	if len(state.ClassData) != state.ClassRows*state.ClassCols {
		return nil, fmt.Errorf("core: corrupt class matrix (%d values for %d×%d)",
			len(state.ClassData), state.ClassRows, state.ClassCols)
	}
	enc, err := encoder.FromState(state.Encoder)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if enc.Dim() != state.ClassCols {
		return nil, fmt.Errorf("core: encoder dim %d != class dim %d", enc.Dim(), state.ClassCols)
	}
	m := &Model{
		Enc: enc,
		Class: &hdc.Matrix{
			Rows: state.ClassRows, Cols: state.ClassCols,
			Data: append([]float32(nil), state.ClassData...),
		},
		EffectiveDim: state.EffectiveDim,
		History:      state.History,
		opts:         state.Opts.options(),
	}
	m.refreshNorms()
	return m, nil
}
