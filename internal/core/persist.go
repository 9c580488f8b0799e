package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
)

// modelState is the gob body of a v1 model file: a bare Model, with the
// encoder captured through encoder.State (including its RNG
// continuation). Nothing writes v1 any more — SaveSnapshot's v2 is the
// only model format written — but model files from earlier releases
// carry it, so DecodeSnapshot keeps reading it
// (testdata/model_v1.snapshot is the frozen pin). It also names the
// fields the v2 body shares, which is why both rebuild through model().
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

// loadV1 decodes a v1 body: the stream DecodeSnapshot is left with when
// the v2 magic is absent.
func loadV1(r io.Reader) (*Model, error) {
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
// *Model path, shared by the v1 and v2 decoders (the v2 body carries the
// same fields under the same names): class-matrix shape and size check,
// encoder restore, dimension cross-check, options, norm cache. Both
// class dimensions must be positive — the v2 header enforces that
// before the body is read, a v1 body has only this check: a 3×0 matrix
// passes every product test and scores every flow as class 0. A History
// entry must drop in [0, D), as Train does: the last one's count is how
// many columns a 1-bit model masks (ImmatureDims).
func (state *modelState) model() (*Model, error) {
	if state.ClassRows <= 0 || state.ClassCols <= 0 {
		return nil, fmt.Errorf("core: degenerate class matrix %d×%d", state.ClassRows, state.ClassCols)
	}
	for _, h := range state.History {
		if h.Dropped < 0 || h.Dropped >= state.ClassCols {
			return nil, fmt.Errorf("core: cycle %d drops %d dimensions, outside [0, %d)", h.Cycle, h.Dropped, state.ClassCols)
		}
	}
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
	m.Scorer().Refresh()
	return m, nil
}
