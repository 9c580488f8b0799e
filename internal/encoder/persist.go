package encoder

import (
	"fmt"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// State is the serializable form of the encoder, used by model
// persistence. The field set is frozen: gob writes every field's name and
// type into each snapshot's type descriptor, so removing one would change
// the bytes core.SaveSnapshot writes (pinned by SHA-256 in internal/core).
type State struct {
	Kind string // "rbf"; "linear" and "idlevel" are retired and refused

	InDim, Dim int

	// RNG continuation so regeneration draws after a reload continue the
	// exact stream of the saved encoder.
	RNG rng.State

	Base  []float32 // Dim × InDim, row-major
	Bias  []float32
	Gamma float64

	// Decode-only: fields of the retired "idlevel" kind, never set and
	// never read. They stay so the wire type descriptor does not move.
	Levels  int
	Lo, Hi  float32
	ID      []float32
	LevelHV []float32
}

// CaptureState extracts the serializable state of e, the base matrix
// row-major as State has always carried it.
func CaptureState(e *RBF) State {
	base := make([]float32, e.dim*e.inDim)
	for j := range base {
		base[j] = e.panel[hdc.PanelIndex(j/e.inDim, j%e.inDim, e.inDim)]
	}
	return State{
		Kind: "rbf", InDim: e.InDim(), Dim: e.Dim(),
		RNG:   e.r.State(),
		Base:  base,
		Bias:  append([]float32(nil), e.bias[:e.dim]...),
		Gamma: e.gamma,
	}
}

// FromState reconstructs an encoder from its captured state. It is the
// decode-side shape check for outside bytes: both dimensions must be
// positive (a zero-dimension encoder satisfies every product check and
// predicts class 0 forever) and the base and bias must match them.
func FromState(s State) (*RBF, error) {
	switch s.Kind {
	case "rbf":
	case "linear", "idlevel":
		return nil, fmt.Errorf("encoder: retired encoder kind %q (only \"rbf\" is supported)", s.Kind)
	default:
		return nil, fmt.Errorf("encoder: unknown encoder kind %q", s.Kind)
	}
	if s.Dim <= 0 || s.InDim <= 0 {
		return nil, fmt.Errorf("encoder: rbf state has non-positive shape %d×%d", s.Dim, s.InDim)
	}
	if len(s.Base) != s.Dim*s.InDim || len(s.Bias) != s.Dim {
		return nil, fmt.Errorf("encoder: rbf state shape mismatch")
	}
	e := newRBF(s.InDim, s.Dim, s.Gamma, rng.FromState(s.RNG))
	for j, v := range s.Base {
		e.panel[hdc.PanelIndex(j/s.InDim, j%s.InDim, s.InDim)] = v
	}
	copy(e.bias, s.Bias)
	return e, nil
}
