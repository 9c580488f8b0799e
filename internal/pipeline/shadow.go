package pipeline

import "sync/atomic"

// Shadow is the shadow-serving tap of the model control plane: a
// swappable candidate classifier that engines score behind the primary
// model. Every classified flow is also predicted by the shadow (when one
// is attached) and verdict disagreements are counted per primary class
// into the engine's telemetry collector
// (cyberhd_shadow_diverged_total{class=...}), so an operator can watch a
// retrained candidate's divergence from live traffic before promoting
// it. Shadow verdicts never alert, never reach sinks and never change
// what the primary serves — the tap is observability only; promotion is
// a separate atomic swap on the serving COWModel
// (core.COWModel.ReplaceModel).
//
// Attach the tap through Config.Shadow before building an engine; Set,
// Clear and Get are safe from any goroutine at any time, so a candidate
// can be attached, replaced or detached mid-traffic. Engines load the
// candidate once per batch flush (so once per flow when BatchSize <= 1),
// so one flow is never scored against two different candidates.
//
// The candidate's Predict must be safe for concurrent callers (all
// models in this tree are) and must accept the same normalized feature
// vectors as the primary. Score the shadow at the serving width when the
// primary is quantized — e.g. quantize.FromCore at the same width —
// otherwise divergence conflates model drift with quantization error.
type Shadow struct {
	slot atomic.Pointer[shadowSlot]
}

// shadowSlot wraps the candidate so the atomic pointer can hold
// interface values.
type shadowSlot struct{ c Classifier }

// NewShadow returns an empty tap (no candidate attached).
func NewShadow() *Shadow { return &Shadow{} }

// Set attaches (or replaces) the candidate classifier with one atomic
// swap; Set(nil) detaches like Clear.
func (s *Shadow) Set(c Classifier) {
	if c == nil {
		s.Clear()
		return
	}
	s.slot.Store(&shadowSlot{c: c})
}

// Clear detaches the candidate; subsequent flows are scored by the
// primary alone.
func (s *Shadow) Clear() { s.slot.Store(nil) }

// Get returns the attached candidate, or nil when the tap is empty.
func (s *Shadow) Get() Classifier {
	if slot := s.slot.Load(); slot != nil {
		return slot.c
	}
	return nil
}

// Active reports whether a candidate is attached.
func (s *Shadow) Active() bool { return s.slot.Load() != nil }
