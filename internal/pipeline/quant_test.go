package pipeline

import (
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/quantize"
)

// TestQuantizeConfigValidation rejects invalid widths, width mismatches
// with pre-quantized models, and unquantizable model types.
func TestQuantizeConfigValidation(t *testing.T) {
	cfg, _ := buildModel(t)
	bad := cfg
	bad.Quantize = bitpack.Width(3)
	if _, err := New(bad); err == nil {
		t.Error("accepted invalid width")
	}
	if _, err := NewSharded(bad); err == nil {
		t.Error("sharded accepted invalid width")
	}
	bad = cfg
	bad.Model = fakeModel{}
	bad.Quantize = bitpack.W8
	if _, err := New(bad); err == nil {
		t.Error("accepted unquantizable model type")
	}
	q, err := quantize.FromCore(cfg.Model.(*core.Model), bitpack.W4)
	if err != nil {
		t.Fatal(err)
	}
	bad = cfg
	bad.Model = q
	bad.Quantize = bitpack.W8
	if _, err := New(bad); err == nil {
		t.Error("accepted width mismatch with pre-quantized model")
	}
	bad.Quantize = bitpack.W4 // matching width is fine
	if _, err := New(bad); err != nil {
		t.Errorf("rejected matching pre-quantized model: %v", err)
	}
}

// TestQuantizeRejectedConfigLeavesModelUntouched: a config rejected by
// validation must not have mutated the caller's COWModel (no derive hook
// installed, no version bump).
func TestQuantizeRejectedConfigLeavesModelUntouched(t *testing.T) {
	cfg, _ := buildModel(t)
	cow := core.NewCOWModel(cfg.Model.(*core.Model))
	v0 := cow.Version()
	bad := cfg
	bad.Model = cow
	bad.Quantize = bitpack.W8
	bad.Normalizer = nil
	if _, err := New(bad); err == nil {
		t.Fatal("accepted nil normalizer")
	}
	if _, err := NewSharded(bad); err == nil {
		t.Fatal("sharded accepted nil normalizer")
	}
	if cow.Version() != v0 {
		t.Fatalf("rejected config bumped the model version: %d -> %d", v0, cow.Version())
	}
	if cow.Snapshot().Derived() != nil {
		t.Fatal("rejected config installed a derive hook")
	}
}

// TestQuantizeWidthConflictAcrossEngines: two engines at different widths
// over one COWModel must fail loudly at build, not silently change what
// the first engine scores against.
func TestQuantizeWidthConflictAcrossEngines(t *testing.T) {
	cfg, _ := buildModel(t)
	cow := core.NewCOWModel(cfg.Model.(*core.Model))
	cfg.Model = cow
	cfg.Quantize = bitpack.W8
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	again := cfg // same width: several engines may share the model
	if _, err := New(again); err != nil {
		t.Errorf("same-width re-attach rejected: %v", err)
	}
	conflict := cfg
	conflict.Quantize = bitpack.W1
	if _, err := New(conflict); err == nil {
		t.Error("different-width attach on a serving COWModel accepted")
	}
}

// TestQuantizedCOWFeedbackRequantizes: with a COWModel behind Quantize,
// building the engine attaches the re-quantizing derive hook, and a hot
// reload mid-traffic republishes a re-packed class memory.
func TestQuantizedCOWFeedbackRequantizes(t *testing.T) {
	cfg, live := buildModel(t)
	m := cfg.Model.(*core.Model)
	cow := core.NewCOWModel(m)
	cfg.Model = cow
	cfg.Quantize = bitpack.W8
	eng := newEngine(t, cfg)
	v0 := cow.Version()
	q0, ok := cow.Snapshot().Derived().(*quantize.Model)
	if !ok {
		t.Fatal("engine build did not attach a quantized derive hook")
	}
	half := len(live.Packets) / 2
	for i := range live.Packets[:half] {
		eng.Feed(live.Packets[i])
	}
	if err := cow.ReplaceModel(perturbedCopy(m)); err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets[half:] {
		eng.Feed(live.Packets[half+i])
	}
	eng.Flush()
	if eng.Stats().Flows == 0 {
		t.Fatal("no flows classified")
	}
	if cow.Version() != v0+1 {
		t.Fatalf("version %d after one reload from %d", cow.Version(), v0)
	}
	q, ok := cow.Snapshot().Derived().(*quantize.Model)
	if !ok || q.Width != bitpack.W8 {
		t.Fatalf("published snapshot lacks an 8-bit quantized memory: %T", cow.Snapshot().Derived())
	}
	if q == q0 {
		t.Fatal("the reload did not re-quantize the class memory")
	}
}

// TestQuantizedOnFlowAllocFree pins the acceptance criterion: steady-state
// quantized serving allocates zero per flow, in both synchronous and
// micro-batch mode, at the narrowest and a wide width.
func TestQuantizedOnFlowAllocFree(t *testing.T) { checkAllocFree(t, bitpack.W1, bitpack.W8) }
