package pipeline

import (
	"strings"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/quantize"
)

// TestQuantizeConfigValidation: engines serve float32 and W1 only. New
// and NewSharded refuse a W8 *quantize.Model at Quantize 0 with
// CheckWidth's message (the root TestContractMatrix's refusal cells pin
// Quantize W2–W32 on every engine), and a width that is none, or a model
// type that cannot be packed; a W1 *quantize.Model serves at 0 and at W1.
func TestQuantizeConfigValidation(t *testing.T) {
	cfg, _ := buildModel(t)
	want := CheckWidth(bitpack.W8).Error()
	w8, err := quantize.FromCore(cfg.Model.(*core.Model), bitpack.W8)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Model = w8
	if _, err := New(wide); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("W8 model: New = %v, want %q", err, want)
	}
	if _, err := NewSharded(wide); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("W8 model: NewSharded = %v, want %q", err, want)
	}
	bad := cfg
	bad.Quantize = bitpack.Width(3)
	if _, err := New(bad); err == nil {
		t.Error("accepted invalid width")
	}
	bad = cfg
	bad.Model = fakeModel{}
	bad.Quantize = bitpack.W1
	if _, err := New(bad); err == nil {
		t.Error("accepted unquantizable model type")
	}
	w1, err := quantize.FromCore(cfg.Model.(*core.Model), bitpack.W1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []bitpack.Width{0, bitpack.W1} {
		ok := cfg
		ok.Model, ok.Quantize = w1, w
		if _, err := New(ok); err != nil {
			t.Errorf("Quantize %d rejected a W1 model: %v", w, err)
		}
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
	bad.Quantize = bitpack.W1
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

// TestQuantizedCOWFeedbackRequantizes: with a COWModel behind Quantize,
// building the engine attaches the re-quantizing derive hook, and a hot
// reload mid-traffic republishes a re-packed class memory.
func TestQuantizedCOWFeedbackRequantizes(t *testing.T) {
	cfg, live := buildModel(t)
	m := cfg.Model.(*core.Model)
	cow := core.NewCOWModel(m)
	cfg.Model = cow
	cfg.Quantize = bitpack.W1
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
	if !ok || q.Width != bitpack.W1 {
		t.Fatalf("published snapshot lacks a 1-bit quantized memory: %T", cow.Snapshot().Derived())
	}
	if q == q0 {
		t.Fatal("the reload did not re-quantize the class memory")
	}
}

// TestQuantizedOnFlowAllocFree pins the acceptance criterion: steady-state
// W1 serving allocates zero per flow, in both synchronous and micro-batch
// mode.
func TestQuantizedOnFlowAllocFree(t *testing.T) { checkAllocFree(t, bitpack.W1) }
