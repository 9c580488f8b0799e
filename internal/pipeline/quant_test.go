package pipeline

import (
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
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
	bad.Model = staticModel{}
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
// engine Feedback must reach the float working copy and republish a
// re-packed class memory.
func TestQuantizedCOWFeedbackRequantizes(t *testing.T) {
	cfg, live := buildModel(t)
	cow := core.NewCOWModel(cfg.Model.(*core.Model))
	cfg.Model = cow
	cfg.Quantize = bitpack.W8
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v0 := cow.Version()
	if _, ok := cow.Snapshot().Derived().(*quantize.Model); !ok {
		t.Fatal("engine build did not attach a quantized derive hook")
	}
	var flows []*netflow.Flow
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) { flows = append(flows, f) })
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
		a.Add(&live.Packets[i])
	}
	eng.Flush()
	a.Flush()
	if eng.Stats().Flows == 0 {
		t.Fatal("no flows classified")
	}
	// Mislabel flows until one changes the model.
	changed := false
	for _, f := range flows {
		label, ok := live.Labels[f.Key]
		if !ok {
			continue
		}
		if eng.Feedback(f, (int(label)+1)%len(cfg.ClassNames)) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no feedback changed the model")
	}
	if cow.Version() <= v0 {
		t.Fatal("feedback did not publish a new version")
	}
	q, ok := cow.Snapshot().Derived().(*quantize.Model)
	if !ok || q.Width != bitpack.W8 {
		t.Fatalf("published snapshot lacks an 8-bit quantized memory: %T", cow.Snapshot().Derived())
	}
}

// TestQuantizedOnFlowAllocFree pins the acceptance criterion: steady-state
// quantized streaming classification allocates zero per flow, in both
// synchronous and micro-batch mode, at the narrowest and a wide width.
func TestQuantizedOnFlowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, live := buildModel(t)
	var flows []*netflow.Flow
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) { flows = append(flows, f) })
	for i := range live.Packets {
		a.Add(&live.Packets[i])
	}
	a.Flush()
	if len(flows) < 10 {
		t.Fatalf("only %d flows harvested", len(flows))
	}
	for _, w := range []bitpack.Width{bitpack.W1, bitpack.W8} {
		for name, batch := range map[string]int{"sync": 0, "batch": 8} {
			cfg := cfg
			cfg.Quantize = w
			cfg.BatchSize = batch
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range flows { // warm pools and pending buffers
				eng.onFlow(f)
			}
			eng.flushBatch()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				eng.onFlow(flows[i%len(flows)])
				i++
			})
			eng.flushBatch()
			if allocs != 0 {
				t.Errorf("w=%d %s mode: onFlow allocates %.2f objects per flow", w, name, allocs)
			}
		}
	}
}
