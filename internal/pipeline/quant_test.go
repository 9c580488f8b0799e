package pipeline

import (
	"strings"
	"testing"

	"cyberhd/internal/bitpack"
)

// TestQuantizeConfigValidation: engines serve float32 and W1 only. New
// and NewSharded refuse a W8 *quantize.Model with CheckWidth's message
// (the root TestContractMatrix's refusal cells pin W2–W32 on every
// engine), and serve a W1 *quantize.Model.
func TestQuantizeConfigValidation(t *testing.T) {
	cfg, _ := buildModel(t)
	want := CheckWidth(bitpack.W8).Error()
	wide := atWidth(t, cfg, bitpack.W8)
	if _, err := New(wide); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("W8 model: New = %v, want %q", err, want)
	}
	if _, err := NewSharded(wide); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("W8 model: NewSharded = %v, want %q", err, want)
	}
	if _, err := New(atWidth(t, cfg, bitpack.W1)); err != nil {
		t.Errorf("W1 model rejected: %v", err)
	}
}

// TestQuantizedOnFlowAllocFree pins the acceptance criterion: steady-state
// W1 serving allocates zero per flow, in both synchronous and micro-batch
// mode.
func TestQuantizedOnFlowAllocFree(t *testing.T) { checkAllocFree(t, bitpack.W1) }
