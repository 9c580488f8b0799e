// External test package: exercising the snapshot's DerivedWidth record
// requires quantize.AttachLive, and quantize imports core.
package core_test

import (
	"bytes"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/quantize"
)

// TestSnapshotRecordsDerivedWidth pins that a COWModel serving through a
// live quantized derivation saves its width into the snapshot — the
// record the control plane checks so a snapshot validated at one
// deployment width is refused by a plane serving another.
func TestSnapshotRecordsDerivedWidth(t *testing.T) {
	m, x, _ := core.ToyModel(t, 3, 64, 9)
	cow := core.NewCOWModel(m)
	quantize.AttachLive(cow)
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, cow); err != nil {
		t.Fatal(err)
	}
	back, info, err := core.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.DerivedWidth != 1 {
		t.Fatalf("snapshot recorded width %d, serving was 1-bit", info.DerivedWidth)
	}
	// The restored float model must re-derive the identical packed
	// artifact: attach and compare verdicts.
	quantize.AttachLive(back)
	for i := 0; i < x.Rows; i++ {
		if got, want := back.Predict(x.Row(i)), cow.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: restored packed model predicts %d, original %d", i, got, want)
		}
	}
}
