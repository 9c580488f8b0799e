package core

import (
	"bytes"
	"os"
	"testing"
)

// roundTrip writes m the one way models are written and reads it back the
// one way they are read.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, NewCOWModel(m)); err != nil {
		t.Fatal(err)
	}
	back, _, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSaveLoadRoundTripAllEncoders(t *testing.T) {
	x, _ := blobs(200, 8, 3, 0.3, 300, 2)
	m, _, _ := toyModel(t, 3, 64, 9)
	back := roundTrip(t, m)
	if !back.Class.Equal(m.Class) {
		t.Fatal("class matrix changed")
	}
	if back.EffectiveDim != m.EffectiveDim {
		t.Fatalf("effective dim %d != %d", back.EffectiveDim, m.EffectiveDim)
	}
	if len(back.History) != len(m.History) {
		t.Fatal("history length changed")
	}
	for i := 0; i < x.Rows; i++ {
		if m.Predict(x.Row(i)) != back.Predict(x.Row(i)) {
			t.Fatalf("prediction diverged at row %d", i)
		}
	}
}

func TestLoadedModelContinuesTraining(t *testing.T) {
	m, _, _ := toyModel(t, 3, 64, 9)
	// Regeneration draws must continue the saved stream: regenerating the
	// same dims on original and loaded encoders yields identical bases —
	// from a v2 round trip and from the frozen v1 file of the same model.
	dims := []int{1, 5, 9}
	m.Enc.Regenerate(dims)
	m2, _, _ := toyModel(t, 3, 64, 9)
	fixture, err := os.Open("testdata/model_v1.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer fixture.Close()
	v1, err := loadV1(fixture)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float32, 8)
	a := make([]float32, 64)
	b := make([]float32, 64)
	m.Enc.Encode(probe, a)
	for name, loaded := range map[string]*Model{"v2": roundTrip(t, m2), "v1 fixture": v1} {
		loaded.Enc.Regenerate(dims)
		loaded.Enc.Encode(probe, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: regeneration stream diverged after reload at dim %d", name, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := loadV1(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}
