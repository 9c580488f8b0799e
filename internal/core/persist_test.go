package core

import (
	"bytes"
	"testing"

	"cyberhd/internal/encoder"
)

func trainSmall(t *testing.T, enc encoder.Encoder) (*Model, interface{}) {
	t.Helper()
	x, y := blobs(600, 8, 3, 0.3, 300, 1)
	m, err := Train(enc, x, y, Options{Classes: 3, Epochs: 3, RegenCycles: 2, RegenRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

func TestSaveLoadRoundTripAllEncoders(t *testing.T) {
	encs := map[string]encoder.Encoder{
		"rbf":     encoder.NewRBF(8, 64, 0, 9),
		"linear":  encoder.NewLinear(8, 64, 9),
		"idlevel": encoder.NewIDLevel(8, 64, 16, -4, 4, 9),
	}
	x, _ := blobs(200, 8, 3, 0.3, 300, 2)
	for name, enc := range encs {
		m, _ := trainSmall(t, enc)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !back.Class.Equal(m.Class) {
			t.Fatalf("%s: class matrix changed", name)
		}
		if back.EffectiveDim != m.EffectiveDim {
			t.Fatalf("%s: effective dim %d != %d", name, back.EffectiveDim, m.EffectiveDim)
		}
		if len(back.History) != len(m.History) {
			t.Fatalf("%s: history length changed", name)
		}
		for i := 0; i < x.Rows; i++ {
			if m.Predict(x.Row(i)) != back.Predict(x.Row(i)) {
				t.Fatalf("%s: prediction diverged at row %d", name, i)
			}
		}
	}
}

func TestLoadedModelContinuesTraining(t *testing.T) {
	m, _ := trainSmall(t, encoder.NewRBF(8, 64, 0, 9))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Online updates must work on a loaded model (norm cache rebuilt).
	x, y := blobs(50, 8, 3, 0.3, 300, 3)
	for i := 0; i < x.Rows; i++ {
		back.Update(x.Row(i), y[i])
	}
	// Regeneration draws must continue the saved stream: regenerating the
	// same dims on original and loaded encoders yields identical bases.
	dims := []int{1, 5, 9}
	m.Enc.Regenerate(dims)
	loaded2, err := Load(func() *bytes.Buffer {
		var b bytes.Buffer
		m2, _ := trainSmall(t, encoder.NewRBF(8, 64, 0, 9))
		m2.Save(&b)
		return &b
	}())
	if err != nil {
		t.Fatal(err)
	}
	loaded2.Enc.Regenerate(dims)
	probe := make([]float32, 8)
	a := make([]float32, 64)
	b := make([]float32, 64)
	m.Enc.Encode(probe, a)
	loaded2.Enc.Encode(probe, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("regeneration stream diverged after reload at dim %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}
