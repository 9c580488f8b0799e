package cyberhd

import (
	"math"
	"strings"
	"testing"

	"cyberhd/internal/pipeline"
)

func TestTrainDetectorQuickstart(t *testing.T) {
	ds := NSLKDD(3000, 42)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.TestAccuracy < 0.75 {
		t.Errorf("test accuracy = %v, want >= 0.75", det.TestAccuracy)
	}
	if det.EffectiveDim() <= 512 {
		t.Errorf("EffectiveDim = %d, want > physical 512", det.EffectiveDim())
	}
	class := det.Classify(ds.X.Row(0))
	found := false
	for _, c := range det.ClassNames {
		if c == class {
			found = true
		}
	}
	if !found {
		t.Errorf("Classify returned unknown class %q", class)
	}
	if s := det.String(); !strings.Contains(s, "cyberhd.Detector") {
		t.Errorf("String() = %q", s)
	}
	// Engines require flow-feature detectors: an NSL-KDD (41-feature)
	// detector is rejected up front.
	if _, err := pipeline.New(det.EngineConfig()); err == nil {
		t.Error("engine accepted a non-flow-feature detector")
	}
}

func TestTrainDetectorDefaultsApplied(t *testing.T) {
	ds := NSLKDD(1200, 1)
	det, err := TrainDetector(ds, Config{}) // all zero: defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if det.Model.Dim() != 512 {
		t.Errorf("default Dim = %d", det.Model.Dim())
	}
	// A NaN TrainFraction is out of range like 0, not a one-row split.
	nan, err := TrainDetector(ds, Config{TrainFraction: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if !nan.Model.Class.Equal(det.Model.Class) || nan.TestAccuracy != det.TestAccuracy {
		t.Errorf("TrainFraction NaN trained a different model (accuracy %v, want %v)", nan.TestAccuracy, det.TestAccuracy)
	}
}

func TestQuantizeFacade(t *testing.T) {
	ds := NSLKDD(1500, 2)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Width{W1, W8, W32} {
		q, err := Quantize(det.Model, w)
		if err != nil {
			t.Fatal(err)
		}
		if dim := q.Class.Rows[0].Dim; dim != det.Model.Dim() {
			t.Errorf("w=%d: dim %d", w, dim)
		}
	}
	if _, err := Quantize(det.Model, Width(3)); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestDatasetByNameFacade(t *testing.T) {
	for _, name := range []string{"nsl-kdd", "unsw-nb15"} {
		d, ok := DatasetByName(name, 200, 1)
		if !ok || d.Len() != 200 {
			t.Errorf("DatasetByName(%q) failed", name)
		}
	}
}

func TestCSVFacade(t *testing.T) {
	d, _ := DatasetByName("unsw-nb15", 150, 5)
	path := t.TempDir() + "/u.csv"
	if err := SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 150 {
		t.Fatalf("round trip lost rows: %d", back.Len())
	}
}

func TestLowLevelTrainFacade(t *testing.T) {
	ds := NSLKDD(800, 7)
	train, test, _ := ds.NormalizedSplit(0.8, 1)
	enc := NewRBFEncoder(train.NumFeatures(), 256, 0, 2)
	m, err := Train(enc, train.X, train.Y, TrainOptions{Classes: train.NumClasses(), Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(test.X, test.Y); acc < 0.5 {
		t.Errorf("low-level train accuracy = %v", acc)
	}
}
