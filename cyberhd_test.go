package cyberhd

import (
	"bytes"
	"encoding/gob"
	"os"
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
		if q.Dim() != det.Model.Dim() {
			t.Errorf("w=%d: dim %d", w, q.Dim())
		}
	}
	if _, err := Quantize(det.Model, Width(3)); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestDetectorEngineOnLiveTraffic(t *testing.T) {
	det := serveDetector(t)
	alerts := 0
	cfg := det.EngineConfig()
	cfg.OnAlert = func(Alert) { alerts++ }
	driveByHand(t, cfg, GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77}).Packets)
	if alerts == 0 {
		t.Error("no alerts on attack traffic")
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

func TestDetectorSaveLoad(t *testing.T) {
	ds := NSLKDD(1500, 8)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	back, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TestAccuracy != det.TestAccuracy {
		t.Errorf("TestAccuracy changed: %v -> %v", det.TestAccuracy, back.TestAccuracy)
	}
	for i := 0; i < 200; i++ {
		if det.Classify(ds.X.Row(i)) != back.Classify(ds.X.Row(i)) {
			t.Fatalf("prediction diverged at row %d", i)
		}
	}

	// An envelope that disagrees with the model inside it is refused at
	// load: each of these used to come back as a detector whose Classify
	// panicked (ClassNames[pred], Normalizer.ApplyVec).
	var good detectorState
	if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&good); err != nil {
		t.Fatal(err)
	}
	for name, bend := range map[string]func(*detectorState){
		"class names short of the model's classes": func(s *detectorState) { s.ClassNames = s.ClassNames[:2] },
		"mean and inv-std of different lengths":    func(s *detectorState) { s.InvStd = s.InvStd[:len(s.InvStd)-1] },
		"normalizer narrower than the encoder": func(s *detectorState) {
			s.Mean, s.InvStd = s.Mean[:10], s.InvStd[:10]
		},
	} {
		bent := good
		bend(&bent)
		var file bytes.Buffer
		if err := gob.NewEncoder(&file).Encode(&bent); err != nil {
			t.Fatal(err)
		}
		if d, err := LoadDetector(&file); err == nil {
			t.Errorf("%s: loaded", name)
			for i := 0; i < 50; i++ {
				d.Classify(ds.X.Row(i)) // ... and panics here
			}
		}
	}

	// A detector file written by the release before v2 became the only
	// model format (a v1 body inside the envelope; NSL-KDD 600 samples
	// seed 8, Dim 64, 3 epochs, 2 cycles) loads through the same path and
	// classifies like the same detector trained now.
	old, err := os.Open("testdata/detector_v1model.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	oldDet, err := LoadDetector(old)
	if err != nil {
		t.Fatal(err)
	}
	smallCfg := DefaultConfig()
	smallCfg.Dim, smallCfg.Epochs, smallCfg.RegenCycles = 64, 3, 2
	small := NSLKDD(600, 8)
	fresh, err := TrainDetector(small, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if oldDet.TestAccuracy != fresh.TestAccuracy || oldDet.TestAccuracy != 0.7417218543046358 {
		t.Errorf("TestAccuracy: file %v, retrained %v, recorded when written 0.7417218543046358",
			oldDet.TestAccuracy, fresh.TestAccuracy)
	}
	for i := 0; i < small.Len(); i++ {
		if got, want := oldDet.Classify(small.X.Row(i)), fresh.Classify(small.X.Row(i)); got != want {
			t.Fatalf("row %d: parent-written detector says %q, retrained %q", i, got, want)
		}
	}

	// Engines require flow-feature detectors: an NSL-KDD (41-feature)
	// detector must be rejected up front, and a reloaded CIC detector (the
	// serving tests' copy, loaded from its saved bytes) must drive an
	// engine.
	if _, err := pipeline.New(back.EngineConfig()); err == nil {
		t.Fatal("engine accepted a non-flow-feature detector")
	}
	if st := driveByHand(t, serveDetector(t).EngineConfig(), GenerateTraffic(TrafficConfig{Sessions: 50, Seed: 5}).Packets); st.Flows == 0 {
		t.Fatal("a reloaded CIC detector's engine classified no flows")
	}
}
