package cyberhd

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
	ds := CICIDS2017(1200, 3)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	eng, err := det.NewEngine(0, func(Alert) { alerts++ })
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
	if alerts == 0 {
		t.Error("no alerts on attack traffic")
	}
}

// TestShardedEngineFacade runs the multi-core engine (WithShards) with a
// COW-wrapped model from the public API and checks its merged stats
// against a single engine over the same capture.
func TestShardedEngineFacade(t *testing.T) {
	ds := CICIDS2017(1200, 3)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	single, err := det.NewEngine(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		single.Feed(live.Packets[i])
	}
	single.Flush()
	want := single.Stats()

	cow := NewCOWModel(det.Model)
	got, err := det.Serve(context.Background(), NewSliceSource(live.Packets),
		WithModel(cow), WithShards(4), WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("sharded %+v != single %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("class %d: sharded %d != single %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if cow.Version() != 1 {
		t.Fatalf("classification-only run published %d versions, want 1", cow.Version())
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
	d := UNSWNB15(150, 5)
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
	// Engines require flow-feature detectors: an NSL-KDD (41-feature)
	// detector must be rejected up front, and a reloaded CIC detector must
	// drive an engine.
	if _, err := back.NewEngine(0, nil); err == nil {
		t.Fatal("engine accepted a non-flow-feature detector")
	}
	cic, err := TrainDetector(CICIDS2017(800, 9), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := cic.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	cicBack, err := LoadDetector(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cicBack.NewEngine(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 50, Seed: 5})
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
}
