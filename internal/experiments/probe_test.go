package experiments

import (
	"testing"
	"time"

	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/baseline/svm"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
)

// TestProbeOrdering is a slow calibration check (see calibFull):
// CYBERHD_CALIB=1 go test ./internal/experiments/ -run Probe -v logs
// whether the synthetic datasets produce the paper's qualitative ordering
// across all five models.
func TestProbeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is slow; skipped in -short")
	}
	for _, name := range datasets.PaperDatasets() {
		n := 8000
		if name == "cic-ids-2017" || name == "cic-ids-2018" {
			n = 3000
		}
		d, ok := datasets.ByName(name, calibSamples(n), 42)
		if !ok {
			t.Fatalf("unknown dataset %q", name)
		}
		train, test, _ := d.NormalizedSplit(0.75, 1)
		f := train.NumFeatures()
		k := train.NumClasses()

		t0 := time.Now()
		hd05, err := core.Train(encoder.NewRBF(f, 512, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 15, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tHD05 := time.Since(t0)
		t0 = time.Now()
		hd4k, err := core.Train(encoder.NewRBF(f, 4096, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 15, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tHD4k := time.Since(t0)
		t0 = time.Now()
		cyber, err := core.Train(encoder.NewRBF(f, 512, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 8, RegenCycles: 7, RegenRate: 0.2, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tCyber := time.Since(t0)
		t0 = time.Now()
		dnn, err := mlp.Train(train.X, train.Y, k, mlp.Options{Epochs: 15, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tDNN := time.Since(t0)
		t0 = time.Now()
		lin, err := svm.TrainLinear(train.X, train.Y, k, svm.LinearOptions{Epochs: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tSVM := time.Since(t0)
		svmAcc, _ := measure(lin, test)

		t.Logf("%-14s n=%d f=%d k=%d | hd05=%.3f hd4k=%.3f cyber=%.3f dnn=%.3f svm=%.3f | t: %.1fs %.1fs %.1fs %.1fs %.1fs",
			name, train.Len(), f, k,
			hd05.Evaluate(test.X, test.Y), hd4k.Evaluate(test.X, test.Y), cyber.Evaluate(test.X, test.Y),
			dnn.Evaluate(test.X, test.Y), svmAcc,
			tHD05.Seconds(), tHD4k.Seconds(), tCyber.Seconds(), tDNN.Seconds(), tSVM.Seconds())
	}
}
