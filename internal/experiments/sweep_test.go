package experiments

import (
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
)

// TestSweepHD is a manual calibration harness (see calibFull):
// CYBERHD_CALIB=1 go test ./internal/experiments/ -run TestSweepHD -v
func TestSweepHD(t *testing.T) {
	if !calibFull() {
		t.Skip("calibration sweep: set CYBERHD_CALIB=1 to run")
	}
	d := datasets.NSLKDD(8000, 42)
	train, test, _ := d.NormalizedSplit(0.75, 1)
	f, k := train.NumFeatures(), train.NumClasses()
	for _, epochs := range []int{5, 10, 20} {
		for _, lr := range []float64{0.02, 0.05, 0.1} {
			for _, gamma := range []float64{0.08, 0.156, 0.25} {
				m, err := core.Train(encoder.NewRBF(f, 512, gamma, 2), train.X, train.Y,
					core.Options{Classes: k, Epochs: epochs, RegenCycles: 7, RegenRate: 0.2, LearningRate: lr, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("epochs=%2d lr=%.2f gamma=%.3f acc=%.4f", epochs, lr, gamma, m.Evaluate(test.X, test.Y))
			}
		}
	}
}
