package experiments

import (
	"os"
	"testing"

	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/bitpack"
	"cyberhd/internal/faults"
	"cyberhd/internal/hdc"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
)

// calibFull reports whether the manual calibration harnesses run at the
// scale their logged numbers are read at: set CYBERHD_CALIB=1 and run one
// with -run and -v. Otherwise TestCalibDNNClamp, TestCalibBinaryHD and
// TestProbeOrdering run a smoke pass on a tenth of the samples, which
// only checks that every model they compare still trains and evaluates,
// and TestSweepHD skips.
func calibFull() bool { return os.Getenv("CYBERHD_CALIB") != "" }

// calibSamples scales a harness's sample count down to the smoke pass
// unless calibFull.
func calibSamples(n int) int {
	if calibFull() {
		return n
	}
	return n / 10
}

// TestCalibDNNClamp probes DNN fault sensitivity vs clamp factor (manual
// calibration tool; skipped in -short).
func TestCalibDNNClamp(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	cfg := Config{Samples: calibSamples(6000), Seed: 42}
	train, test, err := LoadSplit("nsl-kdd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, hidden := range [][]int{{256, 128}, {64, 32}} {
		dnn, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Hidden: hidden, Epochs: 15, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		clean := dnn.Evaluate(test.X, test.Y)
		for _, clampMul := range []float64{1, 2, 4, 8} {
			for _, rate := range []float64{0.01, 0.15} {
				var loss float64
				const trials = 3
				r := rng.New(7)
				for i := 0; i < trials; i++ {
					hurt := dnn.Clone()
					for _, ws := range hurt.Weights() {
						faults.InjectFloat32Bits(ws, rate, clampMul, r)
					}
					loss += (clean - hurt.Evaluate(test.X, test.Y)) / trials
				}
				t.Logf("hidden=%v clamp=%.0fx rate=%4.0f%% loss=%6.2fpp (clean %.3f)",
					hidden, clampMul, 100*rate, 100*loss, clean)
			}
		}
	}
}

// TestCalibBinaryHD probes 1-bit accuracy with and without common-mode
// projection (manual calibration tool).
func TestCalibBinaryHD(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	cfg := Config{Samples: calibSamples(6000), Seed: 42}
	train, test, err := LoadSplit("nsl-kdd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainBaselineHD(train, 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("float acc at 2048: %.4f", m.Evaluate(test.X, test.Y))
	for _, w := range []bitpack.Width{bitpack.W1, bitpack.W2, bitpack.W8, bitpack.W32} {
		q, err := quantize.FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("w=%2d plain quantize: %.4f", w, q.Evaluate(test.X, test.Y))
	}
	// Common-mode projection by hand: u = normalized column mean of rows.
	u := make([]float32, m.Class.Cols)
	for c := 0; c < m.Class.Cols; c++ {
		var s float64
		for rI := 0; rI < m.Class.Rows; rI++ {
			s += float64(m.Class.At(rI, c))
		}
		u[c] = float32(s / float64(m.Class.Rows))
	}
	hdc.Normalize(u)
	proj := m.Class.Clone()
	for rI := 0; rI < proj.Rows; rI++ {
		row := proj.Row(rI)
		d := hdc.Dot(row, u)
		hdc.Axpy(float32(-d), u, row)
	}
	// Evaluate: project queries too, quantize both at W1.
	qm := bitpack.QuantizeMatrix(proj.Data, proj.Rows, proj.Cols, bitpack.W1)
	correct := 0
	h := make([]float32, m.Enc.Dim())
	for i := 0; i < test.X.Rows; i++ {
		m.Enc.Encode(test.X.Row(i), h)
		d := hdc.Dot(h, u)
		hdc.Axpy(float32(-d), u, h)
		if qm.Classify(bitpack.Quantize(h, bitpack.W1)) == test.Y[i] {
			correct++
		}
	}
	t.Logf("w= 1 with common-mode projection: %.4f", float64(correct)/float64(test.X.Rows))
}
