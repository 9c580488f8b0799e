package experiments

import (
	"strings"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
)

// smallCfg keeps unit-test runtime reasonable; the full-scale runs happen
// in cmd/experiments and the repository benchmarks.
var smallCfg = Config{Samples: 1200, Seed: 11}

// nslFig3 is Fig3 over nsl-kdd at smallCfg — one RunComparison — computed
// once per test binary for the tests that only read it.
var nslFig3 = sync.OnceValues(func() (map[string][]Result, error) {
	return Fig3([]string{"nsl-kdd"}, smallCfg)
})

func TestRunComparisonProducesAllModels(t *testing.T) {
	results, err := nslFig3()
	if err != nil {
		t.Fatal(err)
	}
	res := results["nsl-kdd"]
	if len(res) != len(ModelNames) {
		t.Fatalf("got %d results", len(res))
	}
	for i, model := range ModelNames {
		r := res[i]
		if r.Model != model {
			t.Errorf("result %d is %q, want %q", i, r.Model, model)
		}
		if r.Accuracy < 0.3 || r.Accuracy > 1 {
			t.Errorf("%s accuracy %v implausible", model, r.Accuracy)
		}
		if r.TrainTime <= 0 || r.InferTime <= 0 || r.TestSamples == 0 {
			t.Errorf("%s has empty timings: %+v", model, r)
		}
		if r.PerQuery() <= 0 {
			t.Errorf("%s PerQuery = %v", model, r.PerQuery())
		}
	}
}

func TestRunComparisonUnknownDataset(t *testing.T) {
	if _, err := RunComparison("kdd99", smallCfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFig3Rendering(t *testing.T) {
	results, err := nslFig3()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteFig3(&b, results)
	out := b.String()
	for _, want := range append([]string{"Fig 3", "nsl-kdd"}, ModelNames...) {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Rendering(t *testing.T) {
	results, err := nslFig3()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteFig4(&b, results)
	out := b.String()
	for _, want := range []string{"Training time", "Inference latency", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q", want)
		}
	}
}

func TestTable1PaperDims(t *testing.T) {
	rows, err := Table1(false, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	var b strings.Builder
	WriteTable1(&b, rows)
	out := b.String()
	for _, want := range []string{"Table I", "Effective D", "CPU", "FPGA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestFig5ShapeAndMonotonicity(t *testing.T) {
	rows, err := Fig5(Config{Samples: 1500, Seed: 13}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig5ErrorRates) {
		t.Fatalf("got %d rows", len(rows))
	}
	last := rows[len(rows)-1] // 15% error rate
	// DNN must degrade much more than 1-bit CyberHD at high error rates.
	if last.DNNLoss < 2*last.HDLoss[bitpack.W1] {
		t.Errorf("DNN loss %.3f not >> 1-bit HD loss %.3f at 15%%",
			last.DNNLoss, last.HDLoss[bitpack.W1])
	}
	// 1-bit should be the most robust HDC precision (within noise).
	if last.HDLoss[bitpack.W1] > last.HDLoss[bitpack.W8]+0.02 {
		t.Errorf("1-bit loss %.3f above 8-bit loss %.3f", last.HDLoss[bitpack.W1], last.HDLoss[bitpack.W8])
	}
	var b strings.Builder
	WriteFig5(&b, rows)
	out := b.String()
	if !strings.Contains(out, "CyberHD 1bit") || !strings.Contains(out, "DNN") {
		t.Errorf("Fig5 output malformed:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	drop, err := AblationDropStrategy(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 3 {
		t.Fatalf("drop ablation rows = %d", len(drop))
	}
	if drop[0].EffectiveDim != drop[1].EffectiveDim {
		t.Errorf("variance and random drop should have equal D*: %d vs %d",
			drop[0].EffectiveDim, drop[1].EffectiveDim)
	}
	if drop[2].EffectiveDim != PhysDim {
		t.Errorf("static D* = %d, want %d", drop[2].EffectiveDim, PhysDim)
	}

	rates, err := AblationRegenRate(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 5 {
		t.Fatalf("rate ablation rows = %d", len(rates))
	}
	for i := 1; i < len(rates); i++ {
		if rates[i].EffectiveDim <= rates[i-1].EffectiveDim {
			t.Errorf("D* should grow with R: %+v", rates)
		}
	}

	var b strings.Builder
	WriteAblation(&b, "dimension-drop strategy", drop)
	out := b.String()
	if !strings.Contains(out, "variance-drop (CyberHD)") {
		t.Errorf("ablation output malformed:\n%s", out)
	}
}

func TestMeasureEffectiveDimsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("iso-accuracy search is slow")
	}
	dims, err := MeasureEffectiveDims(Config{Samples: 1500, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != len(bitpack.Widths) {
		t.Fatalf("got %d widths", len(dims))
	}
	// 1-bit must not need fewer dimensions than 32-bit.
	if dims[bitpack.W1] < dims[bitpack.W32] {
		t.Errorf("1-bit dims %d < 32-bit dims %d", dims[bitpack.W1], dims[bitpack.W32])
	}
}

func TestScaleSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel SVM sweep is slow")
	}
	points, err := ScaleSweep([]int{300, 600}, Config{Samples: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.CyberHDTrain <= 0 || p.KernelSVMTrain <= 0 {
			t.Fatalf("empty timings: %+v", p)
		}
	}
	// Kernel SVM training must grow superlinearly relative to CyberHD as
	// n doubles.
	svmGrowth := float64(points[1].KernelSVMTrain) / float64(points[0].KernelSVMTrain)
	hdGrowth := float64(points[1].CyberHDTrain) / float64(points[0].CyberHDTrain)
	if svmGrowth < hdGrowth {
		t.Logf("warning: svm growth %.2f not above hd growth %.2f at tiny scale", svmGrowth, hdGrowth)
	}
	var b strings.Builder
	WriteScaleSweep(&b, points)
	out := b.String()
	if !strings.Contains(out, "Scalability") {
		t.Errorf("scale output malformed:\n%s", out)
	}
}
