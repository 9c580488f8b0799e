package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cyberhd"
	"cyberhd/internal/bitpack"
	"cyberhd/internal/datasets"
	"cyberhd/internal/metrics"
	"cyberhd/internal/quantize"
	"cyberhd/internal/traffic"
)

// TestServedW1Diagnosis guards ROADMAP item 1: the 1-bit model a detector
// serves (quantize.FromCore of the regenerated float model) once scored
// 0.02–0.69 on a scan storm while the float model scored 0.999, because
// sign() gave the columns the last regeneration cycle redrew full ±1
// weight. FromCore now gives those columns one common sign at W1. One
// table per detector seed puts the served models beside the float model
// on the benchmark's serve_short traffic mix, labelled through the
// dataset path, and the test asserts float ≥ 0.95 and W1 as served ≥ 0.95
// on every seed.
func TestServedW1Diagnosis(t *testing.T) {
	if testing.Short() {
		t.Skip("trains one detector per seed")
	}
	storm := datasets.FromStream("scan-storm", traffic.Generate(traffic.Config{
		Sessions: 3000, Duration: 300, Seed: 11,
		Mix: map[traffic.Label]float64{traffic.PortScan: 0.7, traffic.BruteForce: 0.1, traffic.Benign: 0.2},
	}), traffic.LabelNames(), func(l traffic.Label) int { return int(l) })
	classes := []traffic.Label{traffic.Benign, traffic.PortScan, traffic.BruteForce}

	var table strings.Builder
	for seed := uint64(1); seed <= 3; seed++ {
		// The detector the benchmark serves: CICIDS2017(1500), DefaultConfig.
		trainSet := datasets.CICIDS2017(1500, 100+seed)
		cfg := cyberhd.DefaultConfig()
		cfg.Seed = seed
		det, err := cyberhd.TrainDetector(trainSet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := storm.X.Clone()
		for i := 0; i < x.Rows; i++ {
			det.Normalizer.ApplyVec(x.Row(i))
		}

		served := func(w bitpack.Width) evaluator {
			q, err := quantize.FromCore(det.Model, w)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		columns := []struct {
			name string
			m    evaluator
		}{
			{"float", det.Model},
			{"W1 served", served(bitpack.W1)},
		}

		// rows[0] is accuracy, rows[1+k] the recall of classes[k].
		rows := make([][]float64, 1+len(classes))
		for _, col := range columns {
			conf := metrics.NewConfusion(storm.ClassNames)
			conf.AddAll(storm.Y, col.m.PredictBatch(x))
			rows[0] = append(rows[0], conf.Accuracy())
			report := conf.Report()
			for k, c := range classes {
				rows[1+k] = append(rows[1+k], report[c].Recall)
			}
		}
		fmt.Fprintf(&table, "seed %d (%d flows)   ", seed, storm.Len())
		for _, col := range columns {
			fmt.Fprintf(&table, " %14s", col.name)
		}
		for r, row := range rows {
			name := "accuracy"
			if r > 0 {
				name = "recall " + classes[r-1].String()
			}
			fmt.Fprintf(&table, "\n%-20s", name)
			for _, v := range row {
				fmt.Fprintf(&table, " %14.4f", v)
			}
		}
		table.WriteString("\n\n")

		if float, w1 := rows[0][0], rows[0][1]; float < 0.95 || w1 < 0.95 {
			t.Errorf("seed %d: float %.4f, W1 as served %.4f (want both >= 0.95)", seed, float, w1)
		}
	}
	t.Logf("served-model diagnosis on the scan storm:\n%s", table.String())
}
