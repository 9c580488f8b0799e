package experiments

import (
	"fmt"
	"io"
	"slices"

	"cyberhd/internal/datasets"
)

// Fig3 runs the model comparison over the given datasets (nil = all four
// paper datasets) and returns results grouped per dataset. The same
// results render as the accuracy comparison (WriteFig3, paper Fig. 3) and
// the efficiency comparison (WriteFig4, paper Fig. 4).
func Fig3(names []string, cfg Config) (map[string][]Result, error) {
	if names == nil {
		names = datasets.PaperDatasets()
	}
	out := make(map[string][]Result, len(names))
	for _, name := range names {
		res, err := RunComparison(name, cfg)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, nil
}

// WriteFig3 renders the accuracy table in the layout of the paper's bar
// chart: one row per model, one column per dataset, plus the paper's
// summary deltas.
func WriteFig3(w io.Writer, results map[string][]Result) {
	writeTable(w, "Fig 3 — Accuracy (%)", results, orderedDatasets(results), " %14.2f", func(r Result) float64 { return 100 * r.Accuracy })
	// Paper-style aggregate claims.
	cyber := meanAcc(results, "CyberHD")
	fmt.Fprintf(w, "\nmean CyberHD − SVM:             %+.2f pp (paper: +1.63)\n", 100*(cyber-meanAcc(results, "SVM")))
	fmt.Fprintf(w, "mean CyberHD − BaselineHD-0.5k: %+.2f pp (paper: +4.28)\n", 100*(cyber-meanAcc(results, "BaselineHD-0.5k")))
	fmt.Fprintf(w, "mean CyberHD − BaselineHD-4k:   %+.2f pp (paper: comparable)\n", 100*(cyber-meanAcc(results, "BaselineHD-4k")))
	fmt.Fprintf(w, "mean CyberHD − DNN:             %+.2f pp (paper: comparable)\n", 100*(cyber-meanAcc(results, "DNN")))
}

// WriteFig4 renders training-time and inference-latency tables (the
// paper's two log-scale bar charts) plus the headline speedups.
func WriteFig4(w io.Writer, results map[string][]Result) {
	names := orderedDatasets(results)
	writeTable(w, "Fig 4a — Training time (s)", results, names, " %14.3f", trainSeconds)
	writeTable(w, "\nFig 4b — Inference latency per query (µs)", results, names, " %14.2f",
		func(r Result) float64 { return inferPerQuery(r) / 1e3 })
	fmt.Fprintf(w, "\nmean DNN/CyberHD train speedup:        %.2f× (paper: 2.47×)\n",
		meanRatio(results, "DNN", "CyberHD", trainSeconds))
	fmt.Fprintf(w, "mean BaselineHD-4k/CyberHD train:      %.2f× (paper: 1.85×)\n",
		meanRatio(results, "BaselineHD-4k", "CyberHD", trainSeconds))
	fmt.Fprintf(w, "mean BaselineHD-4k/CyberHD inference:  %.2f× (paper: 15.29×)\n",
		meanRatio(results, "BaselineHD-4k", "CyberHD", inferPerQuery))
}

// writeTable renders one figure as a table: a row per model, a column per
// dataset in names, each cell format applied to cell of that result.
func writeTable(w io.Writer, title string, results map[string][]Result, names []string, format string, cell func(Result) float64) {
	fmt.Fprintf(w, "%s\n%-16s", title, "model")
	for _, d := range names {
		fmt.Fprintf(w, " %14s", d)
	}
	fmt.Fprintln(w)
	for _, model := range ModelNames {
		fmt.Fprintf(w, "%-16s", model)
		for _, d := range names {
			fmt.Fprintf(w, format, cell(find(results[d], model)))
		}
		fmt.Fprintln(w)
	}
}

func trainSeconds(r Result) float64  { return r.TrainTime.Seconds() }
func inferPerQuery(r Result) float64 { return float64(r.PerQuery().Nanoseconds()) }

func orderedDatasets(results map[string][]Result) []string {
	var names []string
	for _, d := range datasets.PaperDatasets() {
		if _, ok := results[d]; ok {
			names = append(names, d)
		}
	}
	for d := range results {
		if !slices.Contains(names, d) {
			names = append(names, d)
		}
	}
	return names
}

// find returns the result for model within rs (zero Result if absent).
func find(rs []Result, model string) Result {
	for _, r := range rs {
		if r.Model == model {
			return r
		}
	}
	return Result{Model: model}
}

func meanAcc(results map[string][]Result, model string) float64 {
	var sum float64
	n := 0
	for _, rs := range results {
		sum += find(rs, model).Accuracy
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanRatio(results map[string][]Result, num, den string, f func(Result) float64) float64 {
	var sum float64
	n := 0
	for _, rs := range results {
		d := f(find(rs, den))
		if d == 0 {
			continue
		}
		sum += f(find(rs, num)) / d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
