// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # everything at default scale
//	experiments -exp fig3 -samples 20000 # accuracy comparison, bigger run
//	experiments -exp table1 -measure     # measure effective dims (slow)
//	experiments -exp fig5 -trials 10
//	experiments -exp ablation            # drop strategy and regeneration rate
package main

import (
	"flag"
	"fmt"
	"os"

	"cyberhd/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3, fig4, table1, fig5, ablation, scale, all")
	samples := flag.Int("samples", 8000, "samples per tabular dataset (sessions scale for CIC sets)")
	seed := flag.Uint64("seed", 42, "master random seed")
	measure := flag.Bool("measure", false, "table1: measure effective dims by iso-accuracy search instead of paper values")
	trials := flag.Int("trials", 5, "fig5: fault-injection trials per cell")
	flag.Parse()

	cfg := experiments.Config{Samples: *samples, Seed: *seed}
	run := func(name string, f func() error) {
		if *exp != name && !(*exp == "all" && name != "scale") {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	// fig3 and fig4 share trained models: when both requested, run once.
	if *exp == "all" || *exp == "fig3" || *exp == "fig4" {
		results, err := experiments.Fig3(nil, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig3/4: %v\n", err)
			os.Exit(1)
		}
		if *exp != "fig4" {
			experiments.WriteFig3(os.Stdout, results)
			fmt.Println()
		}
		if *exp != "fig3" {
			experiments.WriteFig4(os.Stdout, results)
			fmt.Println()
		}
	}

	run("table1", func() error {
		rows, err := experiments.Table1(*measure, cfg)
		if err != nil {
			return err
		}
		experiments.WriteTable1(os.Stdout, rows)
		return nil
	})

	run("fig5", func() error {
		rows, err := experiments.Fig5(cfg, *trials)
		if err != nil {
			return err
		}
		experiments.WriteFig5(os.Stdout, rows)
		return nil
	})

	run("ablation", func() error {
		drop, err := experiments.AblationDropStrategy(cfg)
		if err != nil {
			return err
		}
		experiments.WriteAblation(os.Stdout, "dimension-drop strategy", drop)
		rates, err := experiments.AblationRegenRate(cfg)
		if err != nil {
			return err
		}
		experiments.WriteAblation(os.Stdout, "regeneration rate R", rates)
		return nil
	})

	run("scale", func() error {
		points, err := experiments.ScaleSweep(nil, cfg)
		if err != nil {
			return err
		}
		experiments.WriteScaleSweep(os.Stdout, points)
		return nil
	})
}
