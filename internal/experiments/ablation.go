package experiments

import (
	"fmt"
	"io"

	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/rng"
)

// AblationResult is one ablation configuration's outcome.
type AblationResult struct {
	Name         string
	Accuracy     float64
	EffectiveDim int
}

// AblationDropStrategy compares the paper's variance-based dimension
// selection against random selection and no regeneration at an identical
// adaptive-pass budget, on the NSL-KDD reconstruction. The design claim
// under test: *which* dimensions regenerate matters, not merely that
// dimensions regenerate.
func AblationDropStrategy(cfg Config) ([]AblationResult, error) {
	cfg.defaults()
	dropRng := rng.New(cfg.Seed + 7)
	return ablate(cfg, []string{"variance-drop (CyberHD)", "random-drop", "no-regen (static)"}, func(i int, o *core.Options) {
		switch i {
		case 1:
			o.DropSelector = func(m *core.Model, drop int) []int { return dropRng.Perm(m.Dim())[:drop] }
		case 2:
			o.RegenCycles = 0
			o.Epochs = CyberEpochs * (RegenCycles + 1) // same total passes
		}
	})
}

// AblationRegenRate sweeps the regeneration rate R, the paper's main
// hyperparameter, at fixed cycle count.
func AblationRegenRate(cfg Config) ([]AblationResult, error) {
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	names := make([]string, len(rates))
	for i, rate := range rates {
		names[i] = fmt.Sprintf("R=%.0f%%", 100*rate)
	}
	return ablate(cfg, names, func(i int, o *core.Options) { o.RegenRate = rates[i] })
}

// ablate trains one CyberHD model per name on the NSL-KDD split, each from
// the calibrated options as set(i) changes them, and scores it.
func ablate(cfg Config, names []string, set func(i int, o *core.Options)) ([]AblationResult, error) {
	cfg.defaults()
	train, test, err := LoadSplit("nsl-kdd", cfg)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(names))
	for i, name := range names {
		o := core.Options{
			Classes: train.NumClasses(), Epochs: CyberEpochs,
			RegenCycles: RegenCycles, RegenRate: RegenRate,
			LearningRate: HDLearningRate, Seed: cfg.Seed + 1,
		}
		set(i, &o)
		m, err := core.Train(encoder.NewRBF(train.NumFeatures(), PhysDim, 0, cfg.Seed), train.X, train.Y, o)
		if err != nil {
			return nil, err
		}
		out[i] = AblationResult{name, m.Evaluate(test.X, test.Y), m.EffectiveDim}
	}
	return out, nil
}

// WriteAblation renders one ablation block.
func WriteAblation(w io.Writer, title string, rows []AblationResult) {
	fmt.Fprintf(w, "Ablation — %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s acc=%6.2f%%  D*=%d\n", r.Name, 100*r.Accuracy, r.EffectiveDim)
	}
}
