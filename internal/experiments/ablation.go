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
	train, test, err := LoadSplit("nsl-kdd", cfg)
	if err != nil {
		return nil, err
	}
	base := core.Options{
		Classes: train.NumClasses(), Epochs: CyberEpochs,
		RegenCycles: RegenCycles, RegenRate: RegenRate,
		LearningRate: HDLearningRate, Seed: cfg.Seed + 1,
	}
	var out []AblationResult

	variance := base
	m, err := core.Train(encoder.NewRBF(train.NumFeatures(), PhysDim, 0, cfg.Seed), train.X, train.Y, variance)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationResult{"variance-drop (CyberHD)", m.Evaluate(test.X, test.Y), m.EffectiveDim})

	random := base
	dropRng := rng.New(cfg.Seed + 7)
	random.DropSelector = func(m *core.Model, drop int) []int {
		return dropRng.Perm(m.Dim())[:drop]
	}
	m, err = core.Train(encoder.NewRBF(train.NumFeatures(), PhysDim, 0, cfg.Seed), train.X, train.Y, random)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationResult{"random-drop", m.Evaluate(test.X, test.Y), m.EffectiveDim})

	static := base
	static.RegenCycles = 0
	static.Epochs = CyberEpochs * (RegenCycles + 1) // same total passes
	m, err = core.Train(encoder.NewRBF(train.NumFeatures(), PhysDim, 0, cfg.Seed), train.X, train.Y, static)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationResult{"no-regen (static)", m.Evaluate(test.X, test.Y), m.EffectiveDim})
	return out, nil
}

// AblationRegenRate sweeps the regeneration rate R, the paper's main
// hyperparameter, at fixed cycle count.
func AblationRegenRate(cfg Config) ([]AblationResult, error) {
	cfg.defaults()
	train, test, err := LoadSplit("nsl-kdd", cfg)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		opts := core.Options{
			Classes: train.NumClasses(), Epochs: CyberEpochs,
			RegenCycles: RegenCycles, RegenRate: rate,
			LearningRate: HDLearningRate, Seed: cfg.Seed + 1,
		}
		m, err := core.Train(encoder.NewRBF(train.NumFeatures(), PhysDim, 0, cfg.Seed), train.X, train.Y, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			fmt.Sprintf("R=%.0f%%", 100*rate), m.Evaluate(test.X, test.Y), m.EffectiveDim,
		})
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
