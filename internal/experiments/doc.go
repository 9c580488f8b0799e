// Package experiments regenerates every table and figure of the paper's
// evaluation. See runner.go for the shared model-comparison machinery and
// figures.go (Figs 3 and 4), table1.go, fig5.go and ablation.go for the
// per-experiment drivers used by cmd/experiments and the repository-root
// benchmarks.
package experiments
