// Command genfixture regenerates the v1 persistence golden fixture
// (internal/core/testdata/model_v1.snapshot) and prints the golden
// predictions TestLoadSnapshotV1Golden hardcodes. Run it from
// internal/core only when the v1 format itself is intentionally revised:
//
//	go run ./testdata/genfixture
//
// Training is fully deterministic (fixed seeds, same mixture as the
// core test helper), so re-running on an unchanged tree reproduces the
// checked-in bytes.
package main

import (
	"fmt"
	"os"

	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// blobs mirrors the core test helper of the same name — the fixture
// must come from the exact training problem the golden test probes.
func blobs(n, features, k int, noise float64, meanSeed, noiseSeed uint64) (*hdc.Matrix, []int) {
	mr := rng.New(meanSeed)
	means := hdc.NewMatrix(k, features)
	mr.FillNorm(means.Data, 0, 1)
	r := rng.New(noiseSeed)
	x := hdc.NewMatrix(n, features)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		y[i] = c
		row := x.Row(i)
		for j := 0; j < features; j++ {
			row[j] = means.At(c, j) + float32(noise*r.Norm())
		}
	}
	return x, y
}

func main() {
	x, y := blobs(600, 8, 3, 0.3, 300, 1)
	m, err := core.Train(encoder.NewRBF(8, 64, 0, 9), x, y,
		core.Options{Classes: 3, Epochs: 3, RegenCycles: 2, RegenRate: 0.1, Seed: 5})
	if err != nil {
		fmt.Fprintln(os.Stderr, "genfixture:", err)
		os.Exit(1)
	}
	f, err := os.Create("testdata/model_v1.snapshot")
	if err == nil {
		if err = m.Save(f); err == nil {
			err = f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genfixture:", err)
		os.Exit(1)
	}
	probe, _ := blobs(16, 8, 3, 0.3, 300, 21)
	fmt.Print("var goldenV1Predictions = []int{")
	for i := 0; i < probe.Rows; i++ {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(m.Predict(probe.Row(i)))
	}
	fmt.Println("}")
}
