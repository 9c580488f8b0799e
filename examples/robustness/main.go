// Robustness: the Fig 5 mechanism at example scale. Random bit flips are
// injected into a quantized CyberHD class memory and into a DNN's float32
// weights; HDC's holographic redundancy absorbs the damage, the DNN's
// positional float encoding does not.
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"log"

	"cyberhd"
	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/experiments"
	"cyberhd/internal/faults"
	"cyberhd/internal/rng"
)

func main() {
	ds := cyberhd.NSLKDD(8000, 42)
	train, test, _ := ds.NormalizedSplit(0.75, 1)

	// Each precision runs at its iso-accuracy dimensionality (Table I's
	// ratios at repo scale): 1-bit needs ~2.4x the dimensions of 8-bit.
	train1 := func(dim int) *cyberhd.Model {
		enc := cyberhd.NewRBFEncoder(train.NumFeatures(), dim, 0, 5)
		m, err := cyberhd.Train(enc, train.X, train.Y, cyberhd.TrainOptions{
			Classes: train.NumClasses(), Epochs: 15, LearningRate: 0.1, Seed: 6})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	m1 := train1(experiments.Fig5Dim(cyberhd.W1)) // 8.8k x (512/1200)
	m8 := train1(experiments.Fig5Dim(cyberhd.W8)) // 3.6k x (512/1200)
	dnn, err := mlp.Train(train.X, train.Y, train.NumClasses(), mlp.Options{Epochs: 15, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}

	q1, _ := cyberhd.Quantize(m1, cyberhd.W1)
	q8, _ := cyberhd.Quantize(m8, cyberhd.W8)
	clean1 := q1.Evaluate(test.X, test.Y)
	clean8 := q8.Evaluate(test.X, test.Y)
	cleanDNN := dnn.Evaluate(test.X, test.Y)
	fmt.Printf("clean accuracy: CyberHD-1bit %.3f, CyberHD-8bit %.3f, DNN %.3f\n\n",
		clean1, clean8, cleanDNN)

	fmt.Printf("%-8s %14s %14s %14s\n", "err rate", "HD 1-bit loss", "HD 8-bit loss", "DNN loss")
	r := rng.New(99)
	for _, rate := range experiments.Fig5ErrorRates {
		h1 := q1.Clone()
		faults.InjectQuantizedBits(h1.Class, rate, r)
		h8 := q8.Clone()
		faults.InjectQuantizedBits(h8.Class, rate, r)
		hd := dnn.Clone()
		for _, w := range hd.Weights() {
			faults.InjectFloat32Bits(w, rate, experiments.Fig5DNNClampMul, r)
		}
		fmt.Printf("%7.0f%% %13.1fpp %13.1fpp %13.1fpp\n", 100*rate,
			100*(clean1-h1.Evaluate(test.X, test.Y)),
			100*(clean8-h8.Evaluate(test.X, test.Y)),
			100*(cleanDNN-hd.Evaluate(test.X, test.Y)))
	}
	fmt.Println("\n(paper Fig 5: DNN loses up to 41pp at 15% error; 1-bit CyberHD ≤ 4pp)")
}
