// Quickstart: synthesize the NSL-KDD reconstruction, train a CyberHD
// detector with the paper's defaults, and classify a few flows.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cyberhd"
)

func main() {
	// 1. Data: 10k samples of the 41-feature, 5-class NSL-KDD schema.
	ds := cyberhd.NSLKDD(10000, 42)
	fmt.Printf("dataset %s: %d samples, %d features, classes %v\n",
		ds.Name, ds.Len(), ds.NumFeatures(), ds.ClassNames)

	// 2. Train with the paper-calibrated defaults: D=512 physical
	// dimensions, 20%% of the least significant regenerated over 7 cycles.
	det, err := cyberhd.TrainDetector(ds, cyberhd.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(det)
	fmt.Printf("effective dimensionality D* = %d (8x-class capacity from %d physical dims)\n\n",
		det.EffectiveDim(), det.Model.Dim())

	// 3. Classify: raw feature vectors go straight in; the detector owns
	// normalization.
	for i := 0; i < 5; i++ {
		got := det.Classify(ds.X.Row(i))
		fmt.Printf("sample %d: predicted=%-8s actual=%s\n", i, got, ds.ClassNames[ds.Y[i]])
	}

	// 4. Edge deployment: quantize the class memory to 1 bit per element.
	q, err := cyberhd.Quantize(det.Model, cyberhd.W1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n1-bit model memory: %d bits (%.1fx smaller than float32)\n",
		q.MemoryBits(), 32.0)

	// Next step: live serving. A detector trained on CIC flow features
	// monitors packet streams in one call — det.Serve(ctx, source, cfg)
	// pumps any PacketSource through the engine an EngineConfig describes
	// and fans alerts to its sinks.
	// See examples/streaming and examples/quantization.
}
