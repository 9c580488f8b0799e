// Quantized inference: the two serving widths live, and the Table I
// bitwidth sweep offline. One detector is trained, then the same capture
// is served at float32 and at W1 through the serving runtime — the W1
// engine serves the model cyberhd.Quantize packed, handed in as
// EngineConfig.Model, the same path as `cyberhd detect -width 1`:
// completed flows are encoded and scored against the float class memory,
// or straight to query bits against the 1-bit one by XNOR/popcount.
// W2–W32 are not served; cyberhd.Quantize packs them offline, and the
// sweep reports their class-memory footprint, held-out accuracy and the
// modeled FPGA efficiency per width, scoring W1 through the model that
// served.
//
//	go run ./examples/quantization
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cyberhd"
	"cyberhd/internal/hwmodel"
)

func main() {
	// Train once; every serve below runs this one model.
	det, err := cyberhd.TrainDetector(cyberhd.CICIDS2017(3000, 7), cyberhd.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector ready: %v\n\n", det)
	live := cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: 800, Seed: 1234})

	// stream serves the capture once through cfg's model and returns the
	// final stats and the wall-clock time of the run. Identical traffic,
	// identical micro-batching — only the inference kernels change.
	// Packing the class memory happens before the call, so it is not
	// billed to the per-flow rate.
	stream := func(cfg cyberhd.EngineConfig) (cyberhd.EngineStats, time.Duration) {
		cfg.BatchSize = 64 // micro-batch through the blocked kernels
		r, err := cyberhd.NewServeRunner(cfg, cyberhd.NewSliceSource(live.Packets))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		st, err := r.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return st, time.Since(start)
	}

	base, baseDur := stream(det.EngineConfig())
	fmt.Printf("float32 engine: %d flows, %d alerts, %d-bit class memory, %.0f flows/s\n",
		base.Flows, base.Alerts, det.Model.NumClasses()*det.Model.Dim()*32,
		float64(base.Flows)/baseDur.Seconds())
	q1, err := cyberhd.Quantize(det.Model, cyberhd.W1) // packed once: served here, scored below
	if err != nil {
		log.Fatal(err)
	}
	cfg := det.EngineConfig()
	cfg.Model = q1
	w1, w1Dur := stream(cfg)
	fmt.Printf("W1 engine:      %d flows, %d alerts, %d-bit class memory, %.0f flows/s\n\n",
		w1.Flows, w1.Alerts, det.Model.NumClasses()*det.Model.Dim(),
		float64(w1.Flows)/w1Dur.Seconds())

	rows, err := hwmodel.Table(hwmodel.DefaultCPU(), hwmodel.DefaultFPGA(), hwmodel.PaperEffectiveDims)
	if err != nil {
		log.Fatal(err)
	}
	fpgaEff := map[cyberhd.Width]float64{}
	for _, r := range rows {
		fpgaEff[r.Width] = r.FPGAEff
	}

	// The offline sweep scores a held-out labeled set, normalized with the
	// detector's training statistics.
	test := cyberhd.CICIDS2017(2000, 8)
	det.Normalizer.Apply(test)
	fmt.Printf("offline sweep (float32 accuracy %.4f):\n", det.Model.Evaluate(test.X, test.Y))
	fmt.Printf("%-6s %12s %10s %10s\n", "bits", "memory", "accuracy", "FPGA eff")
	for _, w := range []cyberhd.Width{cyberhd.W32, cyberhd.W16, cyberhd.W8, cyberhd.W4, cyberhd.W2, cyberhd.W1} {
		q := q1
		if w != cyberhd.W1 {
			if q, err = cyberhd.Quantize(det.Model, w); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-6d %11db %10.4f %9.1fx\n",
			w, q.MemoryBits(), q.Evaluate(test.X, test.Y), fpgaEff[w])
	}

	fmt.Println("\nserved verdicts are independent of batch size and shard count;")
	fmt.Println("alert drift versus float32 is quantization error at fixed D=512 —")
	fmt.Println("Table I grows Effective D as precision falls to recover it.")
	fmt.Println("FPGA efficiencies are modeled (Alveo U50-class, Table I convention).")
}
