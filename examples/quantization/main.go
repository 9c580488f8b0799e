// Quantized streaming: the Table I bitwidth sweep as a live serving mode.
// One detector is trained, then the same capture is served at every
// supported bitwidth through the serving runtime (EngineConfig.Quantize —
// the same path as `cyberhd detect -width N`): completed
// flows are encoded in float, packed to w-bit integers, and scored
// against the packed class memory by XNOR/popcount (1-bit) or
// widened-integer (2–32 bit) kernels. Verdict counts, class-memory
// footprint and the modeled FPGA efficiency are reported per width,
// against the float32 engine on identical traffic.
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

	// stream serves the capture once at width w (0 = float32) and returns
	// the final stats and the wall-clock time of the run. Identical
	// traffic, identical micro-batching — only the inference kernels
	// change. The engine is assembled before the clock starts, so packing
	// the class memory is not billed to the per-flow rate.
	stream := func(w cyberhd.Width) (cyberhd.EngineStats, time.Duration) {
		cfg := det.EngineConfig()
		cfg.BatchSize = 64 // micro-batch through the blocked kernels
		cfg.Quantize = w
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

	base, baseDur := stream(0)
	fmt.Printf("float32 engine: %d flows, %d alerts, %d-bit class memory, %.0f flows/s\n\n",
		base.Flows, base.Alerts, det.Model.NumClasses()*det.Model.Dim()*32,
		float64(base.Flows)/baseDur.Seconds())

	rows, err := hwmodel.Table(hwmodel.DefaultCPU(), hwmodel.DefaultFPGA(), hwmodel.PaperEffectiveDims)
	if err != nil {
		log.Fatal(err)
	}
	fpgaEff := map[cyberhd.Width]float64{}
	for _, r := range rows {
		fpgaEff[r.Width] = r.FPGAEff
	}

	fmt.Printf("%-6s %8s %8s %12s %10s %10s\n",
		"bits", "flows", "alerts", "memory", "flows/s", "FPGA eff")
	for _, w := range []cyberhd.Width{cyberhd.W32, cyberhd.W16, cyberhd.W8, cyberhd.W4, cyberhd.W2, cyberhd.W1} {
		st, dur := stream(w)
		q, err := cyberhd.Quantize(det.Model, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %8d %8d %11db %10.0f %9.1fx\n",
			w, st.Flows, st.Alerts, q.MemoryBits(), float64(st.Flows)/dur.Seconds(), fpgaEff[w])
	}

	fmt.Println("\nverdicts at a given width are independent of batch size and shard")
	fmt.Println("count; alert drift versus float32 is quantization error at fixed")
	fmt.Println("D=512 — Table I grows Effective D as precision falls to recover it.")
	fmt.Println("FPGA efficiencies are modeled (Alveo U50-class, Table I convention).")
}
