// Streaming NIDS: train a detector on one synthetic capture, then monitor
// a live packet stream (Fig 1(a) of the paper) through the serving
// runtime — a packet source pumps into the engine under a context, flows
// assemble and classify in real time, and attack verdicts fan out to
// alert sinks (here: a counting sink plus a rate-limited console printer,
// so an alert flood pages once instead of a thousand times).
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	"cyberhd"
)

func main() {
	// Train on yesterday's labeled capture.
	training := cyberhd.CICIDS2017(4000, 7)
	det, err := cyberhd.TrainDetector(training, cyberhd.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector ready: %v\n\n", det)

	// Egress: count everything, print a bounded sample. The rate limiter
	// forwards at most 2 alerts per class per 300 capture-seconds.
	alertsByClass := make([]int, len(det.ClassNames))
	counter := cyberhd.SinkFunc(func(a cyberhd.Alert) { alertsByClass[a.Class]++ })
	printer := cyberhd.NewRateLimitSink(cyberhd.SinkFunc(func(a cyberhd.Alert) {
		fmt.Printf("ALERT t=%8.2fs  %-12s  %3d pkts %8.0f bytes  dur %6.2fs\n",
			a.Time, a.ClassName, a.Flow.TotalPackets(), a.Flow.TotalBytes(), a.Flow.Duration())
	}), 2, 300)

	// Live monitoring: the runner pumps the source into the engine,
	// auto-ticks from capture timestamps so idle flows evict and verdicts
	// never stall, drains on end of stream, and returns exact final stats.
	// (Here the "wire" is the traffic simulator; swap in
	// cyberhd.OpenCapture for an on-disk capture, pcap or pcapng file, or
	// any PacketSource.)
	//
	// Progress, a Runner setting, is the operator's mid-run view: a
	// telemetry snapshot every 120 capture-seconds — throughput, verdict counts, and how long
	// verdicts waited in micro-batch buffers. The same snapshot backs the
	// HTTP admin endpoint: cyberhd.ServeMetrics(":9090", tel.Snapshot, nil)
	// over a collector shared through the config's Telemetry field serves
	// it as Prometheus /metrics and JSON /stats while the run is live.
	live := cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: 1500, Seed: 1234})
	cfg := det.EngineConfig()
	cfg.Sinks = []cyberhd.AlertSink{counter, printer}
	cfg.BatchSize = 32
	r, err := cyberhd.NewServeRunner(cfg, cyberhd.NewSliceSource(live.Packets))
	if err != nil {
		log.Fatal(err)
	}
	r.ProgressInterval = 120
	r.Progress = func(s cyberhd.TelemetrySnapshot) {
		fmt.Printf("  · progress: %d pkts, %d flows, %d alerts (%d suppressed), mean verdict wait %.2fs\n",
			s.Packets, s.Flows, s.Alerts, s.Suppressed, meanWait(s))
	}
	st, err := r.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprocessed %d packets → %d flows, %d alerts (%d printed, %d rate-limited)\n",
		st.Packets, st.Flows, st.Alerts, st.Alerts-printer.Suppressed(), printer.Suppressed())
	fmt.Println("alerts by class:") // in the detector's class order
	for class, n := range alertsByClass {
		if n > 0 {
			fmt.Printf("  %-14s %d\n", det.ClassNames[class], n)
		}
	}
}

// meanWait is the average capture-time delay between a flow completing
// and its verdict — the cost of micro-batching, straight from the
// telemetry histogram.
func meanWait(s cyberhd.TelemetrySnapshot) float64 {
	if s.Latency.Count == 0 {
		return 0
	}
	return s.Latency.Sum / float64(s.Latency.Count)
}
