// Engine micro-benchmarks over the serving tests' detector and one cached
// capture: the synchronous engine per flow and micro-batched, and the
// telemetry-overhead pin. CI runs every benchmark of the module once as a
// smoke. Throughput of record is bench/ (see BENCHMARK.json), the only
// throughput harness; the paper's tables and figures are regenerated by
// cmd/experiments.
package cyberhd

import (
	"sync"
	"testing"

	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// benchLive is the 400-session capture the engine benchmarks stream.
var benchLive = sync.OnceValue(func() *traffic.Stream {
	return GenerateTraffic(TrafficConfig{Sessions: 400, Seed: 99})
})

// benchEngine streams the cached capture through a synchronous engine per
// iteration, classifying in micro-batches of batch flows (0: per flow),
// and reports flows/s.
func benchEngine(b *testing.B, batch int) {
	cfg, live := trainedDetector(b).EngineConfig(), benchLive()
	cfg.BatchSize = batch
	flows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := pipeline.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for p := range live.Packets {
			eng.Feed(live.Packets[p])
		}
		eng.Close()
		flows = eng.Stats().Flows
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkEngineClassify measures end-to-end streaming throughput
// (packets → flows → featurize → classify) with per-flow prediction vs
// 64-flow micro-batches.
func BenchmarkEngineClassify(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchEngine(b, 0) })
	b.Run("batch64", func(b *testing.B) { benchEngine(b, 64) })
}

// BenchmarkTelemetryOverhead isolates what live observability costs the
// serving path. Engines are always instrumented — the atomic counters
// are the source of truth behind Stats and Snapshot — so the marginal
// cost is measured directly: hotpath times the exact per-flow counter
// sequence the engine adds (packet count, flow completion, verdict with
// histogram observation; zero allocations, a handful of uncontended
// atomics), engine times the full instrumented pipeline per flow for
// scale, and snapshot times the scrape-side read that admin endpoints
// and progress callbacks pay.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("hotpath", func(b *testing.B) {
		tel := telemetry.New(traffic.LabelNames())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tel.AddPackets(1)
			tel.FlowCompleted()
			tel.Verdict(i&7, i&7 != 0, 0.25)
		}
	})
	b.Run("engine", func(b *testing.B) { benchEngine(b, 64) })
	b.Run("snapshot", func(b *testing.B) {
		eng, err := pipeline.New(trainedDetector(b).EngineConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range benchLive().Packets {
			eng.Feed(p)
		}
		eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.Telemetry().Snapshot()
		}
	})
}
