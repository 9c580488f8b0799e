package cyberhd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"cyberhd/internal/pipeline"
)

// serveDetector trains one CIC detector shared by the serving tests.
func serveDetector(t *testing.T) *Detector {
	t.Helper()
	det, err := TrainDetector(CICIDS2017(1200, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestEngineOptionsCompose pins the builder form of EngineConfig: every
// option lands on its field, over the detector's base config.
func TestEngineOptionsCompose(t *testing.T) {
	det := serveDetector(t)
	onAlert := func(Alert) {}
	sink := SinkFunc(func(Alert) {})
	cfg := det.EngineConfig(
		WithBatchSize(64),
		WithQuantized(W4),
		WithShards(8),
		WithBenignClass(0),
		WithOnAlert(onAlert),
		WithSinks(sink),
		WithTickInterval(5),
	)
	if cfg.Model != det.Model || cfg.Normalizer != det.Normalizer {
		t.Fatal("detector base config not applied")
	}
	if cfg.BatchSize != 64 || cfg.Quantize != W4 || cfg.Shards != 8 || cfg.TickInterval != 5 {
		t.Fatalf("engine options not applied: %+v", cfg)
	}
	if cfg.OnAlert == nil || len(cfg.Sinks) != 1 {
		t.Fatal("alert options not applied")
	}
	// WithShards(0) resolves to one shard per core at option time, so the
	// stored config says what will actually run.
	if got := det.EngineConfig(WithShards(0)).Shards; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("WithShards(0) = %d shards, want GOMAXPROCS", got)
	}
}

// TestServeMatchesDirectEngine pins the one-call path end to end: Serve
// over a slice source produces stats bit-identical to hand-driving the
// engine, and the JSONL sink captures every alert.
func TestServeMatchesDirectEngine(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	eng, err := pipeline.New(det.EngineConfig(WithBatchSize(32)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Close()
	want := eng.Stats()

	var jsonl bytes.Buffer
	sink := NewJSONLSink(&jsonl)
	got, err := det.Serve(context.Background(), NewSliceSource(live.Packets),
		WithBatchSize(32), WithSinks(sink))
	if err != nil {
		t.Fatal(err)
	}
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("Serve %+v != direct %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("ByClass[%d]: serve %d != direct %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(jsonl.String(), "\n")
	if lines != got.Alerts {
		t.Fatalf("JSONL sink wrote %d lines for %d alerts", lines, got.Alerts)
	}
	if got.Alerts == 0 {
		t.Fatal("degenerate capture: no alerts")
	}
}

// TestServeShardedQuantized exercises the one-call path at its heaviest:
// flow-sharded, micro-batched, 8-bit quantized — stats must match the
// plain float engine bit-for-bit except where quantization changes
// verdicts, so pin against a sharded direct drive at the same width.
func TestServeShardedQuantized(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	sh, err := pipeline.NewSharded(det.EngineConfig(WithShards(4), WithBatchSize(32), WithQuantized(W8)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		sh.Feed(live.Packets[i])
	}
	sh.Close()
	want := sh.Stats()

	got, err := det.Serve(context.Background(), NewSliceSource(live.Packets),
		WithShards(4), WithBatchSize(32), WithQuantized(W8))
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("Serve %+v != direct sharded %+v", got, want)
	}
}

// TestServeCancel pins that the facade surfaces cancellation with the
// partial stats.
func TestServeCancel(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first packet
	st, err := det.Serve(ctx, NewSliceSource(live.Packets))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Packets != 0 {
		t.Fatalf("fed %d packets under a dead context", st.Packets)
	}
}

// TestServeReplayTraffic drives Serve from the traffic generator's
// live-replay source (unpaced) and pins equivalence with the slice source.
func TestServeReplayTraffic(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	a, err := det.Serve(context.Background(), NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.Serve(context.Background(), ReplayTraffic(live, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Packets != b.Packets || a.Flows != b.Flows || a.Alerts != b.Alerts {
		t.Fatalf("replay source %+v != slice source %+v", b, a)
	}
}

// TestServeWithMetrics runs Serve beside a ServeMetrics endpoint sharing
// its collector: the endpoint answers /healthz before the run and
// /metrics during it (scraped from a progress callback), and the
// collector's final counters match the returned stats exactly;
// Prometheus output is well-formed.
func TestServeWithMetrics(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	tel := NewTelemetry(det.ClassNames)
	srv, err := ServeMetrics("127.0.0.1:0", tel.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The listener is accepting before ServeMetrics returns, so liveness
	// answers before the first packet.
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var snaps []TelemetrySnapshot
	scraped := ""
	st, err := det.Serve(context.Background(), NewSliceSource(live.Packets),
		WithTelemetry(tel), WithBatchSize(16),
		WithProgress(5, func(s TelemetrySnapshot) {
			snaps = append(snaps, s)
			if scraped == "" && s.Packets > 0 {
				resp, err := http.Get("http://" + srv.Addr() + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				scraped = string(body)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scraped, "cyberhd_packets_total") || strings.Contains(scraped, "cyberhd_packets_total 0\n") {
		t.Fatalf("mid-run scrape shows no traffic:\n%s", scraped)
	}
	final := tel.Snapshot()
	if int(final.Packets) != st.Packets || int(final.Flows) != st.Flows || int(final.Alerts) != st.Alerts {
		t.Fatalf("collector %+v != stats %+v", final, st)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	if last := snaps[len(snaps)-1]; last.Packets != final.Packets {
		t.Fatalf("final progress snapshot %d packets, want %d", last.Packets, final.Packets)
	}
	var prom strings.Builder
	if err := final.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "cyberhd_flows_total") {
		t.Fatalf("prometheus output missing flows:\n%s", prom.String())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeWithMetricsBadAddr pins the error path: an unbindable address
// fails up front instead of serving blind.
func TestServeWithMetricsBadAddr(t *testing.T) {
	if _, err := ServeMetrics("256.0.0.1:99999", NewTelemetry(nil).Snapshot, nil); err == nil {
		t.Fatal("bound an impossible address")
	}
}

// TestOverloadOptionsMatchStruct pins satellite-free equivalence of the
// two construction paths: WithOverloadPolicy lands on the same
// EngineConfig.Overload a struct-literal caller sets, hooks included,
// both paths install the same Gate through
// NewServeRunner, and a permissive bounded policy over the synchronous
// engine serves verdicts bit-identical to the lossless default with
// every drop counter at zero.
func TestOverloadOptionsMatchStruct(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 200, Seed: 31})

	tenant := func(p *Packet) uint64 { return uint64(p.SrcIP.V4()) }
	onDrop := func(Packet, DropReason) {}
	viaOpts := det.EngineConfig(WithOverloadPolicy(OverloadPolicy{
		Mode: OverloadBounded, TenantRate: 5, TenantKey: tenant, OnDrop: onDrop,
	}))
	viaStruct := det.EngineConfig()
	viaStruct.Overload = OverloadPolicy{Mode: OverloadBounded, TenantRate: 5}
	viaStruct.Overload.TenantKey = tenant
	viaStruct.Overload.OnDrop = onDrop

	if viaOpts.Overload.Mode != viaStruct.Overload.Mode ||
		viaOpts.Overload.TenantRate != viaStruct.Overload.TenantRate {
		t.Fatalf("option path %+v != struct path %+v", viaOpts.Overload, viaStruct.Overload)
	}
	if viaOpts.Overload.TenantKey == nil || viaOpts.Overload.OnDrop == nil {
		t.Fatal("the policy's TenantKey/OnDrop hooks did not land on the config")
	}
	for name, cfg := range map[string]EngineConfig{"options": viaOpts, "struct": viaStruct} {
		r, err := NewServeRunner(cfg, NewSliceSource(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Stream.(*Gate); !ok {
			t.Fatalf("%s path: bounded policy built %T, want *Gate", name, r.Stream)
		}
		r.Stream.Close()
	}

	// Functional equivalence: lossless default vs permissive bounded
	// policy (no tenant rate, synchronous engine that always admits).
	want, err := det.Serve(context.Background(), NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.Serve(context.Background(), NewSliceSource(live.Packets),
		WithOverloadPolicy(OverloadPolicy{Mode: OverloadBounded}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("bounded-permissive %+v != lossless %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("ByClass[%d]: bounded %d != lossless %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if want.DroppedTotal() != 0 || got.DroppedTotal() != 0 {
		t.Fatalf("drop counters nonzero: lossless %d, bounded-permissive %d",
			want.DroppedTotal(), got.DroppedTotal())
	}
}
