package cyberhd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// served is the CIC detector of the serving tests, trained once per test
// binary, and its model's snapshot bytes.
var served struct {
	once sync.Once
	det  *Detector
	snap []byte
	err  error
}

// trainedDetector returns the shared detector as trained. Its callers
// only read it; serveDetector hands out copies to change.
func trainedDetector(t testing.TB) *Detector {
	t.Helper()
	served.once.Do(func() {
		served.det, served.err = TrainDetector(CICIDS2017(1200, 3), DefaultConfig())
		if served.err == nil {
			var buf bytes.Buffer
			served.err = core.SaveSnapshot(&buf, NewCOWModel(served.det.Model))
			served.snap = buf.Bytes()
		}
	})
	if served.err != nil {
		t.Fatal(served.err)
	}
	return served.det
}

// serveDetector returns a private copy of the shared detector, its model
// decoded from the snapshot bytes: the model is bit-identical to the one
// trained, and a test that changes its copy changes no other test's.
func serveDetector(t *testing.T) *Detector {
	t.Helper()
	det := trainedDetector(t)
	m, _, err := core.DecodeSnapshot(bytes.NewReader(served.snap))
	if err != nil {
		t.Fatal(err)
	}
	return &Detector{
		Model: m,
		Normalizer: &datasets.Normalizer{
			Mean: slices.Clone(det.Normalizer.Mean), InvStd: slices.Clone(det.Normalizer.InvStd),
		},
		ClassNames:   slices.Clone(det.ClassNames),
		TestAccuracy: det.TestAccuracy,
	}
}

// serve runs det.Serve over packets under cfg and returns its stats.
func serve(t *testing.T, det *Detector, packets []netflow.Packet, cfg EngineConfig) EngineStats {
	t.Helper()
	st, err := det.Serve(context.Background(), NewSliceSource(packets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeFillsDetectorFields pins what Serve takes from the detector:
// the model, normalizer and class names a config leaves unset — and only
// those, so a config that names its own model serves that one (on the
// sharded engine here, which classifying alone never republishes).
func TestServeFillsDetectorFields(t *testing.T) {
	det := serveDetector(t)
	base := det.EngineConfig()
	if base.Model != det.Model || base.Normalizer != det.Normalizer || len(base.ClassNames) != len(det.ClassNames) {
		t.Fatal("EngineConfig() is not the detector's model, normalizer and class names")
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 100, Seed: 77})
	want := serve(t, det, live.Packets, base)
	got := serve(t, det, live.Packets, EngineConfig{})
	if got.Flows == 0 || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("zero config served %+v, the detector's own config %+v", got, want)
	}
	cow := NewCOWModel(det.Model)
	tel := NewTelemetry(det.ClassNames)
	serve(t, det, live.Packets, EngineConfig{Model: cow, Telemetry: tel, Shards: 4})
	if s := tel.Snapshot(); s.ModelVersion != cow.Version() || cow.Version() != 1 {
		t.Fatalf("served model version %d, want the config's COW model at %d, unpublished since its first version",
			s.ModelVersion, cow.Version())
	}
}

// driveByHand feeds packets into the stream pipeline.NewStream builds from
// cfg, drains it and returns its Stats.
func driveByHand(t *testing.T, cfg EngineConfig, packets []netflow.Packet) EngineStats {
	t.Helper()
	s, err := pipeline.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range packets {
		s.Feed(packets[i])
	}
	s.Close()
	return s.Stats()
}

// TestServeMatchesDirectEngine pins the one-call path end to end: Serve
// over a slice source produces stats bit-identical to hand-driving the
// engine, and the JSONL sink captures every alert.
func TestServeMatchesDirectEngine(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	cfg := det.EngineConfig()
	cfg.BatchSize = 32
	want := driveByHand(t, cfg, live.Packets)

	var jsonl bytes.Buffer
	sink := NewJSONLSink(&jsonl)
	got := serve(t, det, live.Packets, EngineConfig{BatchSize: 32, Sinks: []AlertSink{sink}})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Serve %+v != direct %+v", got, want)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != got.Alerts || got.Alerts == 0 {
		t.Fatalf("JSONL sink wrote %d lines for %d alerts", lines, got.Alerts)
	}
}

// TestServeCancel pins that the facade surfaces cancellation with the
// partial stats.
func TestServeCancel(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first packet
	st, err := det.Serve(ctx, NewSliceSource(live.Packets), EngineConfig{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Packets != 0 {
		t.Fatalf("fed %d packets under a dead context", st.Packets)
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
	cfg := det.EngineConfig()
	cfg.Telemetry, cfg.BatchSize = tel, 16
	r, err := NewServeRunner(cfg, NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	r.ProgressInterval = 5
	r.Progress = func(s TelemetrySnapshot) {
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
	}
	st, err := r.Run(context.Background())
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

// TestBoundedOverloadPolicy pins the overload field of the config: a
// bounded policy makes NewServeRunner install a Gate, and a permissive
// bounded policy over the synchronous engine serves verdicts bit-identical
// to the lossless default with every drop counter at zero.
func TestBoundedOverloadPolicy(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 200, Seed: 31})

	cfg := det.EngineConfig()
	cfg.Overload = OverloadPolicy{Mode: OverloadBounded, TenantRate: 5}
	r, err := NewServeRunner(cfg, NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Stream.(*pipeline.Gate); !ok {
		t.Fatalf("bounded policy built %T, want *pipeline.Gate", r.Stream)
	}
	r.Stream.Close()

	// Functional equivalence: lossless default vs permissive bounded
	// policy (no tenant rate, synchronous engine that always admits).
	want := serve(t, det, live.Packets, EngineConfig{})
	got := serve(t, det, live.Packets, EngineConfig{Overload: OverloadPolicy{Mode: OverloadBounded}})
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts || !slices.Equal(got.ByClass, want.ByClass) {
		t.Fatalf("bounded-permissive %+v != lossless %+v", got, want)
	}
	if want.DroppedTotal() != 0 || got.DroppedTotal() != 0 {
		t.Fatalf("drop counters nonzero: lossless %d, bounded-permissive %d",
			want.DroppedTotal(), got.DroppedTotal())
	}
}
