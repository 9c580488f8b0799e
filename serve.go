package cyberhd

import (
	"cyberhd/internal/bitpack"
	"cyberhd/internal/control"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// Serving runtime surface: the Stream/Source/Sink abstractions and the
// Runner that ties them together (see the "Serving runtime" section of
// ARCHITECTURE.md). EngineConfig is the one description of a serving
// engine, and there is one way to serve it: start from the detector's
// base config, set fields, build a Runner and run it:
//
//	cfg := det.EngineConfig()
//	cfg.BatchSize = 64
//	cfg.Sinks = []cyberhd.AlertSink{cyberhd.NewJSONLSink(os.Stdout)}
//	r, err := cyberhd.NewServeRunner(cfg, cyberhd.NewSliceSource(capture))
//	...
//	stats, err := r.Run(ctx)
//
// A name is re-exported here only while Go code under cmd/, examples/ or
// bench/ selects it (cmd/doclint checks); everything else stays reachable
// through the values these return.
type (
	// EngineConfig describes a serving engine: model, normalizer and class
	// names (Detector.EngineConfig fills the three), then
	// micro-batch size, quantized width, shard count, alert callback and
	// sinks, shared telemetry collector, shadow tap and overload policy —
	// every field documented on pipeline.Config. Tick and progress cadence
	// are Runner settings.
	EngineConfig = pipeline.Config
	// EngineStats is the engine counter snapshot returned by Stats.
	EngineStats = pipeline.Stats
	// Alert is one non-benign detection.
	Alert = pipeline.Alert
	// Stream is the uniform serving contract (Feed/FeedWithin/Tick/Flush/
	// Close/Stats/Telemetry) implemented by both engines, by the admission
	// gate and by ClusterClient.
	Stream = pipeline.Stream
	// PacketSource yields a time-ordered packet stream (see NewSliceSource,
	// OpenCapture).
	PacketSource = netflow.PacketSource
	// CaptureFile is an open on-disk packet log — binary capture, PCAP or
	// pcapng — streamed in O(1) memory (see OpenCapture).
	CaptureFile = netflow.File
	// AlertSink consumes non-benign verdicts (see SinkFunc, NewJSONLSink,
	// NewRateLimitSink).
	AlertSink = pipeline.AlertSink
	// SinkFunc adapts a plain function to an AlertSink.
	SinkFunc = pipeline.SinkFunc
	// JSONLSink writes one JSON object per alert.
	JSONLSink = pipeline.JSONLSink
	// Runner pumps a PacketSource into a Stream under a context, ticking
	// and reporting progress on its own TickInterval, Progress and
	// ProgressInterval settings.
	Runner = pipeline.Runner
	// Telemetry is the lock-free counter collector every engine records
	// into — share one (EngineConfig.Telemetry) to observe a run live from
	// any goroutine, or read it through Stream.Telemetry.
	Telemetry = telemetry.Collector
	// TelemetrySnapshot is one point-in-time read of a Telemetry
	// collector: counters plus the verdict-latency histogram.
	TelemetrySnapshot = telemetry.Snapshot
	// MetricsServer is a running admin endpoint serving /metrics
	// (Prometheus text format), /stats (JSON) and /healthz.
	MetricsServer = telemetry.Server
	// OverloadPolicy configures the ingress admission gate: admission
	// wait bound, shedding thresholds, per-tenant token-bucket rates.
	// The zero value is the lossless default (no gate installed).
	OverloadPolicy = pipeline.OverloadPolicy
	// ShadowTap is the shadow-serving slot of the model control plane: a
	// swappable candidate classifier that engines score behind the
	// primary, counting verdict divergence per class into telemetry.
	// Attach through EngineConfig.Shadow; swap candidates with Set/Clear
	// at any time.
	ShadowTap = pipeline.Shadow
	// ControlPlaneConfig assembles the model control plane: the serving
	// COWModel, its quantization width and the engine's ShadowTap (see
	// NewControlPlane).
	ControlPlaneConfig = control.Config
)

// The bounded overload mode and the drop reasons it counts, re-exported
// so policy construction and drop accounting never need the internal
// packages.
const (
	// OverloadBounded bounds ingress latency instead of loss: counted
	// drops, flow-aware shedding, per-tenant fairness. The zero mode is
	// lossless: Feed blocks on full buffers and never drops.
	OverloadBounded = pipeline.OverloadBounded
	// DropBackpressure counts packets refused because ingress buffers
	// stayed full past the admission wait bound.
	DropBackpressure = telemetry.DropBackpressure
	// DropNewFlowShed counts packets refused in the shedding state
	// because they would have started a new flow.
	DropNewFlowShed = telemetry.DropNewFlowShed
	// DropTenantRate counts packets refused by their tenant's token
	// bucket.
	DropTenantRate = telemetry.DropTenantRate
)

// Kernels reports which kernel implementations this build+CPU selected at
// startup: the float path (hdc encode and class-panel kernels —
// "avx512", "avx2" or "generic") and the packed path (bitpack.KernelPath:
// "avx2", "avx" or "popcnt-swar"). Engines stamp the
// same report into their telemetry collector, so live runs expose it at
// /stats ("kernels") and /metrics (cyberhd_kernel_info); this function
// answers the question without building an engine — e.g. in startup
// banners and benchmark records.
func Kernels() telemetry.Kernels {
	return telemetry.Kernels{Float: hdc.KernelPath(), Packed: bitpack.KernelPath()}
}

// Source and sink constructors, re-exported from the implementation
// packages so the serving runtime is reachable from the facade.
var (
	// NewSliceSource wraps an in-memory packet slice as a PacketSource.
	NewSliceSource = netflow.NewSliceSource
	// OpenCapture opens a packet log for O(1)-memory streaming replay,
	// whichever container it is in: the binary capture format, classic
	// PCAP or pcapng, told apart by the file's first four bytes. PCAP
	// frames go through the dependency-free decode stack; Skipped counts
	// the ones outside it.
	OpenCapture = netflow.Open
	// NewJSONLSink writes alert records to a writer, one JSON line each.
	NewJSONLSink = pipeline.NewJSONLSink
	// NewRateLimitSink caps delivery at burst alerts per class per window
	// capture-seconds before forwarding to an inner sink.
	NewRateLimitSink = pipeline.NewRateLimitSink
	// NewTelemetry builds a collector for the given class names — set it
	// as EngineConfig.Telemetry and hand its Snapshot method to a
	// ServeMetrics endpoint to watch a run live.
	NewTelemetry = telemetry.New
	// ServeMetrics starts the admin endpoint (/metrics, /stats, /healthz)
	// on addr, in the background; close the returned server when done.
	// Counters come from a snapshot function — a collector's Snapshot
	// method, or a ClusterClient's MergedSnapshot for the cluster rollup —
	// and extra routes (nil for none) share the mux: the way to mount a
	// control plane's Handler at "/model" and "/model/".
	ServeMetrics = telemetry.ListenAndServe
	// NewGate wraps a hand-built Stream in the bounded-overload admission
	// gate — NewServeRunner does this automatically when the config's
	// Overload policy is bounded.
	NewGate = pipeline.NewGate
	// NewShadowTap returns an empty shadow tap; attach it to an engine
	// through EngineConfig.Shadow and to a control plane through
	// ControlPlaneConfig.
	NewShadowTap = pipeline.NewShadow
	// NewControlPlane validates a ControlPlaneConfig and builds the model
	// control plane: the model-management HTTP routes (GET/POST /model,
	// /model/promote, /model/demote) over one serving COWModel — validated
	// hot reload, shadow attach and promotion, each one atomic swap. Mount
	// its Handler via ServeMetrics.
	NewControlPlane = control.New
	// SaveModelSnapshotFile writes a COWModel publication as a versioned
	// v2 snapshot file — encoder state, class matrix, scorer norms, COW
	// version and the derived quantized width: the one model file, which
	// POST /model restores to bit-identical serving.
	SaveModelSnapshotFile = core.SaveSnapshotFile
)

// EngineConfig returns the detector's base serving configuration: the
// trained model, its normalizer and class names. Set the fields the run
// needs on the result and pass it to NewServeRunner.
func (d *Detector) EngineConfig() EngineConfig {
	return EngineConfig{Model: d.Model, Normalizer: d.Normalizer, ClassNames: d.ClassNames}
}

// NewServeRunner builds the engine cfg describes (cfg.Shards > 1 the
// flow-sharded engine, anything else the deterministic single-core
// engine) and a Runner that will pump src through it. Set a tick period
// other than 1 s or progress snapshots on the Runner, then call Run.
func NewServeRunner(cfg EngineConfig, src PacketSource) (*Runner, error) {
	return pipeline.NewRunner(cfg, src)
}
