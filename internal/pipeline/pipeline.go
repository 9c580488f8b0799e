// Package pipeline is the online NIDS engine of Fig 1(a): packets stream
// in, flows assemble and complete, completed flows are featurized,
// normalized, encoded into hyperspace and classified, and non-benign
// verdicts raise alerts.
//
// The engine core is synchronous and deterministic (testable, and fast
// enough that HDC inference is never the bottleneck); Sharded fronts N
// such cores with bounded channels, hash-partitioning flows across
// per-core engines — one shard (NewConcurrent) simply decouples packet
// ingestion from classification. Both implement the Stream contract,
// NewStream picks between them from a Config, and Runner pumps any
// netflow.PacketSource through any Stream with alerts fanning out to
// AlertSinks — the serving runtime of ARCHITECTURE.md.
package pipeline

import (
	"fmt"
	"slices"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/quantize"
	"cyberhd/internal/telemetry"
)

// Classifier is the model interface the engine drives. core.Model,
// core.COWModel and quantize.Model all satisfy it. The
// engine classifies every flow through PredictBatchInto, which must be
// bit-identical to per-row Predict so the batch size never changes a
// verdict. An engine only reads its model: the serving width and the
// version are the model's own.
type Classifier interface {
	// Predict returns the class index for one normalized feature vector.
	Predict(x []float32) int
	// PredictBatchInto classifies every row of x into out (len x.Rows)
	// through the blocked encode/score kernels.
	PredictBatchInto(x *hdc.Matrix, out []int)
}

// Alert is one non-benign verdict.
type Alert struct {
	// Flow is the completed flow that triggered the alert, valid only
	// during the OnAlert or Consume call that receives it: copy what you keep.
	Flow *netflow.Flow
	// Class is the predicted class index.
	Class int
	// ClassName is the human name of the predicted class.
	ClassName string
	// Time is the flow's last-packet time (capture clock).
	Time float64
}

// Stats accumulates engine counters. Engines count through lock-free
// telemetry collectors, so reading Stats is safe from any goroutine at any
// time; after Close every counter is settled and exact.
type Stats struct {
	// Packets counts packets fed.
	Packets int
	// Flows counts completed flows handed to classification. Mid-run,
	// Flows may briefly exceed the ByClass sum by the number of verdicts
	// still waiting in a micro-batch buffer; after Close they match.
	Flows int
	// Alerts counts non-benign verdicts.
	Alerts int
	// ByClass counts verdicts per class index; it sums to Flows after a
	// drain.
	ByClass []int
	// Dropped counts packets refused at ingress per telemetry.DropReason,
	// always zero under the default lossless policy. The bounded-overload
	// accounting invariant is offered = Packets + DroppedTotal().
	Dropped [telemetry.NumDropReasons]int
}

// DroppedTotal sums refused packets across all drop reasons.
func (s Stats) DroppedTotal() int {
	total := 0
	for _, n := range s.Dropped {
		total += n
	}
	return total
}

// StatsOf converts a telemetry snapshot to the engine counter shape.
func StatsOf(s telemetry.Snapshot) Stats {
	st := Stats{
		Packets: int(s.Packets),
		Flows:   int(s.Flows),
		Alerts:  int(s.Alerts),
		ByClass: make([]int, len(s.ByClass)),
	}
	for i, v := range s.ByClass {
		st.ByClass[i] = int(v)
	}
	for i, v := range s.Dropped {
		st.Dropped[i] = int(v)
	}
	return st
}

// Config assembles an Engine.
type Config struct {
	// Model classifies normalized feature vectors, served exactly as
	// given: a float32 *core.Model, a W1 *quantize.Model
	// (quantize.FromCore), or a *core.COWModel serving whatever it
	// publishes — W1 once its builder ran quantize.AttachLive. A
	// *quantize.Model at any other width is refused (CheckWidth).
	// Verdicts are independent of BatchSize and shard count at either
	// width. Required.
	Model Classifier
	// Normalizer maps raw flow features to the model's input space
	// (fitted on the training split). Required.
	Normalizer *datasets.Normalizer
	// ClassNames label model outputs. Required. Class 0 is benign, as in
	// every dataset the engine serves: its verdicts never alert.
	ClassNames []string
	// BatchSize > 1 buffers completed flows and classifies them in
	// micro-batches, trading a bounded verdict delay (at most BatchSize-1
	// flows, cleared by Tick and Flush) for GEMM-rate throughput. 0 or 1
	// classifies every flow at once, as a batch of one. Batch rows over
	// all shards are at most MaxBatchRows.
	BatchSize int
	// Shadow, when set, is the shadow-serving tap: every classified flow
	// is also scored by the tap's candidate model (when one is attached)
	// and verdict divergence is counted into telemetry, without affecting
	// the primary's verdicts, alerts or sinks. The tap is swappable
	// mid-traffic; a Sharded engine shares it across all shards. See
	// Shadow.
	Shadow *Shadow
	// OnAlert, when set, receives every alert synchronously — on Engine,
	// on the goroutine feeding it — its Flow valid only for the call. On
	// Engine it may call Feed, Tick, Flush and Close; those calls apply, in
	// order, when the flush emitting the alert returns.
	OnAlert func(Alert)
	// Sinks receive every alert after OnAlert, in order. Delivery follows
	// the engine's alert contract: serialized, in verdict order (per shard
	// for Sharded). The sync Engine runs them on one goroutine of its own,
	// started at its first handoff and ended by Close, and hands them copies
	// of the alerts' flows in runs: when 64 alerts wait, and when the Feed,
	// FeedRun, Tick or Flush that raised them returns. Flush and Close
	// return once every sink has consumed every alert; a feeder that gets
	// 512 alerts ahead of the sinks waits. Sharded runs them on its shard
	// goroutines. Sinks must not call Feed, Tick, Flush or Close; a sink
	// that panics is not recovered.
	Sinks []AlertSink
	// Telemetry, when set, is the collector the engine records into —
	// share one collector with a telemetry.Server (or any other observer)
	// to watch the run live. Its class count must match ClassNames. Nil
	// builds a private collector, reachable through Stream.Telemetry.
	// A Sharded engine shares one collector across all shards.
	Telemetry *telemetry.Collector
	// Shards is the worker count of NewSharded (<= 0 selects
	// runtime.GOMAXPROCS, at most MaxShards). NewStream treats sharding
	// as explicit: only Shards > 1 builds the sharded engine, anything
	// else serves the deterministic single-core Engine — resolve "one per
	// core" yourself (runtime.GOMAXPROCS(0), as `cyberhd detect -shards 0`
	// does) before handing the config to a runner. New only checks it
	// against the bounds; NewConcurrent overrides it with 1.
	Shards int
	// Overload is the ingress admission policy applied by NewStream (so
	// by NewRunner and the facade's NewServeRunner). The zero value is the lossless
	// default: no gate is installed and serving is bit-identical to every
	// release before the overload control plane existed. Overload.Mode ==
	// OverloadBounded wraps the engine in a Gate — see OverloadPolicy.
	// Ignored by New, NewConcurrent and NewSharded themselves (wrap with
	// NewGate by hand when driving an engine directly).
	Overload OverloadPolicy
}

// MaxBatchRows bounds the feature rows a config makes its engines
// preallocate: each engine, one per shard, holds max(BatchSize, 1) rows
// of netflow.NumFeatures float32s, so all of them together stay near
// 20 MiB. MaxShards bounds the shard count, one goroutine and its buffers
// each. New and NewSharded refuse a config past either before allocating
// or starting anything; the cluster hello refuses the same off the wire.
const (
	MaxBatchRows = 1 << 16
	MaxShards    = 1 << 10
)

// finite reports whether capture time t is a number. Every capture clock —
// Runner's ticks, Engine's, Gate's and its tenant buckets, RateLimitSink's
// windows — advances on finite times only, so no NaN or ±Inf stops one.
func finite(t float64) bool { return t-t == 0 }

// Engine is the synchronous detection pipeline. Everything but its sinks
// runs on the goroutine that calls it; Config.Sinks run on one goroutine
// of the engine's own, which Close ends, so close an Engine that has
// sinks.
type Engine struct {
	cfg Config
	asm *netflow.Assembler
	tel *telemetry.Collector

	// now is the engine's capture clock: the newest finite packet or tick
	// timestamp seen. Verdict latency is measured against it.
	now float64
	// closed makes post-Close operations defined no-ops (Stream contract).
	closed bool

	// Batch state: every completed flow's features become a row of pendX
	// (viewed through pendView at the current fill) and classify into
	// preds when the batch fills — at once when BatchSize <= 1 — Tick
	// fires, or Flush drains; pendDone records the capture time each
	// pending flow completed, so the batch wait shows up in the
	// verdict-latency histogram. All buffers are preallocated so the
	// steady-state path never allocates.
	pendX     *hdc.Matrix
	pendView  hdc.Matrix
	pendFlows []*netflow.Flow
	pendDone  []float64
	preds     []int
	// flushing is set while flushBatch emits verdicts. The Feed, Tick,
	// Flush and Close calls alert callbacks make meanwhile wait in
	// deferred, so the pending buffers never change mid-emit and sinks
	// see alerts in verdict order.
	flushing bool
	deferred []streamMsg

	// out runs cfg.Sinks on their own goroutine; nil without sinks.
	out *egress
}

// CheckWidth is the one rule for what serving accepts: float32 (0) and
// W1. Every serving surface — Config.Model, the control plane, the
// cluster hello and the CLI's -width — asks it. W2–W32 are the paper's
// offline bitwidths, packed by quantize.FromCore for Table I and Fig 5.
func CheckWidth(w bitpack.Width) error {
	if w == 0 || w == bitpack.W1 {
		return nil
	}
	return fmt.Errorf("width %d is not served (serving widths are 0 = float32 and 1); W2–W32 exist offline, in cyberhd quantize / faults and experiments", w)
}

// validate checks the required Config fields and the allocation bounds.
func validate(cfg Config) error {
	if cfg.Model == nil {
		return fmt.Errorf("pipeline: nil model")
	}
	if cfg.Normalizer == nil {
		return fmt.Errorf("pipeline: nil normalizer")
	}
	if len(cfg.ClassNames) == 0 {
		return fmt.Errorf("pipeline: no class names")
	}
	if got := len(cfg.Normalizer.Mean); got != netflow.NumFeatures {
		return fmt.Errorf("pipeline: normalizer expects %d features but flows have %d — the model must be trained on CIC-style flow features (e.g. datasets.CICIDS2017)", got, netflow.NumFeatures)
	}
	if cfg.Telemetry != nil && cfg.Telemetry.NumClasses() != len(cfg.ClassNames) {
		return fmt.Errorf("pipeline: telemetry collector has %d classes, config has %d",
			cfg.Telemetry.NumClasses(), len(cfg.ClassNames))
	}
	if q, ok := cfg.Model.(*quantize.Model); ok {
		if err := CheckWidth(q.Width); err != nil {
			return fmt.Errorf("pipeline: quantized model: %w", err)
		}
	}
	if cfg.Shards > MaxShards {
		return fmt.Errorf("pipeline: %d shards (at most %d)", cfg.Shards, MaxShards)
	}
	if max(cfg.BatchSize, 1) > MaxBatchRows/max(cfg.Shards, 1) {
		return fmt.Errorf("pipeline: batch size %d on %d shards (batch rows at most %d)", cfg.BatchSize, max(cfg.Shards, 1), MaxBatchRows)
	}
	return nil
}

// resolveTelemetry fills cfg.Telemetry with a private collector when the
// caller supplied none, points every rate-limiting sink at it so
// suppression totals surface in snapshots, and attaches the kernel
// dispatch report so /stats and /metrics identify the code paths serving
// this engine. Engines built from the resolved config (each shard of a
// Sharded) share the one collector.
func resolveTelemetry(cfg *Config) *telemetry.Collector {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(cfg.ClassNames)
	}
	cfg.Telemetry.SetKernels(telemetry.Kernels{Float: hdc.KernelPath(), Packed: bitpack.KernelPath()})
	// A versioned model's collector reads the live version at every
	// snapshot (cyberhd_model_version), so hot reloads and shadow
	// promotions are observable from /stats and /metrics.
	if m, ok := cfg.Model.(*core.COWModel); ok {
		cfg.Telemetry.SetVersionSource(m.Version)
	}
	for _, s := range cfg.Sinks {
		if rl, ok := s.(*RateLimitSink); ok {
			rl.attachTelemetry(cfg.Telemetry)
		}
	}
	return cfg.Telemetry
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, tel: resolveTelemetry(&cfg)}
	e.asm = netflow.NewAssembler(netflow.CICIdleTimeout, netflow.CICActivityGap, e.onFlow)
	n := max(cfg.BatchSize, 1)
	e.pendX = hdc.NewMatrix(n, netflow.NumFeatures)
	e.pendFlows = make([]*netflow.Flow, 0, n)
	e.pendDone = make([]float64, 0, n)
	e.preds = make([]int, n)
	if len(cfg.Sinks) > 0 {
		e.out = newEgress(cfg.Sinks)
	}
	return e, nil
}

// Feed processes one packet: a run of one. Packets must arrive in time
// order. After Close it is a defined no-op.
func (e *Engine) Feed(p netflow.Packet) { e.FeedRun([]netflow.Packet{p}) }

// FeedRun processes pkts in order, exactly as one Feed per packet would,
// but checks for Close and a flush in progress, and counts the packets,
// once per run. The run is counted before its first packet is ingested,
// so no reader sees a flow or verdict ahead of the packets that made it.
// A type that embeds an Engine and overrides Feed must override FeedRun
// too: the promoted FeedRun never calls its Feed. An alert callback that
// closes the engine mid-run leaves the rest of the run not ingested, and
// uncounted again by the time FeedRun returns; one that feeds has its
// packets applied, in order, when the flush emitting its alert returns.
// After Close it is a defined no-op.
func (e *Engine) FeedRun(pkts []netflow.Packet) {
	// A copy of the run is made only mid-flush.
	if e.closed || len(pkts) == 0 || e.flushing && e.queued(streamMsg{pkts: slices.Clone(pkts)}) {
		return
	}
	e.tel.AddPackets(len(pkts))
	for n := range pkts {
		if e.closed {
			e.tel.AddPackets(n - len(pkts))
			return
		}
		p := &pkts[n]
		if p.Time > e.now && finite(p.Time) {
			e.now = p.Time
		}
		e.asm.Add(p)
	}
	if e.out != nil {
		e.out.handoff()
	}
}

// FeedWithin processes one packet synchronously, reporting whether it was
// admitted. The synchronous engine has no ingress buffer whose space
// could be waited for, so admission succeeds whenever the engine is open,
// whatever the wait; after Close it returns false (the packet was not
// ingested).
func (e *Engine) FeedWithin(p netflow.Packet, _ time.Duration) bool {
	if e.closed {
		return false
	}
	e.Feed(p)
	return true
}

// Tick evicts flows idle at capture time now (call periodically on live
// streams with silence gaps) and drains any partially-filled micro-batch
// so verdict latency stays bounded during quiet periods. After Close it
// is a defined no-op.
func (e *Engine) Tick(now float64) {
	if e.closed || e.queued(streamMsg{kind: msgTick, tick: now}) {
		return
	}
	if now > e.now && finite(now) {
		e.now = now
	}
	e.asm.EvictIdle(now)
	e.flushBatch()
	if e.out != nil {
		e.out.handoff()
	}
}

// Flush completes all in-progress flows (end of capture), classifies
// everything still pending in the micro-batch buffer, and returns once
// every sink has consumed every alert. After Close it is a defined no-op.
func (e *Engine) Flush() {
	if e.closed || e.queued(streamMsg{kind: msgFlush}) {
		return
	}
	e.asm.Flush()
	e.flushBatch()
	if e.out != nil {
		e.out.drain()
	}
}

// Close drains the engine — for the synchronous Engine this is exactly
// Flush — ends its sink goroutine and retires it: later Feed/Tick/Flush
// calls are defined no-ops, per the Stream contract. Idempotent, also
// when an alert callback closes the engine during this Close's Flush.
func (e *Engine) Close() {
	if e.closed || e.queued(streamMsg{kind: msgClose}) {
		return
	}
	e.Flush()
	if e.closed {
		return // a callback's Close ran inside the Flush
	}
	e.closed = true
	if e.out != nil {
		e.out.close()
	}
}

// Stats returns a snapshot of the engine counters. Safe from any
// goroutine at any time (counters are atomic); exact after Close.
func (e *Engine) Stats() Stats { return StatsOf(e.tel.Snapshot()) }

// Telemetry returns the engine's collector for richer observation
// (latency histogram, suppression totals, Prometheus export).
func (e *Engine) Telemetry() *telemetry.Collector { return e.tel }

// queued reports whether the call m stands for waits: while a flush
// emits verdicts, what an alert callback calls is queued, and the flush
// applies it, in call order, when it returns.
func (e *Engine) queued(m streamMsg) bool {
	if e.flushing {
		e.deferred = append(e.deferred, m)
	}
	return e.flushing
}

// onFlow featurizes and normalizes one completed flow into the next row
// of the batch buffer, and classifies the batch once it is full — at once
// when BatchSize <= 1. Steady-state classification allocates nothing.
func (e *Engine) onFlow(f *netflow.Flow) {
	e.tel.FlowCompleted()
	i := len(e.pendFlows)
	c := e.pendX.Cols
	row := f.AppendFeatures(e.pendX.Data[i*c : i*c : (i+1)*c])
	e.cfg.Normalizer.ApplyVec(row)
	e.pendFlows = append(e.pendFlows, f)
	e.pendDone = append(e.pendDone, e.now)
	if len(e.pendFlows) == e.pendX.Rows {
		e.flushBatch()
	}
}

// flushBatch classifies all pending flows through one blocked batch
// predict, emits their verdicts in arrival order, recycling each flow
// once its alert is out, then applies the calls alert callbacks queued
// meanwhile, in call order. Each of those calls' own flushes applies what
// its callbacks queue, so the queue is empty again when this returns.
func (e *Engine) flushBatch() {
	n := len(e.pendFlows)
	if n == 0 {
		return
	}
	e.pendView = hdc.Matrix{Rows: n, Cols: e.pendX.Cols, Data: e.pendX.Data[:n*e.pendX.Cols]}
	e.cfg.Model.PredictBatchInto(&e.pendView, e.preds[:n])
	if e.cfg.Shadow != nil {
		// One candidate load per batch, so every row of this flush is
		// scored against the same shadow version.
		if m := e.cfg.Shadow.Get(); m != nil {
			for i := 0; i < n; i++ {
				e.tel.ShadowVerdict(e.preds[i], m.Predict(e.pendView.Row(i)) != e.preds[i])
			}
		}
	}
	e.flushing = true
	for i, f := range e.pendFlows {
		e.verdict(f, e.preds[i], e.pendDone[i])
		e.asm.Recycle(f) // its alert is out; a callback's Feed waits in deferred
	}
	e.flushing = false
	e.pendFlows = e.pendFlows[:0]
	e.pendDone = e.pendDone[:0]
	q := e.deferred
	e.deferred = nil
	for _, m := range q {
		e.dispatch(m)
	}
}

// verdict records one classification — counters plus the capture-time
// latency since the flow completed at doneAt — and raises an alert when
// non-benign (class 0 is benign).
func (e *Engine) verdict(f *netflow.Flow, class int, doneAt float64) {
	if class < 0 || class >= len(e.cfg.ClassNames) {
		class = 0 // defensive: never drop a flow on a bad verdict
	}
	alert := class != 0
	e.tel.Verdict(class, alert, e.now-doneAt)
	if alert && (e.cfg.OnAlert != nil || e.out != nil) {
		a := Alert{Flow: f, Class: class, ClassName: e.cfg.ClassNames[class], Time: f.LastTime}
		if e.cfg.OnAlert != nil {
			e.cfg.OnAlert(a)
		}
		if e.out != nil {
			e.out.add(&a)
		}
	}
}
