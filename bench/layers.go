package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/cluster"
	"cyberhd/internal/control"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/telemetry"
)

// decodeProbeFrames caps the PCAP the decode stage reads on workloads
// that do not replay PCAP themselves (an elephant-flow capture is
// hundreds of megabytes as frames); PCAP workloads decode their own
// bytes in full.
const decodeProbeFrames = 100_000

// tenantRate is the fixed per-tenant policing rate (packets per capture
// second) of the gate's drop-accounting probe.
const tenantRate = 500

// layers is the traced run of one workload: the same layer budget for
// every workload, taken over that workload's capture and served at that
// workload's width, batch size and sink.
type layers struct {
	w   *workload
	in  *inputs
	s   *served
	ref *reference
	o   options
	rec *recorder
	res *result
	tr  *tracer

	pkts    []netflow.Packet
	nPkts   float64
	nFlows  float64
	w1      *quantize.Model // the W1 model every workload's quantize probes use
	n       int             // passes per repeated group
	tHand   time.Duration   // median hand-driven sync engine pass, the base of every ratio
	tEngine time.Duration   // tHand minus the benchmark's own replay loop
}

// keep defeats dead-code elimination of the pure stages.
var keep uint64

func runLayers(w *workload, in *inputs, o options, rec *recorder, res *result) error {
	if err := ensureOutDir(o.OutDir); err != nil {
		return err
	}
	s, err := repeatSetup(w, o, rec)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := buildReference(s, in)
	if err != nil {
		return err
	}
	if o.breakReference {
		ref.FP.Sum++
	}
	in.Labels = nil // ground truth is spent; do not keep it alive through the passes
	l := &layers{
		w: w, in: in, s: s, ref: ref, o: o, rec: rec, res: res, tr: newTracer(),
		pkts: in.Packets, nPkts: float64(len(in.Packets)), nFlows: float64(ref.Stats.Flows),
	}
	res.Sizes["pkts"], res.Sizes["flows"], res.Sizes["alerts"] = len(in.Packets), ref.Stats.Flows, ref.Stats.Alerts
	rec.add("traffic.gen_s", in.GenS)
	rec.add("traffic.pkts", l.nPkts)
	rec.add("traffic.flows", l.nFlows)
	rec.add("traffic.pkts_per_flow", l.nPkts/l.nFlows)

	if err := l.modelPlane(); err != nil {
		return err
	}
	if err := l.engines(); err != nil {
		return err
	}
	if err := l.clusterLayer(); err != nil {
		return err
	}
	if err := l.trainingLayer(); err != nil {
		return err
	}
	l.telemetryLayer()
	return l.tr.write(filepath.Join(o.OutDir, "trace-"+w.Name+".jsonl"))
}

// reps sizes a group of repeated passes: a tenth of the run's seconds,
// at least 3 and at most 9 passes, so every reported number is a median.
func (l *layers) reps(pass time.Duration) int {
	if l.o.Quick {
		return 1
	}
	n := int(l.o.Seconds / 10 / pass.Seconds())
	if n < 3 {
		n = 3
	}
	if n > 9 {
		n = 9
	}
	return n
}

// passes drives the capture n times through streams built by mk,
// verifying every pass against the reference (plus settled, when set).
func (l *layers) passes(name string, n int, mk func(func(pipeline.Alert)) (pipeline.Stream, error),
	settled func(pipeline.Stream) string) (feed, total []time.Duration, err error) {
	for i := 0; i < n; i++ {
		var fp fingerprint
		s, err := mk(func(a pipeline.Alert) { fp.add(&a) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		runtime.GC() // as in the end-to-end run: every pass starts from a collected heap
		f, t := drive(s, l.pkts, driveOpts{})
		feed, total = append(feed, f), append(total, t)
		l.verify(name, s.Stats(), fp)
		if settled != nil {
			if why := settled(s); why != "" {
				l.res.fail(len(l.pkts), name+": "+why)
			}
		}
	}
	return feed, total, nil
}

// verify counts one pass and fails it when it differs from the reference.
func (l *layers) verify(name string, st pipeline.Stats, fp fingerprint) {
	l.res.Passes++
	l.res.Attempted += len(l.pkts)
	if why := l.ref.check(st, fp, len(l.pkts)); why != "" {
		l.res.fail(len(l.pkts), name+": "+why)
	}
}

// engines measures the engine layer: untraced baselines, the
// stage-isolating replay and the traced engine pass (both under a CPU
// profile), then the gate, sharded and concurrent variants.
func (l *layers) engines() error {
	syncEngine := func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
		return pipeline.New(l.s.engineConfig(0, onAlert))
	}
	// One pass to size the groups, then the hand-driven baseline every
	// ratio below is taken against.
	_, first, err := l.passes("sync", 1, syncEngine, nil)
	if err != nil {
		return err
	}
	n := l.reps(first[0])
	_, hand, err := l.passes("sync", n, syncEngine, nil)
	if err != nil {
		return err
	}
	tHand := medianDur(hand)
	l.n, l.tHand = n, tHand
	var loop []time.Duration
	for i := 0; i < n; i++ {
		_, d := drive(nullStream{}, l.pkts, driveOpts{})
		loop = append(loop, d)
	}
	l.tEngine = tHand - medianDur(loop)

	// The same engine under Runner.Run: what the runtime adds per packet,
	// and the engine's own flows/s and allocations.
	var run []time.Duration
	for i := 0; i < n; i++ {
		var fp fingerprint
		r, err := pipeline.NewRunner(l.s.engineConfig(0, func(a pipeline.Alert) { fp.add(&a) }), netflow.NewSliceSource(l.pkts))
		if err != nil {
			return err
		}
		runtime.GC()
		_, m0 := memNow()
		t0 := time.Now()
		st, err := r.Run(context.Background())
		d := time.Since(t0)
		_, m1 := memNow()
		if err != nil {
			return err
		}
		l.verify("runner", st, fp)
		run = append(run, d)
		l.rec.add("pipeline.flows_per_s", l.nFlows/d.Seconds())
		l.rec.add("pipeline.allocs_per_flow", float64(m1-m0)/l.nFlows)
	}
	l.rec.add("pipeline.runner_overhead_ns_per_pkt", nanos(medianDur(run)-tHand)/l.nPkts)

	prof, err := os.Create(filepath.Join(l.o.OutDir, l.w.Name+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	err = l.tracedPasses()
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Gate: bounded mode that never sheds (no tenant rate, a latency
	// bound nothing reaches), so the difference to plain Feed is the
	// admission path alone.
	_, gated, err := l.passes("gate", n, func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
		eng, err := pipeline.New(l.s.engineConfig(0, onAlert))
		if err != nil {
			return nil, err
		}
		return pipeline.NewGate(eng, pipeline.OverloadPolicy{Mode: pipeline.OverloadBounded, LatencyBound: 1e9}), nil
	}, nil)
	if err != nil {
		return err
	}
	l.rec.add("pipeline.gate_admit_ns_per_pkt", nanos(medianDur(gated)-tHand)/l.nPkts)

	// Gate with tenant policing on the capture clock: the drop count
	// repeats exactly, and offered == processed + dropped must hold.
	eng, err := pipeline.New(l.s.engineConfig(0, nil))
	if err != nil {
		return err
	}
	gate := pipeline.NewGate(eng, pipeline.OverloadPolicy{Mode: pipeline.OverloadBounded, LatencyBound: 1e9, TenantRate: tenantRate})
	drive(gate, l.pkts, driveOpts{})
	st := gate.Stats()
	l.res.Passes++
	l.res.Attempted += len(l.pkts)
	if st.Packets+st.DroppedTotal() != len(l.pkts) {
		l.res.fail(len(l.pkts), fmt.Sprintf("gate: offered %d != processed %d + dropped %d", len(l.pkts), st.Packets, st.DroppedTotal()))
	}
	l.rec.add("pipeline.gate_tenant_drops", float64(st.DroppedTotal()))

	// Sharded on both cores, and ROADMAP's question: one shard against
	// the single-worker Concurrent engine.
	sharded := func(k int) func(func(pipeline.Alert)) (pipeline.Stream, error) {
		return func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
			return pipeline.NewSharded(l.s.engineConfig(k, onAlert))
		}
	}
	feed2, total2, err := l.passes("sharded", n, sharded(shards), nil)
	if err != nil {
		return err
	}
	l.rec.add("pipeline.shard_feed_ns_per_pkt", nanos(medianDur(feed2))/l.nPkts)
	l.rec.add("pipeline.sharded_speedup_vs_sync", tHand.Seconds()/medianDur(total2).Seconds())
	_, total1, err := l.passes("sharded1", n, sharded(1), nil)
	if err != nil {
		return err
	}
	_, conc, err := l.passes("concurrent", n, func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
		return pipeline.NewConcurrent(l.s.engineConfig(0, onAlert), 0)
	}, nil)
	if err != nil {
		return err
	}
	l.rec.add("pipeline.concurrent_vs_sharded1", medianDur(conc).Seconds()/medianDur(total1).Seconds())
	return nil
}

// tracedPasses runs the traced part l.n times: the stage-isolating replay,
// then one full-engine pass with a span per feedChunk packets.
func (l *layers) tracedPasses() error {
	tHand, tEngine := l.tHand, l.tEngine
	w1, err := l.probeW1()
	if err != nil {
		return err
	}
	l.w1 = w1
	probe, frames, err := l.decodeProbe()
	if err != nil {
		return err
	}
	l.liveHeap()
	for pass := 1; pass <= l.n; pass++ {
		sum, err := l.stageReplay(pass, probe, frames)
		if err != nil {
			return err
		}
		l.rec.add("pipeline.stage_sum_over_pass", sum.Seconds()/tEngine.Seconds())
		l.rec.add("pipeline.engine_self_ns_per_flow", nanos(tEngine-sum)/l.nFlows)

		var clock float64
		var delays []float64
		var fp fingerprint
		eng, err := pipeline.New(l.s.engineConfig(0, func(a pipeline.Alert) {
			fp.add(&a)
			delays = append(delays, clock-a.Flow.LastTime)
		}))
		if err != nil {
			return err
		}
		runtime.GC()
		id := l.tr.begin("pipeline.engine_pass", 0, pass)
		_, total := drive(eng, l.pkts, driveOpts{clock: &clock, tr: l.tr, parent: id, pass: pass})
		l.tr.end(id, len(l.pkts))
		l.verify("traced", eng.Stats(), fp)
		l.rec.add("trace.overhead_share", (total.Seconds()-tHand.Seconds())/tHand.Seconds())

		chunks := l.tr.children(id, "pipeline.feed_chunk")
		perPkt := make([]float64, len(chunks))
		var worst time.Duration
		for i, c := range chunks {
			size := feedChunk
			if i == len(chunks)-1 {
				size = len(l.pkts) - i*feedChunk
			}
			perPkt[i] = nanos(c) / float64(size)
			if c > worst {
				worst = c
			}
		}
		sort.Float64s(perPkt)
		l.rec.add("pipeline.feed_ns_per_pkt_p50", quantileSorted(perPkt, 0.5))
		l.rec.add("pipeline.feed_ns_per_pkt_p99", quantileSorted(perPkt, 0.99))
		l.rec.add("pipeline.feed_chunk_max_us", micros(worst))

		// Capture-clock seconds from a flow's last packet to its alert;
		// on the sync engine this repeats exactly for a seed.
		mean, p99 := 0.0, 0.0
		if len(delays) > 0 {
			for _, d := range delays {
				mean += d
			}
			mean /= float64(len(delays))
			sort.Float64s(delays)
			p99 = quantileSorted(delays, 0.99)
		}
		l.rec.add("pipeline.detect_delay_mean_capture_s", mean)
		l.rec.add("pipeline.detect_delay_p99_capture_s", p99)
	}
	return nil
}

// probeW1 is the packed model of the quantize probes: the workload's own
// when it serves W1, otherwise packed here. Either way FromCore is timed.
func (l *layers) probeW1() (*quantize.Model, error) {
	t0 := time.Now()
	qm, err := quantize.FromCore(l.s.det.Model, bitpack.W1)
	if err != nil {
		return nil, err
	}
	l.rec.add("quantize.from_core_ms", millis(time.Since(t0)))
	l.rec.add("quantize.class_memory_bits", float64(qm.MemoryBits()))
	if l.s.qm != nil && l.s.qm.Width == bitpack.W1 {
		return l.s.qm, nil
	}
	return qm, nil
}

// decodeProbe returns the PCAP bytes the decode stage reads and how many
// frames they hold.
func (l *layers) decodeProbe() ([]byte, int, error) {
	if l.w.PCAP {
		return l.in.PCAP, len(l.pkts), nil
	}
	frames := len(l.pkts)
	if frames > decodeProbeFrames {
		frames = decodeProbeFrames
	}
	var buf bytes.Buffer
	if err := netflow.WritePCAP(&buf, l.pkts[:frames]); err != nil {
		return nil, 0, fmt.Errorf("%s: writing the decode probe: %w", l.w.Name, err)
	}
	return buf.Bytes(), frames, nil
}

// liveHeap replays the first half of the capture into an assembler that
// drops completed flows, and charges the flows still open with the heap
// the assembler alone keeps alive: collected heap with it, minus
// collected heap without it.
func (l *layers) liveHeap() {
	asm := netflow.NewAssembler(0, 0, nil)
	var tk ticker
	half := l.pkts[:len(l.pkts)/2]
	for i := range half {
		if b, ok := tk.crossed(half[i].Time); ok {
			asm.EvictIdle(b)
		}
		asm.Add(&half[i])
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with, live := ms.HeapAlloc, asm.Active()
	asm = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perFlow := 0.0
	if with > ms.HeapAlloc && live > 0 {
		perFlow = float64(with-ms.HeapAlloc) / float64(live)
	}
	l.rec.add("netflow.live_heap_bytes_per_flow", perFlow)
}

// stageReplay isolates the stages of the packet→verdict path over the
// workload's capture — decode → key/hash → assemble (with the Runner's
// 1 s ticks) → featurize → encode → score → sink — each stage fed the
// previous stage's output through the layer's public functions. It
// returns the sum of the stages the workload's engine configuration
// executes, for the stage_sum_over_pass cross-check.
func (l *layers) stageReplay(pass int, probe []byte, frames int) (time.Duration, error) {
	tr, rec := l.tr, l.rec
	// A stage keeps its whole output alive for the next one, which the
	// engine never does; with the collector running, marking that
	// growing heap would be charged to whichever stage it interrupts.
	// The stages run with it paused, so collection cost stays in the
	// engine pass and shows up in engine_self.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	root := tr.begin("stage_replay", 0, pass)
	defer func() { tr.end(root, len(l.pkts)) }()

	// decode: container + Ethernet/VLAN/IP/transport, PCAPSource.Next.
	src, err := netflow.NewPCAPSource(bytes.NewReader(probe))
	if err != nil {
		return 0, err
	}
	decoded := make([]netflow.Packet, 0, frames)
	var derr error
	d := tr.timed("netflow.decode", root, pass, frames, func() {
		var p netflow.Packet
		for {
			if derr = src.Next(&p); derr != nil {
				return
			}
			decoded = append(decoded, p)
		}
	})
	if derr != io.EOF {
		return 0, fmt.Errorf("%s: decode stage: %w", l.w.Name, derr)
	}
	if len(decoded)+src.Skipped() != frames {
		l.res.fail(frames, fmt.Sprintf("decode stage: %d decoded + %d skipped != %d frames", len(decoded), src.Skipped(), frames))
	}
	rec.add("netflow.decode_ns_per_pkt", nanos(d)/float64(frames))
	rec.add("netflow.decode_bytes_per_pkt", float64(len(probe))/float64(frames))
	rec.add("netflow.decode_skipped", float64(src.Skipped()))
	pkts := l.pkts
	if l.w.PCAP {
		pkts = decoded
	}

	// key/hash: what a sharder or cluster client pays per packet.
	var perShard [shards]float64
	d = tr.timed("netflow.key_hash", root, pass, len(pkts), func() {
		for i := range pkts {
			k, _ := netflow.KeyOf(&pkts[i])
			h := k.Hash()
			keep ^= h
			perShard[h%shards]++
		}
	})
	rec.add("netflow.key_hash_ns_per_pkt", nanos(d)/l.nPkts)
	rec.add("pipeline.shard_skew", skew(perShard[:]))

	// wire/capture record codec, the width the wire would pick per packet.
	d = tr.timed("netflow.record_codec", root, pass, len(pkts), func() {
		var buf [netflow.PacketRecordSizeV2]byte
		var q netflow.Packet
		for i := range pkts {
			if pkts[i].EncodableV1() {
				netflow.EncodePacketRecord(buf[:], &pkts[i])
				netflow.DecodePacketRecord(buf[:], &q)
			} else {
				netflow.EncodePacketRecordV2(buf[:], &pkts[i])
				netflow.DecodePacketRecordV2(buf[:], &q)
			}
			keep ^= uint64(q.Length)
		}
	})
	rec.add("netflow.record_codec_ns_per_pkt", nanos(d)/l.nPkts)

	// assemble: Assembler.Add, with EvictIdle at the Runner's ticks and
	// the end-of-capture Flush as child spans.
	flows := make([]*netflow.Flow, 0, int(l.nFlows))
	asm := netflow.NewAssembler(0, 0, func(f *netflow.Flow) { flows = append(flows, f) })
	liveMax := 0
	_, m0 := memNow()
	aid := tr.begin("netflow.assemble", root, pass)
	var tk ticker
	for i := range pkts {
		if b, ok := tk.crossed(pkts[i].Time); ok {
			if n := asm.Active(); n > liveMax {
				liveMax = n
			}
			tid := tr.begin("netflow.evict_idle", aid, pass)
			asm.EvictIdle(b)
			tr.end(tid, 1)
		}
		asm.Add(&pkts[i])
	}
	tr.timed("netflow.flush", aid, pass, asm.Active(), asm.Flush)
	sum := tr.end(aid, len(pkts))
	_, m1 := memNow()
	if len(flows) != l.ref.Stats.Flows {
		l.res.fail(len(pkts), fmt.Sprintf("assemble stage: %d flows, reference %d", len(flows), l.ref.Stats.Flows))
	}
	rec.add("netflow.assemble_ns_per_pkt", nanos(tr.self(aid))/l.nPkts)
	rec.add("netflow.assemble_allocs_per_flow", float64(m1-m0)/l.nFlows)
	rec.add("netflow.live_flows_at_tick_max", float64(liveMax))
	ticks := tr.children(aid, "netflow.evict_idle")
	tickP50, tickMax := 0.0, 0.0
	if len(ticks) > 0 {
		sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
		tickP50, tickMax = micros(ticks[len(ticks)/2]), micros(ticks[len(ticks)-1])
	}
	rec.add("netflow.evict_idle_us_per_tick_p50", tickP50)
	rec.add("netflow.evict_idle_us_per_tick_max", tickMax)

	// featurize: Flow.AppendFeatures + Normalizer.ApplyVec into one matrix.
	norm := l.s.det.Normalizer
	x := hdc.NewMatrix(len(flows), netflow.NumFeatures)
	d = tr.timed("netflow.featurize", root, pass, len(flows), func() {
		c := x.Cols
		for i, f := range flows {
			row := f.AppendFeatures(x.Data[i*c : i*c : (i+1)*c])
			norm.ApplyVec(row)
		}
	})
	sum += d
	rec.add("netflow.featurize_ns_per_flow", nanos(d)/l.nFlows)

	// encode and score, 64 flows at a time so the hypervectors stay in
	// cache as they do in the engine: every variant over the same rows.
	const rowsPerChunk = 64
	model := l.s.det.Model
	enc, scorer, dim := model.Enc, model.Scorer(), model.Dim()
	hRow, hBatch := hdc.NewMatrix(rowsPerChunk, dim), hdc.NewMatrix(rowsPerChunk, dim)
	preds := make([]int, len(flows))
	predsBatch := make([]int, rowsPerChunk)
	predsW1 := make([]int, rowsPerChunk)
	var encRow, encBatch, scoreRow, scoreBatch, scoreW1 time.Duration
	mismatch := 0
	for lo := 0; lo < len(flows); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > len(flows) {
			hi = len(flows)
		}
		n := hi - lo
		xv := hdc.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		hv := hdc.Matrix{Rows: n, Cols: dim, Data: hRow.Data[:n*dim]}
		hb := hdc.Matrix{Rows: n, Cols: dim, Data: hBatch.Data[:n*dim]}
		encRow += tr.timed("encoder.encode", root, pass, n, func() {
			for r := 0; r < n; r++ {
				enc.Encode(xv.Row(r), hv.Row(r))
			}
		})
		encBatch += tr.timed("encoder.encode_batch", root, pass, n, func() {
			encoder.EncodeBatchInto(enc, &xv, &hb)
		})
		scoreRow += tr.timed("core.score", root, pass, n, func() {
			for r := 0; r < n; r++ {
				preds[lo+r] = scorer.PredictEncoded(hv.Row(r))
			}
		})
		scoreBatch += tr.timed("core.score_batch", root, pass, n, func() {
			scorer.PredictBatchEncoded(&hb, predsBatch[:n])
		})
		scoreW1 += tr.timed("quantize.predict_encoded", root, pass, n, func() {
			for r := 0; r < n; r++ {
				predsW1[r] = l.w1.PredictEncoded(hv.Row(r))
			}
		})
		for r := 0; r < n; r++ {
			if predsBatch[r] != preds[lo+r] {
				mismatch++
			}
			if l.s.qm != nil {
				preds[lo+r] = predsW1[r] // the workload serves the packed verdicts
			}
		}
	}
	rec.add("encoder.encode_ns_per_flow", nanos(encRow)/l.nFlows)
	rec.add("encoder.encode_batch_ns_per_flow", nanos(encBatch)/l.nFlows)
	rec.add("core.score_ns_per_flow", nanos(scoreRow)/l.nFlows)
	rec.add("core.score_batch_ns_per_flow", nanos(scoreBatch)/l.nFlows)
	rec.add("quantize.predict_encoded_ns_per_flow", nanos(scoreW1)/l.nFlows)
	if l.w.Batch > 1 {
		sum += encBatch
	} else {
		sum += encRow
	}
	switch {
	case l.s.qm != nil:
		sum += scoreW1
	case l.w.Batch > 1:
		sum += scoreBatch
	default:
		sum += scoreRow
	}
	if mismatch > 0 {
		l.res.fail(len(pkts), fmt.Sprintf("score stage: %d batch verdicts differ from per-row verdicts", mismatch))
	}
	byClass := make([]int, len(l.ref.Stats.ByClass))
	for _, p := range preds {
		byClass[p]++
	}
	for c, n := range byClass {
		if n != l.ref.Stats.ByClass[c] {
			l.res.fail(len(pkts), fmt.Sprintf("score stage: class %d has %d verdicts, reference %d", c, n, l.ref.Stats.ByClass[c]))
			break
		}
	}

	// sink: JSONLSink.Consume on every non-benign verdict.
	sink := pipeline.NewJSONLSink(io.Discard)
	names := l.s.det.ClassNames
	alerts := 0
	d = tr.timed("pipeline.sink", root, pass, l.ref.Stats.Alerts, func() {
		for i, f := range flows {
			if c := preds[i]; c != 0 {
				sink.Consume(pipeline.Alert{Flow: f, Class: c, ClassName: names[c], Time: f.LastTime})
				alerts++
			}
		}
	})
	if err := sink.Err(); err != nil {
		return 0, err
	}
	perAlert := 0.0
	if alerts > 0 {
		perAlert = nanos(d) / float64(alerts)
	}
	rec.add("pipeline.sink_ns_per_alert", perAlert)
	if l.w.JSONL {
		sum += d
	}

	// telemetry: the collector calls the engine makes — one per packet,
	// two per flow.
	tel := telemetry.New(names)
	d = tr.timed("telemetry.hotpath", root, pass, len(flows), func() {
		for range pkts {
			tel.AddPackets(1)
		}
		for _, c := range preds {
			tel.FlowCompleted()
			tel.Verdict(c, c != 0, 0)
		}
	})
	sum += d
	rec.add("telemetry.hotpath_ns_per_flow", nanos(d)/l.nFlows)
	l.res.Passes++
	l.res.Attempted += len(pkts)
	return sum, nil
}

// skew is max over mean of a partition's loads.
func skew(loads []float64) float64 {
	total, worst := 0.0, 0.0
	for _, v := range loads {
		total += v
		if v > worst {
			worst = v
		}
	}
	if total == 0 {
		return 0
	}
	return worst / (total / float64(len(loads)))
}

// modelPlane times the model's way in and out of a serving process:
// snapshot save and load, and the control plane's validated swap.
func (l *layers) modelPlane() error {
	if err := l.s.startCluster(); err != nil { // also gives every workload its COW model
		return err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := core.SaveSnapshot(&buf, l.s.cow); err != nil {
		return err
	}
	l.rec.add("core.snapshot_save_ms", millis(time.Since(t0)))
	l.rec.add("core.snapshot_bytes", float64(buf.Len()))
	t0 = time.Now()
	loaded, _, err := core.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	l.rec.add("core.snapshot_load_ms", millis(time.Since(t0)))
	plane, err := control.New(control.Config{Model: loaded, Width: l.w.Quant})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := plane.Apply(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("control plane rejected the detector's own snapshot: %w", err)
	}
	l.rec.add("control.apply_ms", millis(time.Since(t0)))
	return nil
}

// clusterLayer measures the 2-worker loopback cluster over the capture:
// dial and snapshot replication, the client's feed path, the drain, and
// (through a byte-counting relay, one extra pass) the bytes on the wire.
func (l *layers) clusterLayer() error {
	n := l.n
	settled := func(s pipeline.Stream) string { return clusterSettled(s.(*cluster.Client)) }
	var clients []*cluster.Client
	feed, total, err := l.passes("cluster", n, func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
		t0 := time.Now()
		c, err := l.s.dial(onAlert)
		if err != nil {
			return nil, err
		}
		l.rec.add("cluster.dial_ms", millis(time.Since(t0)))
		clients = append(clients, c)
		return c, nil
	}, settled)
	if err != nil {
		return err
	}
	drain := make([]time.Duration, len(feed))
	for i := range feed {
		drain[i] = total[i] - feed[i]
	}
	l.rec.add("cluster.client_feed_ns_per_pkt", nanos(medianDur(feed))/l.nPkts)
	l.rec.add("cluster.drain_ms", millis(medianDur(drain)))
	l.rec.add("cluster.speedup_vs_sync", l.tHand.Seconds()/medianDur(total).Seconds())
	sent := clients[0].SentPerWorker()
	loads := make([]float64, len(sent))
	for i, v := range sent {
		loads[i] = float64(v)
	}
	l.rec.add("cluster.partition_skew", skew(loads))

	// Snapshot replication to live sessions.
	c, err := l.s.dial(nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	pushed, err := c.PushSnapshot()
	l.rec.add("cluster.push_snapshot_ms", millis(time.Since(t0)))
	c.Close()
	if err != nil {
		return err
	}
	for _, r := range pushed {
		if !r.OK {
			return fmt.Errorf("cluster: worker %s rejected the replicated snapshot: %s", r.Worker, r.Err)
		}
	}

	// Bytes on the wire, both directions, through bench-owned relays.
	relays := make([]*relay, 0, len(l.s.workers))
	wire := int64(0)
	closeRelays := func() {
		for _, r := range relays {
			wire += r.close()
		}
		relays = nil
	}
	defer closeRelays()
	addrs := make([]string, len(l.s.workers))
	for i, wk := range l.s.workers {
		r, err := newRelay(wk.Addr())
		if err != nil {
			return err
		}
		relays = append(relays, r)
		addrs[i] = r.addr()
	}
	_, _, err = l.passes("cluster-relay", 1, func(onAlert func(pipeline.Alert)) (pipeline.Stream, error) {
		return l.s.dialAddrs(addrs, onAlert)
	}, settled)
	if err != nil {
		return err
	}
	closeRelays() // the forwarders have ended, so the byte count is final
	l.rec.add("cluster.wire_bytes_per_pkt", float64(wire)/l.nPkts)
	return nil
}

// trainingLayer splits TrainDetector's fit on the detector's training set
// (train: on its own dataset): the whole fit at the paper's configuration,
// the marginal adaptive epoch and the marginal regeneration cycle.
func (l *layers) trainingLayer() error {
	ds := l.s.trainSet
	if l.in.Dataset != nil {
		ds = l.in.Dataset
	}
	cfg := trainConfig()
	train, _, _ := ds.NormalizedSplit(cfg.TrainFraction, cfg.Seed)
	fit := func(epochs, cycles int) (time.Duration, error) {
		enc := encoder.NewRBF(train.NumFeatures(), cfg.Dim, cfg.Gamma, cfg.Seed+1)
		t0 := time.Now()
		_, err := core.Train(enc, train.X, train.Y, core.Options{
			Classes: train.NumClasses(), Epochs: epochs, RegenCycles: cycles,
			RegenRate: cfg.RegenRate, LearningRate: cfg.LearningRate, Seed: cfg.Seed + 2,
		})
		return time.Since(t0), err
	}
	var ts [4]time.Duration
	for i, shape := range [4][2]int{{1, 0}, {3, 0}, {cfg.Epochs, 0}, {cfg.Epochs, cfg.RegenCycles}} {
		var err error
		if ts[i], err = fit(shape[0], shape[1]); err != nil {
			return err
		}
	}
	l.rec.add("core.train_full_ms", millis(ts[3]))
	l.rec.add("core.train_epoch_ms", millis(ts[1]-ts[0])/2)
	l.rec.add("core.regen_cycle_ms", millis(ts[3]-ts[2])/float64(cfg.RegenCycles))
	return nil
}

// telemetryLayer times one Snapshot read of a collector that has counted
// a capture's worth of traffic.
func (l *layers) telemetryLayer() {
	tel := telemetry.New(l.s.det.ClassNames)
	tel.AddPackets(len(l.pkts))
	for i := 0; i < 101; i++ {
		t0 := time.Now()
		snap := tel.Snapshot()
		l.rec.add("telemetry.snapshot_us", micros(time.Since(t0)))
		keep ^= uint64(snap.Packets)
	}
}

// nullStream admits everything and does nothing: driving it times the
// benchmark's own replay loop (ticker, interface call, packet copy),
// which is then taken out of the engine pass before the stage sum is
// held against it.
type nullStream struct{}

func (nullStream) Feed(netflow.Packet)                           {}
func (nullStream) TryFeed(netflow.Packet) bool                   { return true }
func (nullStream) FeedWithin(netflow.Packet, time.Duration) bool { return true }
func (nullStream) Tick(float64)                                  {}
func (nullStream) Flush()                                        {}
func (nullStream) Close()                                        {}
func (nullStream) Stats() pipeline.Stats                         { return pipeline.Stats{} }
func (nullStream) Snapshot() pipeline.Stats                      { return pipeline.Stats{} }
func (nullStream) Telemetry() *telemetry.Collector               { return nil }
func (nullStream) Feedback(*netflow.Flow, int) bool              { return false }
