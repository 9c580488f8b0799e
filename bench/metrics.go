package main

import (
	"fmt"
	"sort"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json lists the
// same rows; TestBenchmarkJSONMatchesCatalogue keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a user of the detector sees. Every workload
// reports every one (run with -trace 0). On `train` the unit of work is
// the training row — one labelled flow — because no packet is on that
// path; README.md spells each metric out per workload. The bounds are
// three times the widest spread two sets of ten seeds showed on this
// shared 2-vCPU box (README.md, "First measured numbers"), capped at the
// contract's 0.25.
var endToEnd = []metricDef{
	{"pkts_per_s", "packets/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns/pkt", "lower", 0.25},
	{"alloc_bytes_per_flow", "B/flow", "lower", 0.15},
	{"accuracy", "share", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run (-trace 1),
// named layer.metric after the module the time or count belongs to.
var perLayer = []metricDef{
	{"netflow.decode_ns_per_pkt", "ns/pkt", "lower", 0},
	{"netflow.decode_bytes_per_pkt", "B/pkt", "lower", 0},
	{"netflow.decode_skipped", "count", "lower", 0},
	{"netflow.key_hash_ns_per_pkt", "ns/pkt", "lower", 0},
	{"netflow.assemble_ns_per_pkt", "ns/pkt", "lower", 0},
	{"netflow.evict_idle_us_per_tick_p50", "us", "lower", 0},
	{"netflow.evict_idle_us_per_tick_max", "us", "lower", 0},
	{"netflow.live_flows_at_tick_max", "count", "lower", 0},
	{"netflow.assemble_allocs_per_flow", "allocs/flow", "lower", 0},
	{"netflow.live_heap_bytes_per_flow", "B/flow", "lower", 0},
	{"netflow.featurize_ns_per_flow", "ns/flow", "lower", 0},
	{"netflow.record_codec_ns_per_pkt", "ns/pkt", "lower", 0},
	{"encoder.encode_ns_per_flow", "ns/flow", "lower", 0},
	{"encoder.encode_batch_ns_per_flow", "ns/flow", "lower", 0},
	{"core.score_ns_per_flow", "ns/flow", "lower", 0},
	{"core.score_batch_ns_per_flow", "ns/flow", "lower", 0},
	{"quantize.predict_encoded_ns_per_flow", "ns/flow", "lower", 0},
	{"quantize.from_core_ms", "ms", "lower", 0},
	{"quantize.class_memory_bits", "bits", "lower", 0},
	{"core.train_full_ms", "ms", "lower", 0},
	{"core.train_epoch_ms", "ms", "lower", 0},
	{"core.regen_cycle_ms", "ms", "lower", 0},
	{"core.snapshot_save_ms", "ms", "lower", 0},
	{"core.snapshot_load_ms", "ms", "lower", 0},
	{"core.snapshot_bytes", "B", "lower", 0},
	{"control.apply_ms", "ms", "lower", 0},
	{"cluster.dial_ms", "ms", "lower", 0},
	{"cluster.push_snapshot_ms", "ms", "lower", 0},
	{"cluster.client_feed_ns_per_pkt", "ns/pkt", "lower", 0},
	{"cluster.wire_bytes_per_pkt", "B/pkt", "lower", 0},
	{"cluster.partition_skew", "ratio", "lower", 0},
	{"cluster.drain_ms", "ms", "lower", 0},
	{"cluster.speedup_vs_sync", "ratio", "higher", 0},
	{"pipeline.feed_ns_per_pkt_p50", "ns/pkt", "lower", 0},
	{"pipeline.feed_ns_per_pkt_p99", "ns/pkt", "lower", 0},
	{"pipeline.feed_chunk_max_us", "us", "lower", 0},
	{"pipeline.engine_self_ns_per_flow", "ns/flow", "lower", 0},
	{"pipeline.stage_sum_over_pass", "ratio", "lower", 0},
	{"pipeline.runner_overhead_ns_per_pkt", "ns/pkt", "lower", 0},
	{"pipeline.allocs_per_flow", "allocs/flow", "lower", 0},
	{"pipeline.flows_per_s", "flows/s", "higher", 0},
	{"pipeline.sink_ns_per_alert", "ns/alert", "lower", 0},
	{"pipeline.shard_feed_ns_per_pkt", "ns/pkt", "lower", 0},
	{"pipeline.shard_skew", "ratio", "lower", 0},
	{"pipeline.sharded_speedup_vs_sync", "ratio", "higher", 0},
	{"pipeline.concurrent_vs_sharded1", "ratio", "higher", 0},
	{"pipeline.gate_admit_ns_per_pkt", "ns/pkt", "lower", 0},
	{"pipeline.gate_tenant_drops", "count", "lower", 0},
	{"pipeline.detect_delay_mean_capture_s", "s", "lower", 0},
	{"pipeline.detect_delay_p99_capture_s", "s", "lower", 0},
	{"telemetry.hotpath_ns_per_flow", "ns/flow", "lower", 0},
	{"telemetry.snapshot_us", "us", "lower", 0},
	{"traffic.gen_s", "s", "lower", 0},
	{"traffic.pkts", "count", "higher", 0},
	{"traffic.flows", "count", "higher", 0},
	{"traffic.pkts_per_flow", "pkts/flow", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// recorder collects the samples of one run, checked against a catalogue.
type recorder struct {
	defs    map[string]metricDef
	samples map[string][]float64
}

func newRecorder(catalogue []metricDef) *recorder {
	r := &recorder{defs: map[string]metricDef{}, samples: map[string][]float64{}}
	for _, d := range catalogue {
		r.defs[d.Name] = d
	}
	return r
}

// add appends samples to a metric of the catalogue. A name outside it is
// a bug in the benchmark, caught by the smoke test.
func (r *recorder) add(name string, v ...float64) {
	if _, ok := r.defs[name]; !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.samples[name] = append(r.samples[name], v...)
}

// summaries reduces every metric, failing when the catalogue has one the
// run did not measure.
func (r *recorder) summaries() (map[string]summary, error) {
	out := make(map[string]summary, len(r.defs))
	var missing []string
	for name, d := range r.defs {
		s, ok := r.samples[name]
		if !ok || len(s) == 0 {
			missing = append(missing, name)
			continue
		}
		out[name] = summarize(d.Unit, s)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
