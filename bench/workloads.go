package main

import (
	"bytes"
	"fmt"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

// engineKind is the serving path a workload's timed passes drive.
type engineKind int

const (
	engineSync    engineKind = iota // Runner → pipeline.Engine
	engineSharded                   // Runner → pipeline.Sharded (2 shards)
	engineCluster                   // cluster.Client.Runner → 2 loopback workers
	engineNone                      // train: no serving path in the timed passes
)

// Fixed by the load model: both cores of this box, one shard or worker
// per core, workers dialled over the host loopback interface.
const (
	procs        = 2
	shards       = 2
	clusterNodes = 2
)

// workload is one named input shape plus the configuration it is served
// with. Sizes are frozen here; README.md records why each exists.
type workload struct {
	Name string
	Why  string

	Engine   engineKind
	Sessions int                       // traffic.Config.Sessions (train: CICIDS2017 sessions)
	Duration float64                   // traffic.Config.Duration (0: the generator's default)
	Mix      map[traffic.Label]float64 // nil: traffic.DefaultMix
	V6Frac   float64                   // share of flows rewritten into 2001:db8::/32
	VLAN     uint16                    // 802.1Q tag on every frame (0: untagged)
	PCAP     bool                      // replay through netflow.NewPCAPSource

	Quant bitpack.Width // 0 serves float32
	Batch int           // pipeline.Config.BatchSize
	JSONL bool          // JSONLSink to io.Discard on the alert path
}

// modelSessions sizes the training set of every serving detector
// (datasets.CICIDS2017(modelSessions), D = 512) — the `cyberhd detect
// -train` shape.
const modelSessions = 1500

var workloads = []workload{
	{
		Name:   "serve_bulk",
		Why:    "elephant flows (~170 pkts/flow) through the sync engine: the per-packet path dominates, so flow-table and packet-path changes show and model changes must not",
		Engine: engineSync, Sessions: 3000,
		Mix: map[traffic.Label]float64{traffic.Benign: 0.5, traffic.DoS: 0.3, traffic.DDoS: 0.2},
	},
	{
		Name:   "serve_short",
		Why:    "scan/flood storm (~4 pkts/flow, ~13k live flows) in the edge configuration (W1, batch 64, JSONL sink): per-flow encode/score, eviction and allocation dominate",
		Engine: engineSync, Sessions: 10000, Duration: 300,
		Mix:   map[traffic.Label]float64{traffic.PortScan: 0.7, traffic.BruteForce: 0.1, traffic.Benign: 0.2},
		Quant: bitpack.W1, Batch: 64, JSONL: true,
	},
	{
		Name:   "pcap_sharded",
		Why:    "PCAP bytes with 30% IPv6 flows and VLAN tags into 2 shards: the only workload paying container and frame decode, 16-byte address hashing and the feeder-to-shard handoff",
		Engine: engineSharded, Sessions: 800, V6Frac: 0.3, VLAN: 100, PCAP: true, Batch: 64,
	},
	{
		Name:   "cluster_loopback",
		Why:    "one capture fanned out to 2 loopback workers: the only workload on the wire codec, per-worker write path, alert merge and telemetry rollup",
		Engine: engineCluster, Sessions: 4000, Batch: 64,
	},
	{
		Name:   "train",
		Why:    "TrainDetector at the paper's configuration (D=512, 8 epochs, 7 regeneration cycles): the training-efficiency claim, and the guard that serving-side kernel changes do not pay for themselves here",
		Engine: engineNone, Sessions: 3000,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// derive gives each generated input its own seed (splitmix64 of a seed
// and a tag), so the capture and the detector's training set never share
// a generator stream.
func derive(seed uint64, tag uint64) uint64 { return mix64(seed + tag*0x9e3779b97f4a7c15) }

const (
	tagCapture = 1 // the workload's packet capture (train: its dataset)
	tagModel   = 2 // the serving detector's training set
	tagConfig  = 3 // cyberhd.Config.Seed of every TrainDetector call
)

// detectorSeed fixes the serving detector. The run seed derives the
// workload — the capture, the PCAP bytes, train's dataset — but the
// detector is configuration, not input: trained per run seed, the W1
// model's accuracy on the scan mix ranged from 0.02 to 0.65 over ten
// seeds, and with it the alert share and every per-flow cost, so no two
// seeds measured the same system.
const detectorSeed = 1

// inputs is everything generated from the seed before the program under
// test sees a byte.
type inputs struct {
	Packets []netflow.Packet
	Labels  map[netflow.FlowKey]traffic.Label
	PCAP    []byte            // PCAP workloads: the capture as pcap bytes
	Dataset *datasets.Dataset // train: the labelled flow table
	GenS    float64           // load-generator time, outside every metric but traffic.gen_s
}

// sessions scales a session count for -quick runs.
func sessions(n, div int) int {
	if n/div < 40 {
		return 40
	}
	return n / div
}

// generate builds the workload's inputs from the seed. div > 1 shrinks
// every size (the -quick smoke).
func (w *workload) generate(seed uint64, div int) (*inputs, error) {
	start := time.Now()
	cfg := traffic.Config{
		Sessions: sessions(w.Sessions, div), Duration: w.Duration,
		Mix: w.Mix, Seed: derive(seed, tagCapture),
	}
	s := traffic.Generate(cfg)
	in := &inputs{Packets: s.Packets, Labels: s.Labels}
	if w.V6Frac > 0 || w.VLAN > 0 || w.PCAP {
		in.Labels = rewriteTraffic(in.Packets, in.Labels, w.V6Frac, w.VLAN, w.PCAP)
	}
	if w.PCAP {
		var buf bytes.Buffer
		if err := netflow.WritePCAP(&buf, in.Packets); err != nil {
			return nil, fmt.Errorf("%s: writing pcap: %w", w.Name, err)
		}
		in.PCAP = buf.Bytes()
	}
	if w.Engine == engineNone {
		// datasets.CICIDS2017(sessions, seed) is exactly this stream
		// assembled into labelled flow rows.
		in.Dataset = datasets.FromStream("cic-ids-2017", s, traffic.LabelNames(),
			func(l traffic.Label) int { return int(l) })
	}
	in.GenS = time.Since(start).Seconds()
	return in, nil
}

// rewriteTraffic is the address-plane mapping `nidsgen -v6/-vlan` applies
// (cmd/nidsgen is package main, so the ~20 lines are repeated here): a
// deterministic per-flow IPv6 rewrite with both endpoints moving
// together, an 802.1Q tag, and nanosecond-grid timestamps so PCAP replay
// is bit-identical. It returns the labels re-keyed to the rewritten flows.
func rewriteTraffic(packets []netflow.Packet, labels map[netflow.FlowKey]traffic.Label,
	v6Frac float64, vlan uint16, forPCAP bool) map[netflow.FlowKey]traffic.Label {
	threshold := uint64(v6Frac * (1 << 16))
	out := make(map[netflow.FlowKey]traffic.Label, len(labels))
	for i := range packets {
		p := &packets[i]
		old, _ := netflow.KeyOf(p)
		if threshold > 0 && flowElect(p.SrcIP, p.DstIP) < threshold {
			p.SrcIP, p.DstIP = toV6Site(p.SrcIP), toV6Site(p.DstIP)
			// The 20-byte IPv4 header grows to the 40-byte IPv6 header.
			p.HeaderLen += 20
			p.Length += 20
		}
		p.VLAN = vlan
		if forPCAP {
			p.Time = netflow.RoundToNanos(p.Time)
		}
		if l, ok := labels[old]; ok {
			key, _ := netflow.KeyOf(p)
			out[key] = l
		}
	}
	return out
}

// flowElect hashes the unordered endpoint pair into [0, 1<<16): both
// directions of a flow land on the same side of the v6 threshold.
func flowElect(src, dst netflow.Addr) uint64 {
	a, b := src.V4(), dst.V4()
	if b < a {
		a, b = b, a
	}
	h := uint64(0xcbf29ce484222325)
	for _, v := range [...]uint32{a, b} {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 0x100000001b3
		}
	}
	return h % (1 << 16)
}

// toV6Site embeds a v4 host in the 2001:db8::/32 documentation site.
func toV6Site(a netflow.Addr) netflow.Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	v := a.V4()
	b[12], b[13], b[14], b[15] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return netflow.AddrFrom16(b)
}
