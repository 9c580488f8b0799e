package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"cyberhd"
	"cyberhd/internal/cluster"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
)

// served is a workload's detector, ready for its first packet: what
// setup_s pays for.
type served struct {
	w        *workload
	det      *cyberhd.Detector
	qm       *quantize.Model   // the packed model when the workload quantizes
	cow      *core.COWModel    // cluster: the serving authority the client replicates
	workers  []*cluster.Worker // cluster: the in-process loopback workers
	trainSet *datasets.Dataset

	setupS float64
}

// trainConfig is cyberhd.DefaultConfig (D = 512, 8 epochs, 7 regeneration
// cycles, R = 0.2) with the benchmark's fixed training seed.
func trainConfig() cyberhd.Config {
	cfg := cyberhd.DefaultConfig()
	cfg.Seed = derive(detectorSeed, tagConfig)
	return cfg
}

// setup does everything the program must do before the first packet can
// be fed: synthesize the training set, train the detector, pack it when
// the workload quantizes, build the engine (and for the cluster start
// the workers, dial them and replicate the snapshot). It is timed as a
// whole into setupS.
func (w *workload) setup(div int) (*served, error) {
	start := time.Now()
	s := &served{w: w}
	s.trainSet = datasets.CICIDS2017(sessions(modelSessions, div), derive(detectorSeed, tagModel))
	det, err := cyberhd.TrainDetector(s.trainSet, trainConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: training the serving detector: %w", w.Name, err)
	}
	s.det = det
	if w.Quant != 0 {
		if s.qm, err = quantize.FromCore(det.Model, w.Quant); err != nil {
			return nil, err
		}
	}
	switch w.Engine {
	case engineCluster:
		if err := s.startCluster(); err != nil {
			return nil, err
		}
		c, err := s.dial(nil)
		if err != nil {
			s.close()
			return nil, err
		}
		c.Close()
		if err := c.Err(); err != nil {
			s.close()
			return nil, err
		}
	case engineSharded:
		eng, err := pipeline.NewSharded(s.engineConfig(shards, nil))
		if err != nil {
			return nil, err
		}
		eng.Close()
	default:
		if _, err := pipeline.New(s.engineConfig(0, nil)); err != nil {
			return nil, err
		}
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// startCluster makes the detector the serving authority of clusterNodes
// in-process workers listening on the loopback interface. The model
// becomes the COW wrapper's working copy; nothing here updates it, so
// the float model stays readable alongside.
func (s *served) startCluster() error {
	if s.cow != nil {
		return nil
	}
	s.cow = core.NewCOWModel(s.det.Model)
	for i := 0; i < clusterNodes; i++ {
		wk, err := cluster.NewWorker("127.0.0.1:0", cluster.WorkerConfig{})
		if err != nil {
			s.close()
			return err
		}
		s.workers = append(s.workers, wk)
		// Serve returns nil once Close stops the listener; an accept
		// error would surface as a failed dial.
		go func() { _ = wk.Serve() }()
	}
	return nil
}

// close stops the loopback workers, waiting for their sessions to end.
func (s *served) close() {
	for _, wk := range s.workers {
		_ = wk.Close() // the listener's close error changes nothing here
	}
	s.workers = nil
}

// classifier is the model at the workload's serving width.
func (s *served) classifier() pipeline.Classifier {
	if s.qm != nil {
		return s.qm
	}
	return s.det.Model
}

// engineConfig assembles the workload's engine: its width, micro-batch
// and sink, with nShards > 1 for the sharded engine.
func (s *served) engineConfig(nShards int, onAlert func(pipeline.Alert)) pipeline.Config {
	cfg := pipeline.Config{
		Model: s.classifier(), Normalizer: s.det.Normalizer, ClassNames: s.det.ClassNames,
		BatchSize: s.w.Batch, Shards: nShards, OnAlert: onAlert,
	}
	if s.w.JSONL {
		cfg.Sinks = []pipeline.AlertSink{pipeline.NewJSONLSink(io.Discard)}
	}
	return cfg
}

// dial opens a fresh client session to the workers (via addrs when a
// relay stands in front of them).
func (s *served) dial(onAlert func(pipeline.Alert)) (*cluster.Client, error) {
	addrs := make([]string, len(s.workers))
	for i, wk := range s.workers {
		addrs[i] = wk.Addr()
	}
	return s.dialAddrs(addrs, onAlert)
}

func (s *served) dialAddrs(addrs []string, onAlert func(pipeline.Alert)) (*cluster.Client, error) {
	return cluster.Dial(cluster.ClientConfig{
		Workers: addrs, Model: s.cow, Normalizer: s.det.Normalizer,
		ClassNames: s.det.ClassNames, BatchSize: s.w.Batch, Width: s.w.Quant,
		OnAlert: onAlert,
	})
}

// fingerprint is an order-independent digest of a verdict set: one mixed
// hash per (flow key, class, LastTime) alert, folded commutatively, so
// the sharded and cluster paths — whose alert interleaving is
// scheduling-dependent — compare equal to the sorted reference.
type fingerprint struct {
	Sum, Xor uint64
	N        int
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (f *fingerprint) add(a *pipeline.Alert) {
	k := &a.Flow.Key
	h := mix64(binary.LittleEndian.Uint64(k.IPA[0:8]))
	h = mix64(h ^ binary.LittleEndian.Uint64(k.IPA[8:16]))
	h = mix64(h ^ binary.LittleEndian.Uint64(k.IPB[0:8]))
	h = mix64(h ^ binary.LittleEndian.Uint64(k.IPB[8:16]))
	h = mix64(h ^ uint64(k.PortA)<<32 ^ uint64(k.PortB)<<16 ^ uint64(k.Proto))
	h = mix64(h ^ uint64(a.Class))
	h = mix64(h ^ math.Float64bits(a.Flow.LastTime))
	f.Sum += h
	f.Xor ^= mix64(h)
	f.N++
}

// reference is what every pass must reproduce: the verdict fingerprint
// and counters of a plain hand-driven sync engine (same model and width,
// no batching, no ticks), plus the accuracy of those verdicts against
// the generator's ground truth.
type reference struct {
	Stats    pipeline.Stats
	FP       fingerprint
	Accuracy float64
}

func buildReference(s *served, in *inputs) (*reference, error) {
	ref := &reference{}
	cfg := s.engineConfig(0, func(a pipeline.Alert) { ref.FP.add(&a) })
	cfg.BatchSize, cfg.Sinks = 0, nil
	eng, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := range in.Packets {
		eng.Feed(in.Packets[i])
	}
	eng.Flush()
	ref.Stats = eng.Stats()

	// Accuracy, the way benchLabeledFlows maps labels: every assembled
	// flow whose key the generator labelled, class index = label.
	model, norm := s.classifier(), s.det.Normalizer
	byClass := make([]int, len(s.det.ClassNames))
	var row []float32
	labelled, right := 0, 0
	asm := netflow.NewAssembler(0, 0, func(f *netflow.Flow) {
		row = f.AppendFeatures(row[:0])
		norm.ApplyVec(row)
		pred := model.Predict(row)
		byClass[pred]++
		if l, ok := in.Labels[f.Key]; ok {
			labelled++
			if pred == int(l) {
				right++
			}
		}
	})
	for i := range in.Packets {
		asm.Add(&in.Packets[i])
	}
	asm.Flush()
	for c, n := range byClass {
		if n != ref.Stats.ByClass[c] {
			return nil, fmt.Errorf("%s: reference engine and hand-assembled verdicts disagree on class %d: %d vs %d",
				s.w.Name, c, ref.Stats.ByClass[c], n)
		}
	}
	if labelled == 0 {
		return nil, fmt.Errorf("%s: no ground-truth-labelled flows", s.w.Name)
	}
	ref.Accuracy = float64(right) / float64(labelled)
	return ref, nil
}

// check compares one pass's settled counters and fingerprint with the
// reference; the returned string names the first difference.
func (ref *reference) check(st pipeline.Stats, fp fingerprint, offered int) string {
	switch {
	case st.Packets+st.DroppedTotal() != offered:
		return fmt.Sprintf("conservation: offered %d != processed %d + dropped %d", offered, st.Packets, st.DroppedTotal())
	case st.DroppedTotal() != 0:
		return fmt.Sprintf("%d packets dropped on a lossless path", st.DroppedTotal())
	case st.Packets != ref.Stats.Packets || st.Flows != ref.Stats.Flows || st.Alerts != ref.Stats.Alerts:
		return fmt.Sprintf("counters: packets/flows/alerts %d/%d/%d, reference %d/%d/%d",
			st.Packets, st.Flows, st.Alerts, ref.Stats.Packets, ref.Stats.Flows, ref.Stats.Alerts)
	case fp != ref.FP:
		return fmt.Sprintf("verdict fingerprint %x/%x over %d alerts, reference %x/%x over %d",
			fp.Sum, fp.Xor, fp.N, ref.FP.Sum, ref.FP.Xor, ref.FP.N)
	}
	for c, n := range st.ByClass {
		if n != ref.Stats.ByClass[c] {
			return fmt.Sprintf("class %d: %d verdicts, reference %d", c, n, ref.Stats.ByClass[c])
		}
	}
	return ""
}

// passResult is one timed replay of the capture.
type passResult struct {
	Wall  time.Duration // first Feed/Runner.Run to Close settled
	CPU   time.Duration // process user+sys over the same interval
	Alloc uint64        // MemStats.TotalAlloc delta over the same interval
	Fail  string        // empty when the pass reproduced the reference
}

// pass replays the workload's input once through its serving path,
// closed loop: one feeder pushes as fast as the lossless blocking Feed
// admits. The engine (or client session) is built before the clock
// starts; verification runs after it stops.
func (s *served) pass(in *inputs, ref *reference) (passResult, error) {
	var res passResult
	var fp fingerprint
	onAlert := func(a pipeline.Alert) { fp.add(&a) }
	var src netflow.PacketSource = netflow.NewSliceSource(in.Packets)
	var pcap *netflow.PCAPSource
	if s.w.PCAP {
		var err error
		if pcap, err = netflow.NewPCAPSource(bytes.NewReader(in.PCAP)); err != nil {
			return res, err
		}
		src = pcap
	}
	var runner *pipeline.Runner
	var client *cluster.Client
	var err error
	switch s.w.Engine {
	case engineCluster:
		// A fresh session per pass; dialling it is set-up, not replay.
		if client, err = s.dial(onAlert); err != nil {
			return res, err
		}
		runner = client.Runner(src, 1)
	case engineSharded:
		runner, err = pipeline.NewRunner(s.engineConfig(shards, onAlert), src)
	default:
		runner, err = pipeline.NewRunner(s.engineConfig(0, onAlert), src)
	}
	if err != nil {
		return res, err
	}

	alloc0, _ := memNow()
	cpu0 := cpuNow()
	t0 := time.Now()
	st, runErr := runner.Run(context.Background())
	res.Wall = time.Since(t0)
	res.CPU = cpuNow() - cpu0
	alloc1, _ := memNow()
	res.Alloc = alloc1 - alloc0

	offered := len(in.Packets)
	switch {
	case runErr != nil:
		res.Fail = "runner: " + runErr.Error()
	case pcap != nil && st.Packets+pcap.Skipped() != offered:
		res.Fail = fmt.Sprintf("pcap: decoded %d + skipped %d != %d frames written", st.Packets, pcap.Skipped(), offered)
	default:
		res.Fail = ref.check(st, fp, offered)
	}
	if client != nil && res.Fail == "" {
		res.Fail = clusterSettled(client)
	}
	return res, nil
}

// clusterSettled checks the cluster's conservation contract after Close:
// no transport error, and every worker settled exactly the packets the
// client routed to it.
func clusterSettled(c *cluster.Client) string {
	if err := c.Err(); err != nil {
		return "cluster: " + err.Error()
	}
	sent, snaps := c.SentPerWorker(), c.WorkerSnapshots()
	for i := range sent {
		if sent[i] != snaps[i].Packets {
			return fmt.Sprintf("cluster: worker %d settled %d of %d packets sent", i, snaps[i].Packets, sent[i])
		}
	}
	return ""
}
