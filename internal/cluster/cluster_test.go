package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
	"cyberhd/internal/traffic"
)

// trained is the cluster tests' model — the pipeline package's test
// detector: same data, encoder and options — trained once per test binary
// and kept as snapshot bytes.
var trained struct {
	once  sync.Once
	snap  []byte
	norm  *datasets.Normalizer
	names []string
	err   error
}

// clusterModel returns a private copy of the shared model, decoded from
// its snapshot — bit-identical to the model trained — with its normalizer
// and class names.
func clusterModel(t testing.TB) (*core.Model, *datasets.Normalizer, []string) {
	t.Helper()
	trained.once.Do(func() {
		train := datasets.CICIDS2017(1500, 21)
		trainSet, _, norm := train.NormalizedSplit(0.9, 3)
		m, err := core.Train(
			encoder.NewRBF(trainSet.NumFeatures(), 512, 0, 5),
			trainSet.X, trainSet.Y,
			core.Options{Classes: trainSet.NumClasses(), Epochs: 8, RegenCycles: 3, RegenRate: 0.2, LearningRate: 0.1, Seed: 7},
		)
		if err != nil {
			trained.err = err
			return
		}
		var buf bytes.Buffer
		trained.err = core.SaveSnapshot(&buf, core.NewCOWModel(m))
		trained.snap, trained.norm, trained.names = buf.Bytes(), norm, train.ClassNames
	})
	if trained.err != nil {
		t.Fatal(trained.err)
	}
	m, _, err := core.DecodeSnapshot(bytes.NewReader(trained.snap))
	if err != nil {
		t.Fatal(err)
	}
	return m, trained.norm, trained.names
}

// startWorkers brings up n loopback workers and returns their addresses
// plus a shutdown func.
func startWorkers(t *testing.T, n int, cfg WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	return addrs
}

// TestClusterBitIdenticalToSingleProcess is the cluster's central pin:
// the same capture through one local engine and through a 2-worker
// loopback cluster gives bit-identical verdicts (versusSingle), and
// packets and flows are conserved exactly across the workers.
func TestClusterBitIdenticalToSingleProcess(t *testing.T) {
	pkts := traffic.Generate(traffic.Config{Sessions: 400, Seed: 99}).Packets
	_, st, client := versusSingle(t, pkts)

	// Every packet the ingest node routed is accounted for by exactly one
	// worker, and the workers together saw the capture.
	sent, snaps := client.SentPerWorker(), client.WorkerSnapshots()
	var sentTotal, seenTotal, flowTotal int64
	for i := range sent {
		if snaps[i].Packets != sent[i] {
			t.Fatalf("worker %d: sent %d packets, settled telemetry reports %d", i, sent[i], snaps[i].Packets)
		}
		if sent[i] == 0 {
			t.Fatalf("worker %d received no packets; the fan-out is vacuous", i)
		}
		sentTotal += sent[i]
		seenTotal += snaps[i].Packets
		flowTotal += snaps[i].Flows
	}
	if int(sentTotal) != len(pkts) || int(seenTotal) != len(pkts) {
		t.Fatalf("packet conservation: %d in capture, %d routed, %d settled", len(pkts), sentTotal, seenTotal)
	}
	if int(flowTotal) != st.Flows {
		t.Fatalf("flow conservation: single %d flows, workers settled %d", st.Flows, flowTotal)
	}
}

// tinyModel trains a small synthetic model (the control package's test
// idiom) whose geometry diverges from the serving model.
func tinyModel(t *testing.T, classes, inDim, dim int, seed uint64) *core.Model {
	t.Helper()
	r := rng.New(seed)
	x := hdc.NewMatrix(40*classes, inDim)
	y := make([]int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		y[i] = i % classes
		row := x.Row(i)
		for j := range row {
			row[j] = 2*float32(y[i]) + 0.3*r.NormFloat32()
		}
	}
	m, err := core.Train(encoder.NewRBF(inDim, dim, 0, seed+1), x, y,
		core.Options{Classes: classes, Epochs: 2, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterSnapshotReplicationGates pins the replication contract at
// both serving widths: a pushed snapshot clears each worker's
// control-plane gates or leaves that worker's serving version untouched —
// garbage fails decode, a wrong-geometry model fails validation, and a
// well-formed snapshot swaps every worker to one new version atomically.
// A worker serves the version the client's model carries: after the dial,
// after a push of a newly published model and in the settled telemetry,
// W1 included (packing at the hello's width is no publication).
func TestClusterSnapshotReplicationGates(t *testing.T) {
	for _, w := range []bitpack.Width{0, bitpack.W1} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			m, norm, names := clusterModel(t)
			addrs := startWorkers(t, 2, WorkerConfig{})
			cow := core.NewCOWModel(m)
			client, err := Dial(ClientConfig{
				Workers: addrs, Model: cow,
				Normalizer: norm, ClassNames: names, Width: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			servesCOW := func(when string) {
				t.Helper()
				for i, v := range client.WorkerVersions() {
					if v != cow.Version() {
						t.Fatalf("%s: worker %d serves version %d, the client's model is at %d", when, i, v, cow.Version())
					}
				}
			}
			servesCOW("after dial")

			// Garbage fails decode and a wrong-geometry model validation on
			// every worker, and no version moves.
			var wrong bytes.Buffer
			if err := core.SaveSnapshot(&wrong, core.NewCOWModel(tinyModel(t, len(names), 8, 64, 17))); err != nil {
				t.Fatal(err)
			}
			for _, bad := range [][]byte{[]byte("definitely not a model snapshot"), wrong.Bytes()} {
				results, err := client.PushSnapshotBytes(bad)
				if err == nil {
					t.Fatal("a bad push reported success")
				}
				for _, r := range results {
					if r.OK || r.Err == "" {
						t.Fatalf("worker %s accepted a bad snapshot: %+v", r.Worker, r)
					}
				}
				servesCOW("after a rejected push")
			}

			// The client publishes a new version and replicates it: accepted
			// everywhere, every worker advances exactly one version.
			next, _, _ := clusterModel(t)
			if err := cow.ReplaceModel(next); err != nil {
				t.Fatal(err)
			}
			results, err := client.PushSnapshot()
			if err != nil {
				t.Fatalf("valid push failed: %v", err)
			}
			for _, r := range results {
				if !r.OK || r.Version != cow.Version() {
					t.Fatalf("worker %s: valid push %+v, want accepted at version %d", r.Worker, r, cow.Version())
				}
			}
			servesCOW("after a push")
			client.Close()
			servesCOW("in the settled telemetry")
		})
	}
}

// TestDialRejectsBadConfig pins client-side configuration validation.
func TestDialRejectsBadConfig(t *testing.T) {
	m, norm, names := clusterModel(t)
	cow := core.NewCOWModel(m)
	for what, cfg := range map[string]ClientConfig{
		"zero workers":         {Model: cow, Normalizer: norm, ClassNames: names},
		"nil model":            {Workers: []string{"x"}, Normalizer: norm, ClassNames: names},
		"nil normalizer":       {Workers: []string{"x"}, Model: cow, ClassNames: names},
		"empty class names":    {Workers: []string{"x"}, Model: cow, Normalizer: norm},
		"a dead worker's addr": {Workers: []string{"127.0.0.1:1"}, Model: cow, Normalizer: norm, ClassNames: names},
	} {
		if _, err := Dial(cfg); err == nil {
			t.Errorf("Dial accepted %s", what)
		}
	}
}
