package cyberhd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/cluster"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
)

// verdict is one alert as the determinism contract sees it: which flow,
// which class, and the capture time of the flow's last packet. A multiset
// of these is independent of delivery order, so engines whose alert
// interleaving is scheduling-dependent compare equal to the sync one.
type verdict struct {
	Key      netflow.FlowKey
	Class    int
	LastTime float64
}

type verdicts map[verdict]int

func (v verdicts) add(a Alert) { v[verdict{a.Flow.Key, a.Class, a.Flow.LastTime}]++ }

// rewrite picks what contractTraffic does to a flow from its endpoints
// alone, so both directions pick alike: 0 moves it to IPv6, 1 tags it,
// anything else leaves it plain IPv4.
func rewrite(a, b netflow.Addr, pa, pb uint16) uint32 { return (a.V4() ^ b.V4() ^ uint32(pa^pb)) % 3 }

// contractTraffic returns the matrix's capture and its pure-v4 subset:
// generated sessions with a third of the flows moved to an IPv6 site and a
// third carrying an 802.1Q tag, so the v2 capture records and the
// cluster's wide packet and alert records all carry verdicts, and every time
// on the nanosecond grid, so the PCAP replays bit-identically.
func contractTraffic() (mixed, v4 []netflow.Packet) {
	mixed = GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77}).Packets
	for i := range mixed {
		p := &mixed[i]
		p.Time = netflow.RoundToNanos(p.Time)
		switch rewrite(p.SrcIP, p.DstIP, p.SrcPort, p.DstPort) {
		case 0:
			for _, a := range []*netflow.Addr{&p.SrcIP, &p.DstIP} {
				b := [16]byte{0x20, 0x01, 0x0d, 0xb8}
				copy(b[12:], a[12:])
				*a = netflow.AddrFrom16(b)
			}
			// The IPv6 header is 20 bytes longer than the IPv4 one.
			p.HeaderLen += 20
			p.Length += 20
		case 1:
			p.VLAN = 42
		default:
			v4 = append(v4, *p)
		}
	}
	return mixed, v4
}

// packedOracle is the W1 model as the paper defines it, sharing no
// serving state with quantize.Model: each query is Enc's float encoding
// packed whole by bitpack.Quantize and scored against the full class
// memory by the stateless Matrix.Classify, one query at a time. So no
// live view, sign kernel or compact memory stands between it and a cell.
type packedOracle struct{ q *quantize.Model }

func (o packedOracle) Predict(x []float32) int {
	h := make([]float32, o.q.Enc.Dim())
	o.q.Enc.Encode(x, h)
	return o.q.Class.Classify(bitpack.Quantize(h, bitpack.W1))
}

func (o packedOracle) PredictBatchInto(x *hdc.Matrix, out []int) {
	for i := range out {
		out[i] = o.Predict(x.Row(i))
	}
}

// TestContractMatrix is the determinism and conservation contracts as one
// table: both serving widths, float and W1, on every engine at both batch
// settings must reproduce a hand-driven synchronous engine over the same
// packets — the same verdict multiset, the same Stats, and offered ==
// processed + dropped with nothing dropped on these lossless paths. The
// oracle takes no ticks, reads memory, and at W1 classifies through
// packedOracle over the class memory quantize.FromCore packs; the cells
// serve the width their model carries — engines a quantize.FromCore
// pack, snapshot variants a loaded COWModel bound by AttachW1, the
// cluster its hello's Width — through the Runner's auto-tick and drain,
// every packet source netflow.Open reads, a permissive admission gate
// and a snapshot save→load of the model. Cluster cells also conserve
// packets per worker. The offline widths W2–W32 keep their rows as
// refusal cells: every engine refuses a model packed at them, and the
// cluster the width, with pipeline.CheckWidth's message. No cell writes
// to the model it is handed: the shared COWModel ends at version 1 with
// nothing derived.
func TestContractMatrix(t *testing.T) {
	det := trainedDetector(t)
	mixed, v4 := contractTraffic()

	var fleet []string
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker("127.0.0.1:0", cluster.WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		fleet = append(fleet, w.Addr())
	}
	// The wrapper publishes the float model as is; nothing mutates a
	// trained model, so it stays readable alongside.
	cow := NewCOWModel(det.Model)
	var snap bytes.Buffer
	if err := core.SaveSnapshot(&snap, cow); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	write := func(name string, pkts []netflow.Packet, to func(io.Writer, []netflow.Packet) error) string {
		var buf bytes.Buffer
		if err := to(&buf, pkts); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Each serving width × engine × batch cell runs all four variants, so
	// every source, both gate settings and both models meet every cell.
	variants := []struct {
		source     string
		v4         bool   // replays the pure-v4 subset
		path       string // "" replays from memory
		gate, load bool
	}{
		{"slice", false, "", false, false},
		{"capture-v1", true, write("v4.cap", v4, netflow.WriteCapture), true, true},
		{"capture-v2", false, write("mixed.cap", mixed, netflow.WriteCapture), false, true},
		{"pcap", false, write("mixed.pcap", mixed, netflow.WritePCAP), true, false},
	}
	// admitAll is a bounded policy that never refuses: a wait no lossless
	// engine runs out, and no load evaluation within the capture.
	admitAll := pipeline.OverloadPolicy{MaxWait: time.Hour, EvalEvery: math.MaxInt}

	// Engines serve cfg.Model; the cluster replicates m and serves it at
	// width w.
	engines := []struct {
		name  string
		build func(EngineConfig, *COWModel, Width) (Stream, error)
	}{
		{"sync", func(cfg EngineConfig, _ *COWModel, _ Width) (Stream, error) { return pipeline.NewStream(cfg) }},
		{"concurrent", func(cfg EngineConfig, _ *COWModel, _ Width) (Stream, error) { return pipeline.NewConcurrent(cfg, 0) }},
		{"sharded-4", func(cfg EngineConfig, _ *COWModel, _ Width) (Stream, error) {
			cfg.Shards = 4
			return pipeline.NewStream(cfg)
		}},
		{"cluster-2", func(cfg EngineConfig, m *COWModel, w Width) (Stream, error) {
			return cluster.Dial(cluster.ClientConfig{
				Workers: fleet, Model: m, Normalizer: cfg.Normalizer, ClassNames: cfg.ClassNames,
				BatchSize: cfg.BatchSize, Width: w, OnAlert: cfg.OnAlert,
			})
		}},
	}

	type outcome struct {
		verdicts verdicts
		stats    EngineStats
	}
	oracle := func(w Width, pkts []netflow.Packet) outcome {
		cfg := det.EngineConfig()
		if w != 0 {
			q, err := quantize.FromCore(det.Model, w)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = packedOracle{q}
		}
		o := outcome{verdicts: verdicts{}}
		cfg.OnAlert = o.verdicts.add
		ref, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			ref.Feed(pkts[i])
		}
		ref.Flush()
		o.stats = ref.Stats()
		if o.stats.Alerts == 0 || o.stats.Packets != len(pkts) {
			t.Fatalf("width %d: degenerate oracle %+v over %d packets", w, o.stats, len(pkts))
		}
		return o
	}
	v6, tagged := 0, 0
	for v := range oracle(0, mixed).verdicts {
		k := v.Key
		if !k.IPA.Is4() {
			v6++
		} else if rewrite(k.IPA, k.IPB, k.PortA, k.PortB) == 1 {
			tagged++
		}
	}
	if v6 == 0 || tagged == 0 {
		t.Fatalf("%d IPv6 and %d VLAN-tagged flows alert; the v2 encodings carry no verdict", v6, tagged)
	}

	for _, w := range []Width{0, W1, W2, W4, W8, W16, W32} {
		// served is the model engines are handed at w.
		var served pipeline.Classifier = det.Model
		if w != 0 {
			q, err := quantize.FromCore(det.Model, w)
			if err != nil {
				t.Fatal(err)
			}
			served = q
		}
		if want := pipeline.CheckWidth(w); want != nil {
			for _, e := range engines {
				for _, batch := range []int{0, 64} {
					t.Run(fmt.Sprintf("w%d/%s/batch%d", w, e.name, batch), func(t *testing.T) {
						cfg := det.EngineConfig()
						cfg.Model, cfg.BatchSize = served, batch
						if _, err := e.build(cfg, cow, w); err == nil || !strings.Contains(err.Error(), want.Error()) {
							t.Fatalf("build at an offline width: %v, want %q", err, want)
						}
					})
				}
			}
			continue
		}
		wants := [2]outcome{oracle(w, mixed), oracle(w, v4)}
		for _, e := range engines {
			for _, batch := range []int{0, 64} {
				for i, v := range variants {
					name := fmt.Sprintf("w%d/%s/batch%d", w, e.name, batch)
					if i > 0 {
						name += "/" + v.source
						if v.gate {
							name += "+gate"
						}
						if v.load {
							name += "+snapshot"
						}
					}
					t.Run(name, func(t *testing.T) {
						pkts, want := mixed, wants[0]
						if v.v4 {
							pkts, want = v4, wants[1]
						}
						got := verdicts{}
						cfg := det.EngineConfig()
						cfg.Model, cfg.BatchSize, cfg.OnAlert = served, batch, got.add
						model := cow
						if v.load {
							loaded, _, err := core.LoadSnapshot(bytes.NewReader(snap.Bytes()))
							if err != nil {
								t.Fatal(err)
							}
							if w == W1 {
								AttachW1(loaded)
							}
							cfg.Model, model = loaded, loaded
						}
						stream, err := e.build(cfg, model, w)
						if err != nil {
							t.Fatal(err)
						}
						driven := stream
						if v.gate {
							driven = pipeline.NewGate(stream, admitAll)
						}
						var source PacketSource = NewSliceSource(pkts)
						if v.path != "" {
							f, err := netflow.Open(v.path)
							if err != nil {
								t.Fatal(err)
							}
							defer func() {
								if n := f.Skipped(); n != 0 {
									t.Errorf("%s: %d frames skipped", v.source, n)
								}
								f.Close()
							}()
							source = f
						}
						st, err := (&Runner{Stream: driven, Source: source}).Run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						if st.Packets+st.DroppedTotal() != len(pkts) || st.DroppedTotal() != 0 {
							t.Errorf("conservation: offered %d, processed %d, dropped %d on a lossless path",
								len(pkts), st.Packets, st.DroppedTotal())
						}
						if !reflect.DeepEqual(st, want.stats) {
							t.Errorf("stats %+v, hand-driven sync engine %+v", st, want.stats)
						}
						if !reflect.DeepEqual(got, want.verdicts) {
							t.Errorf("verdict multiset differs from the hand-driven sync engine: %d distinct alerts, want %d",
								len(got), len(want.verdicts))
						}
						if c, ok := stream.(*cluster.Client); ok {
							if err := c.Err(); err != nil {
								t.Errorf("cluster transport: %v", err)
							}
							sent, settled := c.SentPerWorker(), c.WorkerSnapshots()
							var total int64
							for i := range sent {
								if sent[i] == 0 || settled[i].Packets != sent[i] {
									t.Errorf("worker %d: routed %d packets, settled %d", i, sent[i], settled[i].Packets)
								}
								total += sent[i]
							}
							if int(total) != len(pkts) {
								t.Errorf("workers were routed %d of %d packets", total, len(pkts))
							}
						}
					})
				}
			}
		}
	}
	if cow.Version() != 1 || cow.Snapshot().Derived() != nil {
		t.Fatalf("the cells wrote to the shared model: version %d, derived %T", cow.Version(), cow.Snapshot().Derived())
	}
}
