package cyberhd

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cyberhd/internal/cluster"
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

// TestContractMatrix is the determinism and conservation contracts as one
// table: every serving width on every engine at both batch settings must
// reproduce a hand-driven synchronous engine over the same capture — the
// same verdict multiset, the same Stats, and offered == processed +
// dropped with nothing dropped on these lossless paths. The oracle packs
// its model itself (quantize.FromCore) and takes no ticks; the cells go
// through the configured width (Config.Quantize, the cluster's Width) and
// the Runner's auto-tick and drain.
func TestContractMatrix(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	offered := len(live.Packets)

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
	// The float model becomes the wrapper's working copy; nothing below
	// updates it, so it stays readable alongside.
	cow := NewCOWModel(det.Model)

	engines := map[string]func(cfg EngineConfig) (Stream, error){
		"sync":       func(cfg EngineConfig) (Stream, error) { return pipeline.New(cfg) },
		"concurrent": func(cfg EngineConfig) (Stream, error) { return pipeline.NewConcurrent(cfg, 0) },
		"sharded-4": func(cfg EngineConfig) (Stream, error) {
			cfg.Shards = 4
			return pipeline.NewSharded(cfg)
		},
		"cluster-2": func(cfg EngineConfig) (Stream, error) {
			return cluster.Dial(cluster.ClientConfig{
				Workers: fleet, Model: cow, Normalizer: cfg.Normalizer, ClassNames: cfg.ClassNames,
				BatchSize: cfg.BatchSize, Width: cfg.Quantize, OnAlert: cfg.OnAlert,
			})
		},
	}

	for _, w := range []Width{0, W1, W4, W8} {
		oracle := det.EngineConfig()
		if w != 0 {
			q, err := quantize.FromCore(det.Model, w)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Model = q
		}
		want := verdicts{}
		oracle.OnAlert = want.add
		ref, err := pipeline.New(oracle)
		if err != nil {
			t.Fatal(err)
		}
		for i := range live.Packets {
			ref.Feed(live.Packets[i])
		}
		ref.Flush()
		wantStats := ref.Stats()
		if wantStats.Alerts == 0 || wantStats.Packets != offered {
			t.Fatalf("width %d: degenerate oracle %+v over %d packets", w, wantStats, offered)
		}

		for name, build := range engines {
			for _, batch := range []int{0, 64} {
				t.Run(fmt.Sprintf("w%d/%s/batch%d", w, name, batch), func(t *testing.T) {
					got := verdicts{}
					cfg := det.EngineConfig()
					cfg.Quantize, cfg.BatchSize, cfg.OnAlert = w, batch, got.add
					stream, err := build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					st, err := (&Runner{Stream: stream, Source: NewSliceSource(live.Packets)}).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if st.Packets+st.DroppedTotal() != offered || st.DroppedTotal() != 0 {
						t.Errorf("conservation: offered %d, processed %d, dropped %d on a lossless path",
							offered, st.Packets, st.DroppedTotal())
					}
					if !reflect.DeepEqual(st, wantStats) {
						t.Errorf("stats %+v, hand-driven sync engine %+v", st, wantStats)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("verdict multiset differs from the hand-driven sync engine: %d distinct alerts, want %d",
							len(got), len(want))
					}
				})
			}
		}
	}
}
