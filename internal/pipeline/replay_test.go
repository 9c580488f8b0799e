package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/quantize"
	"cyberhd/internal/telemetry"
)

// replayRun streams packets through the stream mk builds from cfg, with
// OnAlert set to record, and returns its drained stats plus a sorted
// fingerprint of every alert — flow key, class and capture time — so two
// runs compare for identical verdicts even when shard interleaving
// reorders delivery.
func replayRun(t *testing.T, cfg Config, packets []netflow.Packet, mk func(Config) (Stream, error)) (Stats, []string) {
	t.Helper()
	var mu sync.Mutex
	var alerts []string
	cfg.OnAlert = func(a Alert) {
		mu.Lock()
		alerts = append(alerts, fmt.Sprintf("%v|%d|%.6f", a.Flow.Key, a.Class, a.Time))
		mu.Unlock()
	}
	s, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := feedAll(s, packets)
	sort.Strings(alerts)
	return st, alerts
}

// TestDifferentialReplaySaveLoadServe is the persistence pin of the
// model control plane: the same capture replayed through (a) the
// original trained model and (b) a snapshot save→load→serve round trip
// must produce bit-identical verdicts — same stats, same alert set — at
// every serving width and shard count. Any drift here means a deployed
// model changes behavior across a restart.
func TestDifferentialReplaySaveLoadServe(t *testing.T) {
	base, live := buildModel(t)
	m := base.Model.(*core.Model)
	var snap bytes.Buffer
	if err := core.SaveSnapshot(&snap, core.NewCOWModel(m)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []bitpack.Width{0, bitpack.W1} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("w%d_shards%d", w, shards), func(t *testing.T) {
				loaded, info, err := core.LoadSnapshot(bytes.NewReader(snap.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if info.Format != core.SnapshotFormatV2 {
					t.Fatalf("snapshot decoded as format %d", info.Format)
				}
				// A fresh COW wrapper per run: the width is the
				// wrapper's, chosen when it is built.
				if w == bitpack.W1 {
					quantize.AttachLive(loaded)
				}
				var st [2]Stats
				var alerts [2][]string
				for i, model := range []Classifier{cowAt(m, w), loaded} {
					cfg := base
					cfg.Model, cfg.Shards, cfg.BatchSize = model, shards, 32
					st[i], alerts[i] = replayRun(t, cfg, live.Packets, NewStream)
				}
				statsEqual(t, "save/load/serve", st[1], st[0])
				if !slices.Equal(alerts[1], alerts[0]) {
					t.Fatalf("save/load/serve: alerts diverged (%d vs %d)", len(alerts[1]), len(alerts[0]))
				}
				if st[0].Alerts == 0 {
					t.Fatal("degenerate comparison: no alerts raised")
				}
			})
		}
	}
}

// TestShadowZeroDivergence pins the shadow tap's accounting from both
// directions: a candidate identical to the primary (same weights, same
// serving width) must report exactly zero divergence over a full replay,
// and a candidate rigged to disagree must report exactly the disagreeing
// flow count, bucketed under the primary's class.
func TestShadowZeroDivergence(t *testing.T) {
	base, live := buildModel(t)
	m := base.Model.(*core.Model)

	run := func(t *testing.T, cfg Config, tap *Shadow, cand Classifier) (Stats, telemetry.Snapshot) {
		t.Helper()
		tel := telemetry.New(cfg.ClassNames)
		cfg.Telemetry = tel
		cfg.Shadow = tap
		tap.Set(cand)
		return directDrive(t, cfg, live.Packets), tel.Snapshot()
	}

	t.Run("identical float", func(t *testing.T) {
		st, snap := run(t, base, NewShadow(), m)
		if snap.ShadowFlows != int64(st.Flows) {
			t.Fatalf("shadow scored %d of %d flows", snap.ShadowFlows, st.Flows)
		}
		if d := snap.ShadowDivergedTotal(); d != 0 {
			t.Fatalf("identical shadow diverged %d times", d)
		}
	})

	t.Run("identical quantized", func(t *testing.T) {
		// Primary serves W1 through a live derivation; the shadow is an
		// independent pack of the same weights at the same width — still
		// exactly zero divergence, because quantization is deterministic.
		cfg := base
		cfg.Model = cowAt(m, bitpack.W1)
		q, err := quantize.FromCore(m, bitpack.W1)
		if err != nil {
			t.Fatal(err)
		}
		st, snap := run(t, cfg, NewShadow(), q)
		if snap.ShadowFlows != int64(st.Flows) || snap.ShadowDivergedTotal() != 0 {
			t.Fatalf("quantized shadow pair: %d flows scored (%d served), %d diverged",
				snap.ShadowFlows, st.Flows, snap.ShadowDivergedTotal())
		}
	})

	t.Run("identical sharded batched", func(t *testing.T) {
		cfg := base
		cfg.Shards, cfg.BatchSize = 4, 32
		st, snap := run(t, cfg, NewShadow(), m)
		if snap.ShadowFlows != int64(st.Flows) || snap.ShadowDivergedTotal() != 0 {
			t.Fatalf("sharded shadow pair: %d flows scored (%d served), %d diverged",
				snap.ShadowFlows, st.Flows, snap.ShadowDivergedTotal())
		}
	})

	t.Run("rigged divergence accounting", func(t *testing.T) {
		// fakeModel{} always answers class 0, so divergence must equal the
		// primary's non-benign verdicts exactly, bucketed per primary class.
		st, snap := run(t, base, NewShadow(), fakeModel{})
		wantTotal := int64(st.Flows - st.ByClass[0])
		if got := snap.ShadowDivergedTotal(); got != wantTotal {
			t.Fatalf("diverged %d, want %d (flows %d, benign %d)", got, wantTotal, st.Flows, st.ByClass[0])
		}
		for c := range snap.ShadowDiverged {
			want := int64(0)
			if c != 0 {
				want = int64(st.ByClass[c])
			}
			if snap.ShadowDiverged[c] != want {
				t.Fatalf("class %d: diverged %d, want %d", c, snap.ShadowDiverged[c], want)
			}
		}
	})

	t.Run("detach mid-run stops counting", func(t *testing.T) {
		tel := telemetry.New(base.ClassNames)
		cfg := base
		cfg.Telemetry = tel
		tap := NewShadow()
		cfg.Shadow = tap
		tap.Set(m)
		eng := newEngine(t, cfg)
		half := len(live.Packets) / 2
		for i := 0; i < half; i++ {
			eng.Feed(live.Packets[i])
		}
		eng.Flush()
		atDetach := tel.Snapshot().ShadowFlows
		tap.Clear()
		for i := half; i < len(live.Packets); i++ {
			eng.Feed(live.Packets[i])
		}
		eng.Flush()
		if got := tel.Snapshot().ShadowFlows; got != atDetach {
			t.Fatalf("shadow scored %d flows after detach (had %d)", got, atDetach)
		}
		eng.Close()
	})
}

// perturbedCopy builds a same-geometry model with slightly different
// weights — a stand-in for a retrained candidate, cheap enough to build
// inside a hammer loop's setup.
func perturbedCopy(m *core.Model) *core.Model {
	cl := &hdc.Matrix{
		Rows: m.Class.Rows, Cols: m.Class.Cols,
		Data: append([]float32(nil), m.Class.Data...),
	}
	for i := range cl.Data {
		cl.Data[i] *= 1.001
	}
	return &core.Model{Enc: m.Enc, Class: cl, EffectiveDim: m.EffectiveDim}
}

// TestHotReloadHammer swaps the serving model mid-traffic as fast as
// ReplaceModel allows while a sharded batched engine classifies — the
// -race job runs this to pin that hot reload is publication-safe against
// concurrent scoring, and the counters pin that no flow is lost or
// double-counted across swaps.
func TestHotReloadHammer(t *testing.T) {
	base, live := buildModel(t)
	m := base.Model.(*core.Model)
	m2 := perturbedCopy(m)

	for _, tc := range []struct {
		name   string
		width  bitpack.Width
		shards int
	}{
		{"float sharded", 0, 4},
		{"quantized1 single", bitpack.W1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cow := cowAt(m, tc.width)
			tel := telemetry.New(base.ClassNames)
			cfg := base
			cfg.Model = cow
			cfg.Shards, cfg.BatchSize = tc.shards, 32
			cfg.Telemetry = tel
			s, err := NewStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v0 := cow.Version()

			const swaps = 200
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < swaps; i++ {
					next := m
					if i%2 == 0 {
						next = m2
					}
					if err := cow.ReplaceModel(next); err != nil {
						t.Errorf("swap %d: %v", i, err)
						return
					}
				}
			}()
			for i := range live.Packets {
				s.Feed(live.Packets[i])
			}
			<-done
			s.Flush()
			s.Close()
			st := s.Stats()

			if st.Packets != len(live.Packets) {
				t.Fatalf("packets %d != %d fed", st.Packets, len(live.Packets))
			}
			if st.Flows == 0 {
				t.Fatal("no flows survived the hammer")
			}
			sum := 0
			for _, n := range st.ByClass {
				sum += n
			}
			if sum != st.Flows {
				t.Fatalf("ByClass sums to %d, flows %d — a swap lost or duplicated a verdict", sum, st.Flows)
			}
			if got := cow.Version(); got != v0+swaps {
				t.Fatalf("version %d after %d swaps from %d", got, swaps, v0)
			}
			// The version gauge follows publications even mid-traffic.
			if snap := tel.Snapshot(); snap.ModelVersion != cow.Version() {
				t.Fatalf("telemetry version %d, model %d", snap.ModelVersion, cow.Version())
			}
		})
	}
}

// TestGateTransitionsObservable walks the overload gate through
// normal→pressured→shedding→recovery using the latency signal and pins
// that every state entry is observable from the /stats scrape — the
// counter that keeps a brief shedding episode visible after the state
// gauge has recovered.
func TestGateTransitionsObservable(t *testing.T) {
	base, live := buildModel(t)
	tel := telemetry.New(base.ClassNames)
	cfg := base
	cfg.Telemetry = tel
	g := NewGate(newEngine(t, cfg), OverloadPolicy{EvalEvery: 1, LatencyBound: 1.0})
	defer g.Close()

	feed := func(n int, from int) {
		for i := from; i < from+n && i < len(live.Packets); i++ {
			g.Feed(live.Packets[i])
		}
	}
	// Quiet start: evaluations with no latency observations stay normal.
	feed(4, 0)
	if gateState(g) != OverloadNormal {
		t.Fatalf("state %v before any pressure", gateState(g))
	}
	// One observation in the (0.5, 1] bucket: p99 = 1.0 > bound/2 →
	// pressured on the next evaluation.
	tel.ObserveLatency(0.8)
	feed(1, 4)
	if gateState(g) != OverloadPressured {
		t.Fatalf("state %v after pressure signal", gateState(g))
	}
	// An observation in the (2.5, 5] bucket: p99 = 5 > bound → shedding.
	tel.ObserveLatency(3.0)
	feed(1, 5)
	if gateState(g) != OverloadShedding {
		t.Fatalf("state %v after latency blowout", gateState(g))
	}
	// Recovery relaxes one state per quiet evaluation.
	feed(8, 6)
	if gateState(g) != OverloadNormal {
		t.Fatalf("state %v after recovery window", gateState(g))
	}

	// The whole walk must be readable from the admin surface: pressured
	// was entered twice (onset and the relaxation step down from
	// shedding), shedding once, normal once (the recovery re-entry).
	srv := httptest.NewServer(telemetry.Handler(tel.Snapshot, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Transitions map[string]int64 `json:"overload_transitions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"normal": 1, "pressured": 2, "shedding": 1}
	for state, n := range want {
		if stats.Transitions[state] != n {
			t.Fatalf("transitions[%s] = %d, want %d (full map %v)", state, stats.Transitions[state], n, stats.Transitions)
		}
	}

	// And from the Prometheus rendering.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Contains(body, []byte(telemetry.MetricOverloadTransitions+`{state="shedding"} 1`)) {
		t.Fatalf("shedding transition not in /metrics:\n%s", body)
	}
}
