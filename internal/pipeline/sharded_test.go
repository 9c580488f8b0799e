package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
)

// TestShardedMatchesSingleEngine is the shard/single equivalence contract:
// the same capture through Sharded(N) and one Engine yields bit-identical
// aggregate Stats — flows hash whole to one shard, so assembly, feature
// extraction and classification are per-flow unchanged.
func TestShardedMatchesSingleEngine(t *testing.T) {
	cfg, live := buildModel(t)
	want := directDrive(t, cfg, live.Packets)
	for _, tc := range []struct {
		name          string
		shards, batch int
	}{
		{"shards1", 1, 0},
		{"shards4", 4, 0},
		{"shards4batch64", 4, 64},
		{"shards7", 7, 0}, // non-power-of-two partitioning
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := cfg
			// A small buffer exercises backpressure.
			scfg.Shards, scfg.BatchSize, scfg.ShardBuffer = tc.shards, tc.batch, 64
			sh, err := NewSharded(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if sh.NumShards() != tc.shards {
				t.Fatalf("NumShards %d, want %d", sh.NumShards(), tc.shards)
			}
			statsEqual(t, tc.name, feedAll(sh, live.Packets), want)
		})
	}
}

// TestShardedDefaultsShardsToGOMAXPROCS checks the 0-value shard count.
func TestShardedDefaultsShardsToGOMAXPROCS(t *testing.T) {
	cfg, _ := buildModel(t)
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.NumShards() < 1 {
		t.Fatalf("default shard count %d", sh.NumShards())
	}
}

// TestShardedAlertsSerialized verifies the delivery contract: callbacks
// never run concurrently, and the callback count matches the merged alert
// counter exactly.
func TestShardedAlertsSerialized(t *testing.T) {
	cfg, live := buildModel(t)
	var inFlight, maxInFlight, count int64
	cfg.OnAlert = func(Alert) {
		if n := atomic.AddInt64(&inFlight, 1); n > atomic.LoadInt64(&maxInFlight) {
			atomic.StoreInt64(&maxInFlight, n)
		}
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&inFlight, -1)
	}
	cfg.Shards = 4
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		sh.Feed(live.Packets[i])
	}
	sh.Close()
	st := sh.Stats()
	if st.Alerts == 0 {
		t.Fatal("no alerts on attack-laden capture")
	}
	if int64(st.Alerts) != atomic.LoadInt64(&count) {
		t.Fatalf("alert counter %d != callback count %d", st.Alerts, count)
	}
	if m := atomic.LoadInt64(&maxInFlight); m != 1 {
		t.Fatalf("alert callbacks overlapped: max in flight %d", m)
	}
}

// TestShardedCloseIdempotent: every Close call waits for the full drain
// and none panics.
func TestShardedCloseIdempotent(t *testing.T) {
	cfg, _ := buildModel(t)
	cfg.Shards = 2
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	sh.Close() // must not panic
	if got := sh.Stats().Packets; got != 0 {
		t.Fatalf("empty sharded engine reports %d packets", got)
	}
}

// TestShardedTickDrainsBatches: a tick broadcast must evict idle flows
// and classify pending micro-batches on every shard without closing.
func TestShardedTickDrainsBatches(t *testing.T) {
	cfg, _ := buildModel(t)
	cfg.Shards = 3
	cfg.BatchSize = 64
	cfg.IdleTimeout = 10
	alerts := make(chan Alert, 16)
	cfg.Model = attackModel{}
	cfg.OnAlert = func(a Alert) { alerts <- a }
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh.Feed(netflow.Packet{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28})
	sh.Tick(100)
	select {
	case <-alerts:
	case <-time.After(5 * time.Second):
		t.Fatal("tick did not evict and classify the idle flow")
	}
	sh.Close()
}

// attackModel predicts class 1 for everything.
type attackModel struct{}

func (attackModel) Predict([]float32) int { return 1 }

// TestShardedFeedbackDuringTraffic drives the full concurrent-learning
// path: shards classify a live capture against COW snapshots while
// analyst feedback retrains the shared model from another goroutine. Run
// under -race this is the engine's central data-race regression test.
func TestShardedFeedbackDuringTraffic(t *testing.T) {
	cfg, live := buildModel(t)
	m, ok := cfg.Model.(*core.Model)
	if !ok {
		t.Fatal("buildModel no longer returns *core.Model")
	}
	cow := core.NewCOWModel(m)
	cfg.Model = cow
	cfg.Shards = 4
	cfg.BatchSize = 32

	// Harvest labeled flows up front to replay as analyst feedback.
	var flows []*netflow.Flow
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) { flows = append(flows, f) })
	for i := range live.Packets {
		a.Add(&live.Packets[i])
	}
	a.Flush()

	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v0 := cow.Version()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, f := range flows {
			label, ok := live.Labels[f.Key]
			if !ok {
				label = 0
			}
			// Deliberately mislabel a stripe so updates actually publish.
			sh.Feedback(f, (int(label)+i%2)%cow.NumClasses())
		}
	}()
	for i := range live.Packets {
		sh.Feed(live.Packets[i])
	}
	wg.Wait()
	sh.Close()
	st := sh.Stats()
	if st.Packets != len(live.Packets) || st.Flows == 0 {
		t.Fatalf("bad merged stats under feedback: %+v", st)
	}
	if cow.Version() == v0 {
		t.Fatal("no feedback update published a new model version")
	}
}

// TestConcurrentStatsAfterClose: once Close returns, the worker goroutine
// has exited and Stats is stable and safe to read repeatedly.
func TestConcurrentStatsAfterClose(t *testing.T) {
	cfg, live := buildModel(t)
	conc, err := NewConcurrent(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range live.Packets {
		conc.Feed(p)
	}
	conc.Close()
	first := conc.Stats()
	if first.Packets != len(live.Packets) || first.Flows == 0 {
		t.Fatalf("bad stats after close: %+v", first)
	}
	second := conc.Stats()
	if first.Packets != second.Packets || first.Flows != second.Flows || first.Alerts != second.Alerts {
		t.Fatalf("stats changed between reads after Close: %+v then %+v", first, second)
	}
	for c := range first.ByClass {
		if first.ByClass[c] != second.ByClass[c] {
			t.Fatalf("ByClass[%d] changed after Close", c)
		}
	}
}
