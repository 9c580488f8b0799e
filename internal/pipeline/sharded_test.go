package pipeline

import (
	"sync/atomic"
	"testing"
	"time"
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
			scfg.Shards, scfg.BatchSize = tc.shards, tc.batch
			sh, err := newSharded(scfg, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(sh.shards) != tc.shards {
				t.Fatalf("%d shards, want %d", len(sh.shards), tc.shards)
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
	if len(sh.shards) < 1 {
		t.Fatalf("default shard count %d", len(sh.shards))
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
	st := directDrive(t, cfg, live.Packets)
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
	alerts := make(chan Alert, 16)
	cfg.Model = fakeModel{class: 1}
	cfg.OnAlert = func(a Alert) { alerts <- a }
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh.Feed(tcpPkt(1, 2, 9, 53, 0, 0))
	sh.Tick(200) // past the 120 s idle timeout
	select {
	case <-alerts:
	case <-time.After(5 * time.Second):
		t.Fatal("tick did not evict and classify the idle flow")
	}
	sh.Close()
}

// TestConcurrentStatsAfterClose: once Close returns, the worker goroutine
// has exited and Stats is stable and safe to read repeatedly.
func TestConcurrentStatsAfterClose(t *testing.T) {
	cfg, live := buildModel(t)
	conc, err := NewConcurrent(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	first := feedAll(conc, live.Packets)
	if first.Packets != len(live.Packets) || first.Flows == 0 {
		t.Fatalf("bad stats after close: %+v", first)
	}
	statsEqual(t, "stats changed between reads after Close", conc.Stats(), first)
}
