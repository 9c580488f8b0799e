package pipeline

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyberhd/internal/netflow"
)

// TestNewStream pins the one engine-choice rule of the serving path:
// Shards > 1 builds Sharded, anything else the sync Engine, a bounded
// policy wraps either in a Gate, and a rejected config starts nothing.
func TestNewStream(t *testing.T) {
	cfg, _ := buildModel(t)

	// Invalid configs first, while no engine of this test has run: one
	// caught by validate, one by applyQuantize, both asking for shards.
	before := runtime.NumGoroutine()
	noModel, badWidth := cfg, cfg
	noModel.Shards, noModel.Model = 3, nil
	badWidth.Shards, badWidth.Quantize = 3, 3
	for name, bad := range map[string]Config{"nil model": noModel, "width 3": badWidth} {
		if s, err := NewStream(bad); err == nil || s != nil {
			t.Fatalf("%s: NewStream = (%v, %v), want (nil, error)", name, s, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("rejected configs left %d goroutines behind", after-before)
	}

	bounded := OverloadPolicy{Mode: OverloadBounded}
	for _, tc := range []struct {
		name       string
		shards     int
		pol        OverloadPolicy
		wantShards int // 0 = the sync Engine
	}{
		{"shards0", 0, OverloadPolicy{}, 0},
		{"shards1", 1, OverloadPolicy{}, 0},
		{"shards3", 3, OverloadPolicy{}, 3},
		{"shards1 bounded", 1, bounded, 0},
		{"shards3 bounded", 3, bounded, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Shards, c.Overload = tc.shards, tc.pol
			s, err := NewStream(c)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkStreamKind(t, s, tc.pol.Mode == OverloadBounded, tc.wantShards)
		})
	}
}

// TestNewConcurrentIsOneShard pins what NewConcurrent is: a 1-shard
// Sharded whose ingress capacity is the buffer argument, whatever the
// config's Shards says, and whose alerts and Stats on the golden capture
// equal the sync Engine's.
func TestNewConcurrentIsOneShard(t *testing.T) {
	cfg, _ := buildModel(t)
	pkts, err := netflow.LoadCapture("../netflow/testdata/golden_v1.cap")
	if err != nil {
		t.Fatal(err)
	}
	wantStats, wantAlerts := replayRun(t, cfg, pkts, NewStream)
	cfg.Shards = 5
	gotStats, gotAlerts := replayRun(t, cfg, pkts, func(c Config) (Stream, error) {
		s, err := NewConcurrent(c, 7)
		if err == nil && (len(s.shards) != 1 || cap(s.shards[0].in) != 7) {
			t.Fatalf("NewConcurrent(cfg, 7): %d shards, ingress capacity %d", len(s.shards), cap(s.shards[0].in))
		}
		return s, err
	})
	if len(wantAlerts) == 0 {
		t.Fatal("golden capture raised no alerts; the comparison is vacuous")
	}
	if !slices.Equal(gotAlerts, wantAlerts) {
		t.Fatalf("alerts diverged: %d vs %d", len(gotAlerts), len(wantAlerts))
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats diverged:\n%+v\n%+v", gotStats, wantStats)
	}
}

// TestNewConcurrentCloseRacesFeeders drives FeedWithin, waiting and not, from
// several goroutines while Close lands mid-stream (lossless Feed racing
// Close is TestPostCloseConcurrentFeeders'): no panic, every post-Close
// offer refused, and Packets equal to exactly the admitted count. Run
// with -race.
func TestNewConcurrentCloseRacesFeeders(t *testing.T) {
	cfg, live := buildModel(t)
	s, err := NewConcurrent(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	var admitted atomic.Int64
	var wg sync.WaitGroup
	half := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range live.Packets {
				if g == 0 && i == len(live.Packets)/2 {
					close(half)
				}
				ok := s.FeedWithin(live.Packets[i], 0)
				if !ok && i%2 == 1 {
					ok = s.FeedWithin(live.Packets[i], 50*time.Microsecond)
				}
				if ok {
					admitted.Add(1)
				}
			}
		}(g)
	}
	<-half
	s.Close()
	wg.Wait()
	if s.FeedWithin(live.Packets[0], 0) || s.FeedWithin(live.Packets[0], time.Millisecond) {
		t.Fatal("admission succeeded after Close")
	}
	s.Feed(live.Packets[0]) // defined no-op
	if got := int64(s.Stats().Packets); got != admitted.Load() {
		t.Fatalf("engine counted %d packets, feeders were told %d admitted", got, admitted.Load())
	}
}
