package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// TestNewStream pins the one engine-choice rule of the serving path:
// Shards > 1 builds Sharded, anything else the sync Engine, a bounded
// policy wraps either in a Gate, and a rejected config starts nothing.
func TestNewStream(t *testing.T) {
	cfg, _ := buildModel(t)

	// Invalid configs first, while no engine of this test has run: no
	// model, and a model at a width serving refuses, both asking for
	// shards.
	before := runtime.NumGoroutine()
	noModel, badWidth := cfg, atWidth(t, cfg, bitpack.W4)
	noModel.Shards, noModel.Model = 3, nil
	badWidth.Shards = 3
	for name, bad := range map[string]Config{"nil model": noModel, "width 4": badWidth} {
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
// offer refused, and Packets equal to exactly the admitted count. In the
// runs row a fourth goroutine races FeedRun too, whose admissions are not
// reported, so Packets lies between the admitted count and that plus the
// run packets offered. Run with -race.
func TestNewConcurrentCloseRacesFeeders(t *testing.T) {
	cfg, live := buildModel(t)
	for _, runs := range []bool{false, true} {
		t.Run(fmt.Sprintf("runs=%v", runs), func(t *testing.T) {
			s, err := NewConcurrent(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			var admitted, offered atomic.Int64
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
			if runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i+50 <= len(live.Packets); i += 50 {
						offered.Add(50)
						s.FeedRun(live.Packets[i : i+50])
					}
				}()
			}
			<-half
			s.Close()
			wg.Wait()
			if s.FeedWithin(live.Packets[0], 0) || s.FeedWithin(live.Packets[0], time.Millisecond) {
				t.Fatal("admission succeeded after Close")
			}
			s.Feed(live.Packets[0]) // defined no-ops
			s.FeedRun(live.Packets[:5])
			if got := int64(s.Stats().Packets); got < admitted.Load() || got > admitted.Load()+offered.Load() {
				t.Fatalf("engine counted %d packets, feeders were told %d admitted and offered %d in runs", got, admitted.Load(), offered.Load())
			}
		})
	}
}

// TestFeedRunMatchesFeed pins FeedRun to a loop of Feed calls on every
// engine. The capture, with NaN times mixed in, is fed by hand in runs of
// every shape — empty, one packet, 2,000 packets (past every routing
// window), runs across tick boundaries — and then through the Runner,
// whose runs a tick or a progress snapshot cuts. Either way it must give
// the Stats, the alert sequence of each shard, the tick list and (on the
// synchronous engine) the progress counts of one Feed per packet.
func TestFeedRunMatchesFeed(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.BatchSize = 16
	pkts := live.Packets
	for i := 50; i < len(pkts); i += 211 {
		pkts[i].Time = math.NaN()
	}
	lens := []int{0, 1, 2000, 63, 64, 65, 7, 0, 300}
	// shards: 0 is the sync Engine, 1 NewConcurrent.
	builds := map[string]int{"engine": 0, "concurrent": 1, "sharded2": 2, "sharded3": 3}
	type result struct {
		st       Stats
		alerts   [3][]string // per shard
		ticks    []float64
		fedAt    []int // packets fed before each tick
		progress []int64
	}
	for name, shards := range builds {
		drive := func(runs, runner bool) (res result) {
			c := cfg
			c.OnAlert = func(a Alert) {
				i := a.Flow.Key.Hash() % uint64(max(shards, 1))
				res.alerts[i] = append(res.alerts[i], fmt.Sprintf("%v|%d|%v", a.Flow.Key, a.Class, a.Time))
			}
			c.Shards = shards
			var s Stream
			var err error
			if shards == 1 {
				s, err = NewConcurrent(c, 0)
			} else {
				s, err = NewStream(c)
			}
			if err != nil {
				t.Fatal(err)
			}
			log := &tickLog{Stream: s, runs: runs}
			if runner {
				r := &Runner{Stream: log, Source: netflow.NewSliceSource(pkts), TickInterval: 0.25, ProgressInterval: 0.7}
				r.Progress = func(snap telemetry.Snapshot) { res.progress = append(res.progress, snap.Packets) }
				if res.st, err = r.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			} else {
				clock := 0.0
				for i, k := 0, 0; i < len(pkts); k++ {
					run := pkts[i:min(i+lens[k%len(lens)], len(pkts))]
					i += len(run)
					log.FeedRun(run)
					for _, p := range run {
						if finite(p.Time) {
							clock = p.Time
						}
					}
					if k%3 == 2 {
						log.Tick(clock)
					}
				}
				log.Close()
				res.st = log.Stats()
			}
			res.ticks, res.fedAt = log.ticks, log.fedAt
			return res
		}
		for _, runner := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/runner=%v", name, runner), func(t *testing.T) {
				want, got := drive(false, runner), drive(true, runner)
				if len(want.alerts[0]) == 0 || len(want.ticks) < 10 {
					t.Fatalf("%d alerts and %d ticks on shard 0; the comparison is vacuous", len(want.alerts[0]), len(want.ticks))
				}
				// The Runner ticks right before the packet that crosses the
				// boundary (a NaN time crosses none).
				for i, k := range got.fedAt {
					if runner && (pkts[k].Time < got.ticks[i] || k > 0 && pkts[k-1].Time >= got.ticks[i]) {
						t.Fatalf("tick at %v after %d packets, between times %v and %v", got.ticks[i], k, pkts[k-1].Time, pkts[k].Time)
					}
				}
				if name != "engine" {
					want.progress, got.progress = nil, nil // mid-run snapshots of a concurrent engine lag
				} else if runner {
					// The Runner snapshots right after the packet that crosses
					// a progress boundary, and once more after the drain.
					var at []int64
					next, first := 0.0, true
					for i, p := range pkts {
						if first && finite(p.Time) {
							next, first = p.Time+0.7, false
						}
						if finite(p.Time) && p.Time >= next {
							at = append(at, int64(i+1))
							next = next + 0.7*math.Floor((p.Time-next)/0.7) + 0.7
						}
					}
					if at = append(at, int64(len(pkts))); !slices.Equal(got.progress, at) {
						t.Fatalf("progress after %v… packets, want %v…", got.progress[:min(5, len(got.progress))], at[:5])
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("FeedRun: %+v\nFeed:    %+v", got.st, want.st)
				}
			})
		}
	}
}
