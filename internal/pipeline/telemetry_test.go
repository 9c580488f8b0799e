package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
	"cyberhd/internal/quantize"
	"cyberhd/internal/telemetry"
)

// streamsUnderTest builds one of each engine over the same config.
func streamsUnderTest(t *testing.T, cfg Config) map[string]func() Stream {
	t.Helper()
	must := func(s Stream, err error) Stream {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sharded := cfg
	sharded.Shards = 4
	return map[string]func() Stream{
		"engine":     func() Stream { return must(New(cfg)) },
		"concurrent": func() Stream { return must(NewConcurrent(cfg, 256)) },
		"sharded":    func() Stream { return must(NewSharded(sharded)) },
	}
}

// TestPostCloseOpsAreNoOps pins the Stream lifecycle contract: Feed, Tick
// and Flush after Close are defined no-ops on every engine — previously
// they panicked with "send on closed channel" on Concurrent and Sharded.
func TestPostCloseOpsAreNoOps(t *testing.T) {
	cfg, live := buildModel(t)
	for name, build := range streamsUnderTest(t, cfg) {
		t.Run(name, func(t *testing.T) {
			s := build()
			for i := range live.Packets[:200] {
				s.Feed(live.Packets[i])
			}
			s.Close()
			settled := s.Stats()

			// None of these may panic, and none may move a counter.
			s.Feed(live.Packets[0])
			s.Tick(1e9)
			s.Flush()
			s.Close() // still idempotent

			if got := s.Stats(); !reflect.DeepEqual(got, settled) {
				t.Fatalf("post-Close ops moved counters: %+v != %+v", got, settled)
			}
		})
	}
}

// TestPostCloseConcurrentFeeders hammers Feed/Tick/Flush from several
// goroutines racing one Close — the "send on closed channel" window the
// lifecycle fix removes. Run with -race.
func TestPostCloseConcurrentFeeders(t *testing.T) {
	cfg, live := buildModel(t)
	for name, build := range streamsUnderTest(t, cfg) {
		if name == "engine" {
			continue // the synchronous engine is single-goroutine by contract
		}
		t.Run(name, func(t *testing.T) {
			s := build()
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := range live.Packets[:400] {
						s.Feed(live.Packets[i])
						if i%97 == 0 {
							s.Tick(live.Packets[i].Time)
						}
					}
					s.Flush()
				}(w)
			}
			close(start)
			s.Close() // races the feeders on purpose
			wg.Wait()
			s.Close()
		})
	}
}

// TestSnapshotDuringLiveFeedRaceFree reads Stats and the telemetry
// snapshot from many goroutines while traffic is being fed — the exact mid-run access that
// used to be a documented data race ("only call after Close"). Run with
// -race; it also checks reads are sane mid-run and exact after Close.
func TestSnapshotDuringLiveFeedRaceFree(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.BatchSize = 16
	for name, build := range streamsUnderTest(t, cfg) {
		t.Run(name, func(t *testing.T) {
			s := build()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						st := s.Stats()
						if st.Packets < 0 || st.Flows < 0 {
							t.Error("nonsense stats")
							return
						}
						sum := 0
						for _, v := range st.ByClass {
							sum += v
						}
						if sum > st.Flows {
							t.Errorf("more verdicts (%d) than completed flows (%d)", sum, st.Flows)
							return
						}
						_ = s.Telemetry().Snapshot()
					}
				}()
			}
			for i := range live.Packets {
				s.Feed(live.Packets[i])
			}
			s.Close()
			close(stop)
			wg.Wait()
			if got := s.Stats().Packets; got != len(live.Packets) {
				t.Fatalf("packets %d != %d", got, len(live.Packets))
			}
		})
	}
}

// TestSnapshotEqualsStatsAfterClose pins the consistency contract: after
// Close, Stats on every engine matches a reference single-engine run of
// the same capture, and the telemetry snapshot agrees with it.
func TestSnapshotEqualsStatsAfterClose(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.BatchSize = 8
	want := directDrive(t, cfg, live.Packets)

	for name, build := range streamsUnderTest(t, cfg) {
		t.Run(name, func(t *testing.T) {
			s := build()
			if st := feedAll(s, live.Packets); !reflect.DeepEqual(st, want) {
				t.Fatalf("engine diverged from reference:\n%+v\n%+v", st, want)
			}
			// The richer telemetry snapshot agrees with the Stats view and
			// has settled: histogram count equals issued verdicts, nothing
			// pending.
			ts := s.Telemetry().Snapshot()
			if int(ts.Flows) != want.Flows || int(ts.Packets) != want.Packets {
				t.Fatalf("telemetry snapshot disagrees: %+v vs %+v", ts, want)
			}
			if ts.Pending() != 0 {
				t.Fatalf("%d verdicts still pending after Close", ts.Pending())
			}
			if ts.Latency.Count != ts.Flows {
				t.Fatalf("latency observations %d != flows %d", ts.Latency.Count, ts.Flows)
			}
		})
	}
}

// TestVerdictLatencyHistogram checks the histogram actually measures the
// micro-batch wait: synchronous verdicts all land at zero latency, while
// a batched engine whose batch drains on a later tick records the capture
// time spent waiting.
func TestVerdictLatencyHistogram(t *testing.T) {
	cfg, live := buildModel(t)

	t.Run("sync-is-zero", func(t *testing.T) {
		eng := newEngine(t, cfg)
		feedAll(eng, live.Packets)
		s := eng.Telemetry().Snapshot()
		if s.Latency.Count == 0 {
			t.Fatal("no latency observations")
		}
		if s.Latency.Counts[0] != s.Latency.Count {
			t.Fatalf("synchronous verdicts spread beyond the first bucket: %v", s.Latency.Counts)
		}
		if s.Latency.Sum != 0 {
			t.Fatalf("synchronous latency sum %v != 0", s.Latency.Sum)
		}
	})

	t.Run("batch-wait-measured", func(t *testing.T) {
		c := cfg
		c.BatchSize = 1024 // never fills: the tick drains it
		eng := newEngine(t, c)
		// Two short flows completing at t≈1, then a tick 5 capture-seconds
		// later: their verdicts waited ~5 s in the batch buffer.
		for _, sport := range []uint16{2001, 2002} {
			eng.Feed(tcpPkt(0x0a000001, 0x0a000002, sport, 80, 0.5, netflow.SYN))
			eng.Feed(tcpPkt(0x0a000001, 0x0a000002, sport, 80, 0.9, netflow.RST)) // RST terminates the flow
		}
		if got := eng.Stats().Flows; got != 2 {
			t.Fatalf("flows completed = %d, want 2", got)
		}
		eng.Tick(5.9)
		s := eng.Telemetry().Snapshot()
		if s.Latency.Count != 2 {
			t.Fatalf("latency observations %d, want 2", s.Latency.Count)
		}
		if s.Latency.Sum < 9 || s.Latency.Sum > 11 {
			t.Fatalf("batch wait sum %.2f s, want ≈10 (2 × ~5 s)", s.Latency.Sum)
		}
		eng.Close()
	})
}

// TestConfigTelemetryShared pins the Config.Telemetry path: a caller-supplied
// collector sees the engine's counters (that is what an admin server
// scrapes), and a class-count mismatch is rejected up front.
func TestConfigTelemetryShared(t *testing.T) {
	cfg, live := buildModel(t)
	tel := telemetry.New(cfg.ClassNames)
	cfg.Telemetry = tel
	for name, build := range streamsUnderTest(t, cfg) {
		t.Run(name, func(t *testing.T) {
			s := build()
			if s.Telemetry() != tel {
				t.Fatal("engine did not adopt the supplied collector")
			}
			for i := range live.Packets[:500] {
				s.Feed(live.Packets[i])
			}
			s.Close()
		})
	}

	bad := cfg
	bad.Telemetry = telemetry.New([]string{"just-one"})
	if _, err := New(bad); err == nil {
		t.Fatal("accepted collector with mismatched class count")
	}
	if _, err := NewSharded(bad); err == nil {
		t.Fatal("sharded accepted collector with mismatched class count")
	}
}

// TestSharedCOWVersionGauges: engines only read their model. Two engines
// on one COWModel its builder bound to W1, each with its own collector,
// leave its version and packed memory as they found them, and after one
// hot reload, which re-packs, both collectors report the version it
// serves.
func TestSharedCOWVersionGauges(t *testing.T) {
	cfg, _ := buildModel(t)
	m := cfg.Model.(*core.Model)
	cow := core.NewCOWModel(m)
	quantize.AttachLive(cow)
	v0, q0 := cow.Version(), cow.Snapshot().Derived()
	var tels []*telemetry.Collector
	for _, shards := range []int{1, 2} {
		c := cfg
		c.Model, c.Shards, c.Telemetry = cow, shards, telemetry.New(cfg.ClassNames)
		s, err := NewStream(c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tels = append(tels, c.Telemetry)
	}
	if cow.Version() != v0 || cow.Snapshot().Derived() != q0 {
		t.Fatalf("building engines republished the model: version %d -> %d", v0, cow.Version())
	}
	if err := cow.ReplaceModel(perturbedCopy(m)); err != nil {
		t.Fatal(err)
	}
	if q, ok := cow.Snapshot().Derived().(*quantize.Model); !ok || q == q0 || q.Width != bitpack.W1 {
		t.Fatalf("the reload did not re-pack the class memory at W1: %T", cow.Snapshot().Derived())
	}
	for i, tel := range tels {
		if got := tel.Snapshot().ModelVersion; got != cow.Version() {
			t.Errorf("engine %d: telemetry reports version %d, the model serves %d", i, got, cow.Version())
		}
	}
}

// TestRunnerProgress drives a capture through a runner with a progress
// callback: snapshots must arrive in monotonic order, on capture-time
// cadence, with a final settled snapshot equal to the returned stats.
func TestRunnerProgress(t *testing.T) {
	cfg, live := buildModel(t)
	r, err := NewRunner(cfg, netflow.NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []telemetry.Snapshot
	r.ProgressInterval = 5
	r.Progress = func(s telemetry.Snapshot) { snaps = append(snaps, s) }
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stream.Telemetry() == nil {
		t.Fatal("runner has no live telemetry handle")
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d progress snapshots for a %0.fs capture",
			len(snaps), live.Packets[len(live.Packets)-1].Time)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Packets < snaps[i-1].Packets || snaps[i].Flows < snaps[i-1].Flows {
			t.Fatalf("snapshot %d went backwards: %+v -> %+v", i, snaps[i-1], snaps[i])
		}
	}
	last := snaps[len(snaps)-1]
	if int(last.Packets) != st.Packets || int(last.Flows) != st.Flows || int(last.Alerts) != st.Alerts {
		t.Fatalf("final snapshot %+v != returned stats %+v", last, st)
	}
	if mid := snaps[0]; mid.Packets == 0 || mid.Packets >= last.Packets {
		t.Fatalf("first snapshot not mid-run: %d of %d packets", mid.Packets, last.Packets)
	}
}

// TestRunnerSnapshotMidRun reads the runner's live handle from another
// goroutine while Run is pumping (the admin-endpoint access pattern).
// Run with -race.
func TestRunnerSnapshotMidRun(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.Shards = 2
	r, err := NewRunner(cfg, netflow.NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Stream.Stats()
			_ = r.Stream.Telemetry().Snapshot()
		}
	}()
	st, err := r.Run(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(live.Packets) {
		t.Fatalf("packets %d != %d", st.Packets, len(live.Packets))
	}
}
