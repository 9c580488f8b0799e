package pipeline

import (
	"fmt"
	"slices"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

func TestNewValidation(t *testing.T) {
	cfg, _ := buildModel(t)
	bad := cfg
	bad.Model = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil model")
	}
	bad = cfg
	bad.Normalizer = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil normalizer")
	}
	bad = cfg
	bad.ClassNames = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted empty class names")
	}
	// One past each allocation bound: refused before the ~20 MiB batch
	// buffer or the thousand shard goroutines exist.
	for _, over := range []Config{{BatchSize: MaxBatchRows + 1}, {Shards: MaxShards + 1}} {
		bad = cfg
		bad.BatchSize, bad.Shards = over.BatchSize, over.Shards
		if _, err := New(bad); err == nil {
			t.Errorf("New accepted batch %d on %d shards", bad.BatchSize, bad.Shards)
		}
		if _, err := NewSharded(bad); err == nil {
			t.Errorf("NewSharded accepted batch %d on %d shards", bad.BatchSize, bad.Shards)
		}
	}
}

func TestEngineDetectsAttacks(t *testing.T) {
	cfg, live := buildModel(t)
	var alerts []Alert
	cfg.OnAlert = func(a Alert) {
		f := *a.Flow // valid only during the call
		a.Flow = &f
		alerts = append(alerts, a)
	}
	st := directDrive(t, cfg, live.Packets)
	if st.Packets != len(live.Packets) {
		t.Fatalf("packets %d != %d", st.Packets, len(live.Packets))
	}
	if st.Flows == 0 {
		t.Fatal("no flows completed")
	}
	if st.Alerts != len(alerts) {
		t.Fatalf("alert counter %d != callback count %d", st.Alerts, len(alerts))
	}
	// The capture contains ~30% attack sessions; a trained detector must
	// raise a meaningful number of alerts and each must carry a valid
	// class.
	if st.Alerts == 0 {
		t.Fatal("no alerts on attack-laden capture")
	}
	for _, a := range alerts {
		if a.Class <= 0 || a.Class >= len(cfg.ClassNames) {
			t.Fatalf("bad alert class %d", a.Class)
		}
		if a.ClassName != cfg.ClassNames[a.Class] {
			t.Fatalf("class name mismatch: %q", a.ClassName)
		}
		if a.Flow == nil {
			t.Fatal("alert without flow")
		}
	}
	// Precision proxy against ground truth: most alerted flows should be
	// real attacks.
	truePos := 0
	for _, a := range alerts {
		if l, ok := live.Labels[a.Flow.Key]; ok && l != traffic.Benign {
			truePos++
		}
	}
	if frac := float64(truePos) / float64(len(alerts)); frac < 0.7 {
		t.Errorf("alert precision proxy = %.2f, want >= 0.7", frac)
	}
}

func TestEngineStatsByClassSums(t *testing.T) {
	cfg, live := buildModel(t)
	st := directDrive(t, cfg, live.Packets)
	sum := 0
	for _, n := range st.ByClass {
		sum += n
	}
	if sum != st.Flows {
		t.Fatalf("ByClass sums to %d, flows %d", sum, st.Flows)
	}
	if st.ByClass[0]+st.Alerts != st.Flows {
		t.Fatalf("benign %d + alerts %d != flows %d", st.ByClass[0], st.Alerts, st.Flows)
	}
}

func TestTickEvictsIdleFlows(t *testing.T) {
	cfg, _ := buildModel(t)
	eng := newEngine(t, cfg)
	eng.Feed(tcpPkt(1, 2, 9, 53, 0, 0))
	if eng.Stats().Flows != 0 {
		t.Fatal("flow completed prematurely")
	}
	eng.Tick(200) // past the 120 s idle timeout
	if eng.Stats().Flows != 1 {
		t.Fatal("Tick did not evict idle flow")
	}
}

func TestConcurrentMatchesSynchronous(t *testing.T) {
	cfg, live := buildModel(t)
	conc, err := NewConcurrent(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "concurrent", feedAll(conc, live.Packets), directDrive(t, cfg, live.Packets))
}

// TestBatchModeMatchesSync streams the same capture through a synchronous
// engine and a micro-batched one: the kernel batch path is bit-identical
// to per-flow prediction, so every counter must agree exactly.
func TestBatchModeMatchesSync(t *testing.T) {
	cfg, live := buildModel(t)
	bcfg := cfg
	bcfg.BatchSize = 64
	statsEqual(t, "batch64", directDrive(t, bcfg, live.Packets), directDrive(t, cfg, live.Packets))
}

func TestConcurrentCloseIdempotent(t *testing.T) {
	cfg, _ := buildModel(t)
	conc, err := NewConcurrent(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	conc.Close()
	conc.Close() // must not panic
}

// TestBatchModeFlushesOnTick bounds verdict latency: a partial batch must
// classify when Tick fires, not wait for BatchSize flows.
func TestBatchModeFlushesOnTick(t *testing.T) {
	cfg, _ := buildModel(t)
	cfg.BatchSize = 64
	eng := newEngine(t, cfg)
	eng.Feed(tcpPkt(1, 2, 9, 53, 0, 0))
	eng.Tick(200)
	st := eng.Stats()
	if st.Flows != 1 {
		t.Fatalf("flow not evicted: %d", st.Flows)
	}
	sum := 0
	for _, n := range st.ByClass {
		sum += n
	}
	if sum != 1 {
		t.Fatalf("verdict still pending after Tick: ByClass sums to %d", sum)
	}
}

// TestOnFlowAllocFree pins the zero-allocation contract of steady-state
// serving: a warm engine assembles, classifies and recycles a flow
// without allocating.
func TestOnFlowAllocFree(t *testing.T) { checkAllocFree(t, 0) }

// checkAllocFree feeds an engine at each width (0: float32), synchronous
// and micro-batched, rounds of eight short flows — a SYN and a RST each —
// over 64 live ones that keep the free list's cap above a round, ticking
// after each round, and fails on any allocation once warm.
func checkAllocFree(t *testing.T, widths ...bitpack.Width) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, _ := buildModel(t)
	for _, w := range widths {
		for name, batch := range map[string]int{"sync": 0, "batch": 8} {
			cfg := atWidth(t, cfg, w)
			cfg.BatchSize = batch
			eng := newEngine(t, cfg)
			for i := range uint32(64) {
				eng.Feed(tcpPkt(0x0b000000+i, 0x0c000001, 40000, 443, 0, netflow.SYN))
			}
			now := 0.0
			allocs := testing.AllocsPerRun(200, func() {
				now += 0.001
				for i := range uint32(8) {
					eng.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, now, netflow.SYN))
					eng.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, now, netflow.RST))
				}
				eng.Tick(now)
			})
			if allocs != 0 {
				t.Errorf("w=%d %s mode: %.2f allocations per 8 flows", w, name, allocs)
			}
		}
	}
}

// TestTickSurvivesOnAlertFeedingBack pins the callback contract, per flow
// and batched: while Tick evicts, the first alert's callback feeds a packet
// that ends an expired flow the tick has yet to evict and starts its
// successor, a SYN+RST flow, a tick that evicts the successor, one more
// flow, and a flush. Every flow must alert exactly once, within the outer
// Tick, every packet belong to one of them, and a sink see the alerts in
// verdict order — the order OnAlert saw them.
func TestTickSurvivesOnAlertFeedingBack(t *testing.T) {
	for _, batch := range []int{0, 1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			cfg := fastCfg(fakeModel{class: 1})
			cfg.BatchSize = batch
			var eng *Engine
			var alerted []netflow.Flow // copies, in verdict order
			var order []int            // the sink's alerts, as indices into alerted
			cfg.OnAlert = func(a Alert) {
				alerted = append(alerted, *a.Flow)
				if len(alerted) == 1 {
					eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 200, netflow.ACK))
					eng.Feed(tcpPkt(0x0a000005, 0x0a000006, 40001, 443, 200, netflow.SYN))
					eng.Feed(tcpPkt(0x0a000005, 0x0a000006, 40001, 443, 200, netflow.RST))
					eng.Tick(400) // past the successor's idle timeout
					eng.Feed(tcpPkt(0x0a000007, 0x0a000008, 40002, 443, 400, netflow.SYN))
					eng.Flush()
				}
			}
			cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) {
				order = append(order, slices.IndexFunc(alerted, func(f netflow.Flow) bool {
					return f.Key == a.Flow.Key && f.FirstTime == a.Flow.FirstTime
				}))
			})}
			eng = newEngine(t, cfg)
			eng.Feed(tcpPkt(0x0a000001, 0x0a000002, 40000, 443, 0, netflow.SYN))
			eng.Feed(tcpPkt(0x0a000003, 0x0a000004, 40000, 443, 1, netflow.SYN))
			eng.Tick(200) // past the 120 s idle timeout of both flows
			n := len(alerted)
			eng.Close()
			if st := eng.Stats(); n != 5 || st.Flows != 5 || st.Alerts != 5 {
				t.Fatalf("%d alerts by the end of Tick, then %d flows and %d alerts after Close; want 5 each", n, st.Flows, st.Alerts)
			}
			if !slices.Equal(order, []int{0, 1, 2, 3, 4}) { // so the 5 flows are distinct
				t.Fatalf("sink saw the verdicts in order %v", order)
			}
			pkts, st := 0, eng.Stats()
			for _, f := range alerted {
				pkts += f.TotalPackets()
			}
			if pkts != st.Packets || pkts != 6 {
				t.Fatalf("flows hold %d packets, engine counted %d, fed 6", pkts, st.Packets)
			}
		})
	}
}

// TestAlertFlowValidOnlyDuringDelivery pins the alert lifetime contract on
// Engine and Sharded: the engine recycles a flow once its alert is
// delivered, so a callback that keeps a.Flow finds it zeroed.
func TestAlertFlowValidOnlyDuringDelivery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := fastCfg(fakeModel{class: 1})
		cfg.Shards = shards
		var kept []*netflow.Flow
		packets := 0
		cfg.OnAlert = func(a Alert) { kept, packets = append(kept, a.Flow), packets+a.Flow.TotalPackets() }
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range uint32(16) {
			s.Feed(tcpPkt(0x0a000000+i, 0x0c000001, 40000, 443, 0, netflow.SYN))
		}
		s.Close()
		if len(kept) != 16 || packets != 16 {
			t.Fatalf("%d shards: %d alerts over %d packets, want 16 and 16", shards, len(kept), packets)
		}
		for _, f := range kept {
			if f.Key != (netflow.FlowKey{}) || f.TotalPackets() != 0 {
				t.Fatalf("%d shards: a kept alert flow still reads %v, %d packets", shards, f.Key, f.TotalPackets())
			}
		}
	}
}
