package netflow_test

import (
	"math"
	"slices"
	"testing"

	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

// ticker reproduces pipeline.Runner's auto-tick rule for hand-driven
// replays: the first packet arms the next 1 s capture-clock boundary, and
// a packet at or past it yields one tick at the newest boundary crossed.
type ticker struct {
	next  float64
	armed bool
}

func (t *ticker) crossed(now float64) (boundary float64, ok bool) {
	if !t.armed {
		t.next, t.armed = now+1, true
		return 0, false
	}
	if now < t.next {
		return 0, false
	}
	boundary = t.next + math.Floor(now-t.next)
	t.next = boundary + 1
	return boundary, true
}

// BenchmarkAssembler times the packet path alone — Add, the 1 s ticks and
// the final Flush — on captures in the shapes of the benchmark of
// record's serve_bulk (elephant flows) and serve_short (scan storm, ~1k
// live flows at a tick) workloads, so this layer can be profiled without
// the nested bench/ module.
func BenchmarkAssembler(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  traffic.Config
	}{
		{"bulk", traffic.Config{Sessions: 3000, Seed: 1,
			Mix: map[traffic.Label]float64{traffic.Benign: 0.5, traffic.DoS: 0.3, traffic.DDoS: 0.2}}},
		{"scan", traffic.Config{Sessions: 10000, Duration: 300, Seed: 1,
			Mix: map[traffic.Label]float64{traffic.PortScan: 0.7, traffic.BruteForce: 0.1, traffic.Benign: 0.2}}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			pkts := traffic.Generate(shape.cfg).Packets
			flows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := netflow.NewAssembler(0, 0, func(*netflow.Flow) { flows++ })
				var tk ticker
				for j := range pkts {
					if at, ok := tk.crossed(pkts[j].Time); ok {
						a.EvictIdle(at)
					}
					a.Add(&pkts[j])
				}
				a.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
			b.ReportMetric(float64(len(pkts))*float64(b.N)/float64(flows), "pkts/flow")
		})
	}
}

// BenchmarkShardKey times the partition hash per packet over a generated
// capture's tuples, as they are (v4) and with both addresses lifted into
// IPv6 by a nonzero first byte (v6).
func BenchmarkShardKey(b *testing.B) {
	v4 := traffic.Generate(traffic.Config{Sessions: 500, Seed: 1}).Packets
	v6 := slices.Clone(v4)
	for i := range v6 {
		v6[i].SrcIP[0], v6[i].DstIP[0] = 0x20, 0x20
	}
	for _, c := range []struct {
		name string
		pkts []netflow.Packet
	}{{"v4", v4}, {"v6", v6}} {
		b.Run(c.name, func(b *testing.B) {
			var keep uint64
			for i := 0; i < b.N; i++ {
				for j := range c.pkts {
					keep ^= c.pkts[j].ShardKey()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.pkts)), "ns/pkt")
			if keep == 1 {
				b.Log(keep) // keeps the loop from being optimized away
			}
		})
	}
}
