package netflow

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"cyberhd/internal/rng"
)

func TestStatsBasic(t *testing.T) {
	var s Stats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N != 8 || s.Sum != 40 {
		t.Fatalf("N=%d Sum=%v", s.N, s.Sum)
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", s.Std())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min=%v Max=%v", s.Min, s.Max)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Std() != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatal("empty stats should be all zero")
	}
}

func TestMergeStatsMatchesSequential(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		na, nb := 1+r.Intn(50), 1+r.Intn(50)
		var a, b, both Stats
		for i := 0; i < na; i++ {
			x := r.Norm() * 10
			a.Add(x)
			both.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := r.Norm() * 10
			b.Add(x)
			both.Add(x)
		}
		m := mergeStats(a, b)
		return m.N == both.N &&
			math.Abs(m.Mean()-both.Mean()) < 1e-9 &&
			math.Abs(m.Variance()-both.Variance()) < 1e-9 &&
			m.Min == both.Min && m.Max == both.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyOfBidirectional(t *testing.T) {
	fwd := &Packet{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 40000, DstPort: 80, Proto: TCP}
	bwd := &Packet{SrcIP: IPv4(10, 0, 0, 2), DstIP: IPv4(10, 0, 0, 1), SrcPort: 80, DstPort: 40000, Proto: TCP}
	kf, aToBf := KeyOf(fwd)
	kb, aToBb := KeyOf(bwd)
	if kf != kb {
		t.Fatal("directions map to different keys")
	}
	if aToBf == aToBb {
		t.Fatal("orientation flag identical for opposite directions")
	}
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" || ICMP.String() != "icmp" {
		t.Fatal("proto names wrong")
	}
	if Proto(42).String() != "proto(42)" {
		t.Fatalf("unknown proto: %s", Proto(42))
	}
}

// tcpExchange emits a simple request/response conversation.
func tcpExchange(start float64) []*Packet {
	c, s := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 99)
	mk := func(dt float64, fromClient bool, length int, flags uint8) *Packet {
		p := &Packet{Time: start + dt, Proto: TCP, Length: length, HeaderLen: 40, Flags: flags, WindowSize: 64240}
		if fromClient {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = c, s, 43210, 443
		} else {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = s, c, 443, 43210
		}
		return p
	}
	return []*Packet{
		mk(0.000, true, 60, SYN),
		mk(0.010, false, 60, SYN|ACK),
		mk(0.020, true, 52, ACK),
		mk(0.030, true, 500, PSH|ACK),
		mk(0.050, false, 1500, ACK),
		mk(0.060, false, 1200, PSH|ACK),
		mk(0.070, true, 52, ACK),
		mk(0.080, true, 52, FIN|ACK),
		mk(0.090, false, 52, FIN|ACK),
		mk(0.100, true, 52, ACK),
	}
}

func TestAssemblerCompletesOnFin(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	for _, p := range tcpExchange(0) {
		a.Add(p)
	}
	if len(flows) != 1 {
		t.Fatalf("%d flows evicted, want 1 (FIN termination)", len(flows))
	}
	f := flows[0]
	if f.FwdLen.N != 6 || f.BwdLen.N != 4 {
		t.Fatalf("fwd=%d bwd=%d packets", f.FwdLen.N, f.BwdLen.N)
	}
	if math.Abs(f.Duration()-0.1) > 1e-9 {
		t.Fatalf("duration = %v", f.Duration())
	}
	if a.Active() != 0 {
		t.Fatalf("assembler still holds %d flows", a.Active())
	}
}

func TestAssemblerRSTTerminates(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	pkts := tcpExchange(0)[:4]
	a.Add(pkts[0])
	a.Add(pkts[1])
	rst := *pkts[2]
	rst.Flags = RST
	a.Add(&rst)
	if len(flows) != 1 {
		t.Fatalf("RST did not evict (got %d flows)", len(flows))
	}
}

func TestAssemblerIdleTimeout(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(10, 1, func(f *Flow) { flows = append(flows, f) })
	p1 := &Packet{Time: 0, SrcIP: AddrV4(1), DstIP: AddrV4(2), SrcPort: 1000, DstPort: 53, Proto: UDP, Length: 80, HeaderLen: 28}
	p2 := &Packet{Time: 100, SrcIP: AddrV4(1), DstIP: AddrV4(2), SrcPort: 1000, DstPort: 53, Proto: UDP, Length: 80, HeaderLen: 28}
	a.Add(p1)
	a.Add(p2) // 100 s later: p1's flow evicts, p2 starts a new one
	if len(flows) != 1 {
		t.Fatalf("idle timeout did not evict (%d)", len(flows))
	}
	if a.Active() != 1 {
		t.Fatalf("new flow not started")
	}
	a.Flush()
	if len(flows) != 2 {
		t.Fatalf("flush missed flows: %d", len(flows))
	}
}

// TestEvictIdle: replied flows leave through the idle timeout, not the
// shorter NoReplyTimeout.
func TestEvictIdle(t *testing.T) {
	evicted := 0
	a := NewAssembler(10, 1, func(*Flow) { evicted++ })
	a.Add(&Packet{Time: 0, SrcIP: AddrV4(1), DstIP: AddrV4(2), SrcPort: 1, DstPort: 2, Proto: UDP, Length: 50, HeaderLen: 28})
	a.Add(&Packet{Time: 0, SrcIP: AddrV4(2), DstIP: AddrV4(1), SrcPort: 2, DstPort: 1, Proto: UDP, Length: 50, HeaderLen: 28})
	a.Add(&Packet{Time: 5, SrcIP: AddrV4(3), DstIP: AddrV4(4), SrcPort: 3, DstPort: 4, Proto: UDP, Length: 50, HeaderLen: 28})
	a.Add(&Packet{Time: 5, SrcIP: AddrV4(4), DstIP: AddrV4(3), SrcPort: 4, DstPort: 3, Proto: UDP, Length: 50, HeaderLen: 28})
	a.EvictIdle(12) // first flow idle 12 s > 10, second only 7 s
	if evicted != 1 || a.Active() != 1 {
		t.Fatalf("evicted=%d active=%d", evicted, a.Active())
	}
	if a.Evicted() != 1 {
		t.Fatalf("Evicted() = %d", a.Evicted())
	}
}

// TestNoReplyTimeout pins the per-state timeout: a flow with no backward
// packet ends after NoReplyTimeout of silence, a replied one after the
// idle timeout, and an idle timeout under NoReplyTimeout bounds both.
func TestNoReplyTimeout(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(CICIdleTimeout, 1, func(f *Flow) { flows = append(flows, f) })
	probe := func(at float64, port uint16) *Packet {
		return &Packet{Time: at, SrcIP: AddrV4(1), DstIP: AddrV4(2), SrcPort: 40000, DstPort: port, Proto: TCP, Length: 40, HeaderLen: 40, Flags: SYN}
	}
	reply := func(p *Packet, at float64) *Packet {
		q := *p
		q.Time, q.SrcIP, q.DstIP, q.SrcPort, q.DstPort, q.Flags = at, p.DstIP, p.SrcIP, p.DstPort, p.SrcPort, SYN|ACK
		return &q
	}
	a.Add(probe(0, 1))
	a.Add(probe(5, 1)) // exactly 5 s idle: the same flow
	a.Add(probe(0, 2))
	a.Add(probe(5.25, 2)) // past 5 s: a new flow
	if len(flows) != 1 || flows[0].TotalPackets() != 1 || a.Active() != 2 {
		t.Fatalf("%d flows evicted, %d live; want the port-2 probe evicted and two flows live", len(flows), a.Active())
	}
	p := probe(0, 3)
	a.Add(p)
	a.Add(reply(p, 5.25)) // a reply past 5 s starts a new flow, the responder its initiator
	if len(flows) != 2 || a.Active() != 3 {
		t.Fatalf("%d flows evicted, %d live after a late reply; want 2 and 3", len(flows), a.Active())
	}
	p = probe(0, 4)
	a.Add(p)
	a.Add(reply(p, 1)) // a reply inside 5 s: the flow keeps the idle timeout
	a.EvictIdle(100)
	if len(flows) != 5 || a.Active() != 1 || flows[4].InitSrcIP != AddrV4(2) {
		t.Fatalf("%d flows evicted, %d live; want every unanswered flow evicted, the late reply's with initiator %v, and the replied flow live",
			len(flows), a.Active(), AddrV4(2))
	}
	a.Add(probe(101, 4)) // 100 s of silence, under the idle timeout
	if len(flows) != 5 || a.Active() != 1 {
		t.Fatalf("a replied flow silent 100 s ended: %d evicted, %d live", len(flows), a.Active())
	}

	// An idle timeout under NoReplyTimeout bounds both lists.
	flows = flows[:0]
	a = NewAssembler(2, 1, func(f *Flow) { flows = append(flows, f) })
	p = probe(0, 1)
	a.Add(p)
	a.Add(reply(p, 0))
	a.Add(probe(0, 2))
	a.EvictIdle(2.5)
	if len(flows) != 2 || a.Active() != 0 {
		t.Fatalf("idle timeout 2: %d flows evicted at 2.5 s, %d live; want both evicted", len(flows), a.Active())
	}
}

func TestFeatureVectorShapeAndNames(t *testing.T) {
	if len(FeatureNames()) != NumFeatures {
		t.Fatalf("%d names", len(FeatureNames()))
	}
	seen := map[string]bool{}
	for _, n := range FeatureNames() {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	for _, p := range tcpExchange(0) {
		a.Add(p)
	}
	v := flows[0].AppendFeatures(nil)
	if len(v) != NumFeatures {
		t.Fatalf("feature vector length %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatalf("feature %d (%s) not finite: %v", i, featureNames[i], x)
		}
	}
}

func TestFeatureSemantics(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	for _, p := range tcpExchange(0) {
		a.Add(p)
	}
	v := flows[0].AppendFeatures(nil)
	name := FeatureNames()
	get := func(n string) float64 {
		for i, fn := range name {
			if fn == n {
				return float64(v[i])
			}
		}
		t.Fatalf("no feature %q", n)
		return 0
	}
	if get("total_fwd_packets") != 6 || get("total_bwd_packets") != 4 {
		t.Errorf("packet counts: fwd=%v bwd=%v", get("total_fwd_packets"), get("total_bwd_packets"))
	}
	if get("destination_port") != 443 {
		t.Errorf("destination_port = %v", get("destination_port"))
	}
	if get("protocol") != 6 {
		t.Errorf("protocol = %v", get("protocol"))
	}
	if get("syn_flag_count") != 2 { // SYN and SYN|ACK
		t.Errorf("syn_flag_count = %v", get("syn_flag_count"))
	}
	if get("fin_flag_count") != 2 {
		t.Errorf("fin_flag_count = %v", get("fin_flag_count"))
	}
	wantFwdBytes := 60.0 + 52 + 500 + 52 + 52 + 52
	if get("total_len_fwd_packets") != wantFwdBytes {
		t.Errorf("fwd bytes = %v, want %v", get("total_len_fwd_packets"), wantFwdBytes)
	}
	if get("init_fwd_win_bytes") != 64240 {
		t.Errorf("init fwd win = %v", get("init_fwd_win_bytes"))
	}
	if get("flow_duration") <= 0 {
		t.Errorf("duration = %v", get("flow_duration"))
	}
	if math.Abs(get("down_up_ratio")-4.0/6.0) > 1e-6 {
		t.Errorf("down/up = %v", get("down_up_ratio"))
	}
}

func TestSinglePacketFlowFeaturesFinite(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	a.Add(&Packet{Time: 1, SrcIP: AddrV4(9), DstIP: AddrV4(8), SrcPort: 5, DstPort: 53, Proto: UDP, Length: 64, HeaderLen: 28})
	a.Flush()
	v := flows[0].AppendFeatures(nil)
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatalf("feature %d (%s) not finite on 1-packet flow: %v", i, featureNames[i], x)
		}
	}
}

func TestActivityPeriods(t *testing.T) {
	var flows []*Flow
	a := NewAssembler(120, 1, func(f *Flow) { flows = append(flows, f) })
	mk := func(ts float64, port uint16) *Packet {
		return &Packet{Time: ts, SrcIP: AddrV4(1), DstIP: AddrV4(2), SrcPort: port, DstPort: 9, Proto: UDP, Length: 100, HeaderLen: 28}
	}
	// Two bursts separated by a 5 s gap (> 1 s activity gap) from port 7,
	// and one gap-free burst from port 8.
	for _, ts := range []float64{0, 0.1, 0.2, 5.2, 5.3} {
		a.Add(mk(ts, 7))
		a.Add(mk(ts/10, 8))
	}
	a.Flush()
	active, idle := flows[0].Activity()
	if active.N != 2 {
		t.Fatalf("active periods = %d, want 2", active.N)
	}
	if idle.N != 1 || math.Abs(idle.Sum-5) > 1e-9 {
		t.Fatalf("idle: N=%d sum=%v", idle.N, idle.Sum)
	}
	if active, idle := flows[1].Activity(); active.N != 1 || active.Sum != flows[1].Duration() || idle != (Stats{}) {
		t.Fatalf("gap-free flow: active %+v, idle %+v; want one period of %v and no idle", active, idle, flows[1].Duration())
	}
}

// TestFlowLayout pins the Flow's size, its first cache line (Key, the
// table hash and the list links) and the saturating packet counters.
func TestFlowLayout(t *testing.T) {
	if size, end := unsafe.Sizeof(Flow{}), unsafe.Offsetof(Flow{}.next)+unsafe.Sizeof(Flow{}.next); size != 448 || end > 64 {
		t.Fatalf("Flow is %d bytes and next ends at byte %d, want 448 and at most 64", size, end)
	}
	p := &Packet{SrcIP: AddrV4(1), DstIP: AddrV4(2), Proto: TCP, Length: 100, HeaderLen: 40, Flags: PSH}
	f := newFlow(p)
	f.FlagCounts[3], f.FwdPSH, f.FwdActDataPkts = math.MaxUint32, math.MaxUint32, math.MaxUint32
	f.update(p, true, 0)
	if f.FlagCounts[3] != math.MaxUint32 || f.FwdPSH != math.MaxUint32 || f.FwdActDataPkts != math.MaxUint32 {
		t.Fatalf("counters at the ceiling moved: PSH count %d, FwdPSH %d, FwdActDataPkts %d", f.FlagCounts[3], f.FwdPSH, f.FwdActDataPkts)
	}
}

// TestFlowKeyHashDirectionInvariant: both directions of a flow must hash
// identically — the property that lets the hash partition packets across
// engine shards without splitting flows.
func TestFlowKeyHashDirectionInvariant(t *testing.T) {
	fwd := &Packet{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 44123, DstPort: 443, Proto: TCP}
	bwd := &Packet{SrcIP: IPv4(10, 0, 0, 2), DstIP: IPv4(10, 0, 0, 1), SrcPort: 443, DstPort: 44123, Proto: TCP}
	if fwd.ShardKey() != bwd.ShardKey() {
		t.Fatalf("direction changed shard key: %x != %x", fwd.ShardKey(), bwd.ShardKey())
	}
	kf, _ := KeyOf(fwd)
	if kf.Hash() != fwd.ShardKey() {
		t.Fatal("ShardKey does not equal the canonical FlowKey hash")
	}
}

// TestFlowKeyHashDistribution: distinct 5-tuples must spread evenly over
// the shard counts engines and clusters use, in each address family (no
// clumping from the fold): 50 hosts with 40 consecutive ports each, the
// shape that clumps when a port moves the hash by a fixed step. % 2 reads
// only the fold's low bit.
func TestFlowKeyHashDistribution(t *testing.T) {
	host := func(s string, i byte) Addr { a := MustParseAddr(s); a[15] += i; return a }
	for _, fam := range []struct{ name, src, dst string }{
		{"v4", "192.168.0.0", "10.0.0.1"},
		{"v6", "2001:db8::", "2001:db8:ffff::9"},
		{"mixed", "2001:db8::", "10.0.0.1"},
	} {
		for _, shards := range []uint64{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/mod%d", fam.name, shards), func(t *testing.T) {
				counts := make([]int, shards)
				n := 0
				for ip := byte(1); ip <= 50; ip++ {
					for port := uint16(1000); port < 1040; port++ {
						p := &Packet{SrcIP: host(fam.src, ip), DstIP: host(fam.dst, 0), SrcPort: port, DstPort: 443, Proto: TCP}
						counts[p.ShardKey()%shards]++
						n++
					}
				}
				// Chi-square against an even spread: a random hash keeps it
				// near its shards-1 degrees of freedom, so allow six
				// standard deviations of sqrt(2·dof) above that.
				want, chi2 := float64(n)/float64(shards), 0.0
				for _, c := range counts {
					chi2 += (float64(c) - want) * (float64(c) - want) / want
				}
				if dof := float64(shards - 1); chi2 > dof+6*math.Sqrt(2*dof) {
					t.Fatalf("shards got %v of %d flows: chi-square %.1f", counts, n, chi2)
				}
			})
		}
	}
}

// FuzzShardKey checks ShardKey against the key it stands for: for both
// directions of an arbitrary tuple it must equal KeyOf(p).Hash(), and
// KeyOf must orient by Addr.Compare, then port. Mode bits make the
// first or second endpoint v4-mapped, or the two addresses equal.
func FuzzShardKey(f *testing.F) {
	v6 := MustParseAddr("2001:db8::1")
	f.Add(v6[:], v6[:], uint16(443), uint16(40000), byte(TCP), byte(0))
	f.Add(v6[:], v6[:], uint16(53), uint16(53), byte(UDP), byte(3))
	f.Add(v6[:], v6[:], uint16(9), uint16(8), byte(TCP), byte(5))
	f.Fuzz(func(t *testing.T, a, b []byte, pa, pb uint16, proto, mode byte) {
		var src, dst Addr
		copy(src[:], a)
		copy(dst[:], b)
		if mode&1 != 0 {
			src = AddrV4(src.V4())
		}
		if mode&2 != 0 {
			dst = AddrV4(dst.V4())
		}
		if mode&4 != 0 {
			dst = src
		}
		fwd := Packet{SrcIP: src, DstIP: dst, SrcPort: pa, DstPort: pb, Proto: Proto(proto)}
		bwd := Packet{SrcIP: dst, DstIP: src, SrcPort: pb, DstPort: pa, Proto: Proto(proto)}
		for _, p := range []*Packet{&fwd, &bwd} {
			k, aToB := KeyOf(p)
			if c := k.IPA.Compare(k.IPB); c > 0 || c == 0 && k.PortA > k.PortB {
				t.Fatalf("KeyOf(%+v) = %+v is not in canonical order", *p, k)
			}
			if aToB != (k.IPA == p.SrcIP && k.PortA == p.SrcPort) {
				t.Fatalf("KeyOf(%+v) orientation %v does not match key %+v", *p, aToB, k)
			}
			if p.ShardKey() != k.Hash() {
				t.Fatalf("ShardKey(%+v) = %x, KeyOf(p).Hash() = %x", *p, p.ShardKey(), k.Hash())
			}
		}
	})
}

// TestFlowKeyHashDistinguishesTuples: tuple fields must all contribute.
func TestFlowKeyHashDistinguishesTuples(t *testing.T) {
	base := FlowKey{IPA: AddrV4(1), IPB: AddrV4(2), PortA: 3, PortB: 4, Proto: TCP}
	seen := map[uint64]string{base.Hash(): "base"}
	for name, k := range map[string]FlowKey{
		"ipa":   {IPA: AddrV4(9), IPB: AddrV4(2), PortA: 3, PortB: 4, Proto: TCP},
		"ipb":   {IPA: AddrV4(1), IPB: AddrV4(9), PortA: 3, PortB: 4, Proto: TCP},
		"porta": {IPA: AddrV4(1), IPB: AddrV4(2), PortA: 9, PortB: 4, Proto: TCP},
		"portb": {IPA: AddrV4(1), IPB: AddrV4(2), PortA: 3, PortB: 9, Proto: TCP},
		"proto": {IPA: AddrV4(1), IPB: AddrV4(2), PortA: 3, PortB: 4, Proto: UDP},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %s and %s", name, prev)
		}
		seen[h] = name
	}
}

// TestFlushOrderDeterministic: batch evictions (Flush, EvictIdle) must
// deliver flows in a stable order — by first-packet time — not Go's
// randomized map order. Derived datasets and end-of-capture alert
// sequences depend on it.
func TestFlushOrderDeterministic(t *testing.T) {
	run := func() []FlowKey {
		var order []FlowKey
		a := NewAssembler(120, 1, func(f *Flow) { order = append(order, f.Key) })
		for i := 0; i < 40; i++ {
			a.Add(&Packet{
				Time:  float64(i) * 0.01,
				SrcIP: IPv4(10, 0, 0, byte(i+1)), DstIP: IPv4(10, 0, 1, 1),
				SrcPort: uint16(2000 + i), DstPort: 443,
				Proto: TCP, Length: 100, HeaderLen: 40,
			})
		}
		a.Flush()
		return order
	}
	want := run()
	if len(want) != 40 {
		t.Fatalf("flushed %d flows, want 40", len(want))
	}
	for i := 1; i < len(want); i++ {
		if want[i-1] == want[i] {
			t.Fatal("duplicate eviction")
		}
	}
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: eviction %d = %+v, want %+v (order not deterministic)", trial, i, got[i], want[i])
			}
		}
	}
}

// tenantCase is one flow (endpoints a and b) with the tenant key and
// CIDR label its canonical key must bill.
type tenantCase struct {
	name, a, b string
	key        uint64
	label      string
}

// checkTenants pins the overload gate's fairness key for each case: both
// directions of the flow bill one tenant, the key is the /24 (IPv4,
// ip>>8) or /48 (IPv6, at or above 2^63) prefix of the canonical key's
// lower endpoint, and TenantLabel renders the key back as that prefix.
func checkTenants(t *testing.T, cases []tenantCase) {
	t.Helper()
	for _, tc := range cases {
		fwd := &Packet{SrcIP: MustParseAddr(tc.a), DstIP: MustParseAddr(tc.b), SrcPort: 443, DstPort: 51000, Proto: TCP}
		bwd := &Packet{SrcIP: fwd.DstIP, DstIP: fwd.SrcIP, SrcPort: 51000, DstPort: 443, Proto: TCP}
		kf, _ := KeyOf(fwd)
		kb, _ := KeyOf(bwd)
		if kf.Tenant() != kb.Tenant() {
			t.Fatalf("%s: fwd tenant %x != bwd tenant %x", tc.name, kf.Tenant(), kb.Tenant())
		}
		if got := kf.Tenant(); got != tc.key {
			t.Fatalf("%s: tenant %x, want %x", tc.name, got, tc.key)
		}
		if v6 := tc.key >= 1<<63; v6 == kf.IPA.Is4() {
			t.Fatalf("%s: tenant %x on the wrong side of 2^63 for its family", tc.name, tc.key)
		}
		if got := TenantLabel(tc.key); got != tc.label {
			t.Fatalf("%s: label %q, want %q", tc.name, got, tc.label)
		}
	}
}

// TestTenantKeyDirectionInvariant pins the IPv4 tenant key: hosts of one
// /24 share a key, /24s never do, and a v4-mapped endpoint bills its
// plain IPv4 /24.
func TestTenantKeyDirectionInvariant(t *testing.T) {
	checkTenants(t, []tenantCase{
		{"v4", "10.0.1.2", "11.1.2.3", 0x0A000102 >> 8, "10.0.1.0/24"},
		{"v4 same /24", "10.0.1.250", "12.0.0.1", 0x0A000102 >> 8, "10.0.1.0/24"},
		{"v4 other /24", "10.0.2.2", "11.1.2.3", 0x0A000202 >> 8, "10.0.2.0/24"},
		{"v4-mapped", "::ffff:10.0.1.9", "11.1.2.3", 0x0A000102 >> 8, "10.0.1.0/24"},
	})
}
