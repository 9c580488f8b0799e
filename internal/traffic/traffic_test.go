package traffic

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"cyberhd/internal/netflow"
)

// TestGenerateGoldenDigest pins Generate's output — every packet field in
// stream order, and the label of every packet's flow — for a default-mix
// and a scan-heavy config. Generate's order contract (capture time, equal
// times in emission order) is part of the stream, so these digests hold
// whichever sort keeps it.
func TestGenerateGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{Sessions: 300, Seed: 11}, 0x280bda849db22f32},
		{Config{Sessions: 400, Seed: 12, Mix: map[Label]float64{Benign: 0.3, PortScan: 0.5, DoS: 0.2}}, 0xb129e55a37929},
	} {
		s := Generate(tc.cfg)
		h := fnv.New64a()
		var rec []byte
		for i := range s.Packets {
			p := &s.Packets[i]
			key, _ := netflow.KeyOf(p)
			rec = binary.LittleEndian.AppendUint64(rec[:0], math.Float64bits(p.Time))
			rec = append(rec, p.SrcIP[:]...)
			rec = append(rec, p.DstIP[:]...)
			rec = binary.LittleEndian.AppendUint16(rec, p.SrcPort)
			rec = binary.LittleEndian.AppendUint16(rec, p.DstPort)
			rec = append(rec, byte(p.Proto), p.Flags, byte(s.Labels[key]))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(p.Length))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(p.HeaderLen))
			rec = binary.LittleEndian.AppendUint16(rec, p.WindowSize)
			rec = binary.LittleEndian.AppendUint16(rec, p.VLAN)
			h.Write(rec)
		}
		if got := h.Sum64(); got != tc.want || len(s.Labels) == 0 {
			t.Errorf("sessions %d seed %d: %d packets, %d flows, digest %#x, want %#x",
				tc.cfg.Sessions, tc.cfg.Seed, len(s.Packets), len(s.Labels), got, tc.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Sessions: 200, Seed: 7})
	b := Generate(Config{Sessions: 200, Seed: 7})
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateTimeOrdered(t *testing.T) {
	s := Generate(Config{Sessions: 300, Seed: 1})
	for i := 1; i < len(s.Packets); i++ {
		if s.Packets[i].Time < s.Packets[i-1].Time {
			t.Fatalf("packets out of order at %d", i)
		}
	}
}

func TestEveryPacketHasLabel(t *testing.T) {
	s := Generate(Config{Sessions: 300, Seed: 2})
	for i := range s.Packets {
		key, _ := netflow.KeyOf(&s.Packets[i])
		if _, ok := s.Labels[key]; !ok {
			t.Fatalf("packet %d has no labeled flow", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	s := Generate(Config{Sessions: 4000, Seed: 3})
	counts := map[Label]int{}
	for _, l := range s.Labels {
		counts[l]++
	}
	if counts[Benign] == 0 {
		t.Fatal("no benign flows")
	}
	// Benign should dominate flows-by-session mix... but portscan/
	// bruteforce sessions expand into many flows, so just check presence
	// of every class.
	for l := Benign; l < Label(NumLabels); l++ {
		if counts[l] == 0 {
			t.Errorf("label %s absent from 4000 sessions", l)
		}
	}
}

func TestCustomMixOnlyRequestedLabels(t *testing.T) {
	s := Generate(Config{Sessions: 500, Seed: 4, Mix: map[Label]float64{Benign: 1}})
	for _, l := range s.Labels {
		if l != Benign {
			t.Fatalf("unexpected label %s in benign-only mix", l)
		}
	}
}

// flowsByLabel assembles the stream and groups completed flows.
func flowsByLabel(t *testing.T, s *Stream) map[Label][]*netflow.Flow {
	t.Helper()
	out := map[Label][]*netflow.Flow{}
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) {
		l, ok := s.Labels[f.Key]
		if !ok {
			t.Fatalf("evicted flow has no label: %+v", f.Key)
		}
		out[l] = append(out[l], f)
	})
	for i := range s.Packets {
		a.Add(&s.Packets[i])
	}
	a.Flush()
	return out
}

func TestAttackSignatures(t *testing.T) {
	s := Generate(Config{Sessions: 1200, Seed: 5})
	flows := flowsByLabel(t, s)

	meanOver := func(fs []*netflow.Flow, f func(*netflow.Flow) float64) float64 {
		var sum float64
		for _, fl := range fs {
			sum += f(fl)
		}
		return sum / float64(len(fs))
	}

	// DoS flows should have a far higher packet rate than benign.
	rate := func(f *netflow.Flow) float64 {
		d := f.Duration()
		if d == 0 {
			return 0
		}
		return float64(f.TotalPackets()) / d
	}
	if len(flows[DoS]) == 0 || len(flows[Benign]) == 0 {
		t.Fatal("missing DoS or benign flows")
	}
	if dosRate, benignRate := meanOver(flows[DoS], rate), meanOver(flows[Benign], rate); dosRate < 5*benignRate {
		t.Errorf("DoS rate %.1f not >> benign rate %.1f", dosRate, benignRate)
	}

	// Port-scan flows are tiny.
	pkts := func(f *netflow.Flow) float64 { return float64(f.TotalPackets()) }
	if got := meanOver(flows[PortScan], pkts); got > 3 {
		t.Errorf("portscan mean packets = %.1f, want tiny", got)
	}

	// Botnet flows live long with regular IATs.
	if len(flows[Botnet]) > 0 {
		dur := meanOver(flows[Botnet], (*netflow.Flow).Duration)
		if dur < 30 {
			t.Errorf("botnet mean duration = %.1f s, want long", dur)
		}
		cv := meanOver(flows[Botnet], func(f *netflow.Flow) float64 {
			if f.FwdIAT.Mean() == 0 {
				return 1
			}
			return f.FwdIAT.Std() / f.FwdIAT.Mean()
		})
		if cv > 1.1 {
			t.Errorf("botnet IAT coefficient of variation = %.2f, want regular", cv)
		}
	}

	// Infiltration uploads much more than it downloads.
	if len(flows[Infiltration]) > 0 {
		upDown := meanOver(flows[Infiltration], func(f *netflow.Flow) float64 {
			if f.BwdLen.Sum == 0 {
				return 100
			}
			return f.FwdLen.Sum / f.BwdLen.Sum
		})
		if upDown < 5 {
			t.Errorf("infiltration up/down byte ratio = %.1f, want upload-heavy", upDown)
		}
	}
}

func TestLabelStrings(t *testing.T) {
	if Benign.String() != "benign" || PortScan.String() != "portscan" {
		t.Fatal("label names wrong")
	}
	if Label(99).String() != "label(99)" {
		t.Fatal("out-of-range label name")
	}
	if len(LabelNames()) != NumLabels {
		t.Fatal("LabelNames length")
	}
}

func TestFeaturesFiniteAcrossAllTraffic(t *testing.T) {
	s := Generate(Config{Sessions: 800, Seed: 6})
	flows := flowsByLabel(t, s)
	for label, fs := range flows {
		for _, f := range fs {
			for i, v := range f.AppendFeatures(nil) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s flow: feature %d not finite", label, i)
				}
			}
		}
	}
}

type orderCase struct {
	name  string
	times []float64
}

// timeOrderCases are inputs whose stable time order sortPairs must
// reproduce: ties, signed zeros, every float64 class, presorted and
// reversed runs, and keys that differ in one byte only.
var timeOrderCases = func() []orderCase {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	var runs, sorted, reversed, lowByte, highByte []float64
	for i := range 200 {
		runs = append(runs, float64(i/20%3), 7)
		sorted = append(sorted, float64(i)/8)
		reversed = append(reversed, float64(200-i)/8)
		b := uint64(i*37%256) ^ uint64(i%3)
		lowByte = append(lowByte, math.Float64frombits(0x4045_1234_5678_9a00|b))
		highByte = append(highByte, math.Float64frombits(b<<56|0x0012_3456_789a_bcde))
	}
	return []orderCase{
		{"empty", nil},
		{"one", []float64{3}},
		{"two reversed", []float64{2, 1}},
		{"two tied", []float64{1, 1}},
		{"runs of ties", runs},
		{"signed zeros", []float64{0, negZero, 1, negZero, 0, -1, negZero}},
		{"every class", []float64{1, -1, 5e-324, -5e-324, math.Inf(1), nan, math.Inf(-1), 0, negNaN,
			math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308, nan, -2.5}},
		{"already sorted", sorted},
		{"reversed", reversed},
		{"low byte only", lowByte},
		{"high byte only", highByte},
	}
}()

// timeOrder returns the permutation sortPairs puts times in.
func timeOrder(times []float64) []int {
	ps := make([]pair, len(times))
	for i, t := range times {
		ps[i] = pair{timeKey(t), i}
	}
	out := make([]int, 0, len(ps))
	for _, p := range sortPairs(ps) {
		out = append(out, p.idx)
	}
	return out
}

// stableOrder is the reference: the permutation a stable sort by
// cmp.Compare puts times in.
func stableOrder(times []float64) []int {
	out := make([]int, len(times))
	for i := range out {
		out[i] = i
	}
	slices.SortStableFunc(out, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	return out
}

func TestTimeOrderMatchesStableSort(t *testing.T) {
	for _, tc := range timeOrderCases {
		if got, want := timeOrder(tc.times), stableOrder(tc.times); !slices.Equal(got, want) {
			t.Errorf("%s: order %v, want %v", tc.name, got, want)
		}
	}
}

// FuzzTimeOrder reads each 8 bytes as one float64 bit pattern, up to 64
// values, and requires sortPairs's permutation to equal the stable sort's.
// The cap keeps the engine's minimizer from stalling a 20 s run on one
// long input; the table test covers the long runs.
func FuzzTimeOrder(f *testing.F) {
	for _, tc := range timeOrderCases {
		var in []byte
		for _, t := range tc.times {
			in = binary.LittleEndian.AppendUint64(in, math.Float64bits(t))
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		times := make([]float64, min(len(in)/8, 64))
		for i := range times {
			times[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		if got, want := timeOrder(times), stableOrder(times); !slices.Equal(got, want) {
			t.Fatalf("times %v: order %v, want %v", times, got, want)
		}
	})
}

// BenchmarkGenerate times the synthesizer at the serving workloads'
// set-up shape (1500 sessions) and at cyberhd's default -train (3000).
func BenchmarkGenerate(b *testing.B) {
	for _, sessions := range []int{1500, 3000} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Generate(Config{Sessions: sessions, Seed: 1})
			}
		})
	}
}
