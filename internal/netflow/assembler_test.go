package netflow_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cyberhd/internal/netflow"
	"cyberhd/internal/rng"
	"cyberhd/internal/traffic"
)

// differ drives the assembler under test and the map-based reference
// (export_test.go) in lockstep and, after every call, compares everything a consumer can observe: the
// sequence of evicted flows (key, first and last time, every feature —
// not the pointer) and the Active and Evicted counts.
type differ struct {
	t         testing.TB
	got       *netflow.Assembler
	want      *netflow.RefAssembler
	gotFlows  []*netflow.Flow
	wantFlows []*netflow.Flow
	compared  int
	calls     int
	// invariantsEvery spaces the O(table) invariant check on long runs.
	invariantsEvery int
	// recycle makes the got side keep a copy of each flow and Recycle it.
	recycle bool
}

func newDiffer(t testing.TB, idleTimeout, activityGap float64) *differ {
	d := &differ{t: t, invariantsEvery: 1}
	d.got = netflow.NewAssembler(idleTimeout, activityGap, func(f *netflow.Flow) {
		if d.recycle {
			c := *f
			d.got.Recycle(f)
			f = &c
		}
		d.gotFlows = append(d.gotFlows, f)
	})
	d.want = netflow.NewRefAssembler(idleTimeout, activityGap, func(f *netflow.Flow) { d.wantFlows = append(d.wantFlows, f) })
	return d
}

func (d *differ) add(p *netflow.Packet) {
	q := *p
	d.got.Add(p)
	d.want.Add(&q)
	d.compare("Add")
}

func (d *differ) tick(now float64) {
	d.got.EvictIdle(now)
	d.want.EvictIdle(now)
	d.compare("EvictIdle")
}

func (d *differ) flush() {
	d.got.Flush()
	d.want.Flush()
	d.compare("Flush")
}

func (d *differ) compare(call string) {
	d.t.Helper()
	d.calls++
	if len(d.gotFlows) != len(d.wantFlows) {
		d.t.Fatalf("call %d (%s): %d flows evicted, reference evicted %d", d.calls, call, len(d.gotFlows), len(d.wantFlows))
	}
	for ; d.compared < len(d.gotFlows); d.compared++ {
		g, w := d.gotFlows[d.compared], d.wantFlows[d.compared]
		if g.Key != w.Key || math.Float64bits(g.FirstTime) != math.Float64bits(w.FirstTime) ||
			math.Float64bits(g.LastTime) != math.Float64bits(w.LastTime) {
			d.t.Fatalf("call %d (%s): eviction %d is %v [%v, %v], reference %v [%v, %v]", d.calls, call, d.compared,
				g.Key, g.FirstTime, g.LastTime, w.Key, w.FirstTime, w.LastTime)
		}
		gf, wf := g.AppendFeatures(nil), w.AppendFeatures(nil)
		for i := range wf {
			if math.Float32bits(gf[i]) != math.Float32bits(wf[i]) {
				d.t.Fatalf("call %d (%s): eviction %d (%v) feature %d = %v, reference %v", d.calls, call, d.compared, g.Key, i, gf[i], wf[i])
			}
		}
	}
	if d.got.Active() != d.want.Active() || d.got.Evicted() != d.want.Evicted() {
		d.t.Fatalf("call %d (%s): Active/Evicted = %d/%d, reference %d/%d", d.calls, call,
			d.got.Active(), d.got.Evicted(), d.want.Active(), d.want.Evicted())
	}
	if d.calls%d.invariantsEvery == 0 || d.got.Active() == 0 {
		if err := d.got.CheckTable(); err != nil {
			d.t.Fatalf("call %d (%s): %v", d.calls, call, err)
		}
	}
}

// ------------------------------------------------------------- scripts
//
// A script is a byte string, so the same cases serve as table tests and
// as fuzz seeds. Byte 0 is the mode (bit 0: the colliding universe under
// the zero table seed; bit 1: the assembler under test recycles every
// flow it delivers; bit 2: IdleTimeout scriptShortIdle); every four
// bytes after it are one step:
//
//	[c k d f]  c <  0xf0: a packet — the clock moves by steps[c%len], key
//	                      k of the universe, d bit 0 reverses direction
//	                      and its other bits size the packet, f is the
//	                      TCP flag byte; the NaN step stamps the packet
//	                      NaN and leaves the clock where it is
//	           c >= 0xf0: EvictIdle(clock + tickAt[c&15 % len]), or Flush
//	                      when c is 0xff
//
// Scripts run with IdleTimeout 10 (mode bit 2: scriptShortIdle) and
// ActivityGap 1, and end in a Flush.

// steps mixes in-order gaps on both sides of the activity gap, the
// no-reply timeout and the idle timeout with repeated, backward and NaN
// timestamps.
var steps = []float64{0, 0.001, 0.01, 0.25, 0.5, 1, 1.5, 3, 5, 5.01, 9.5, 10, 10.5, 25, -0.001, -0.5, -3, -11, math.NaN()}

// tickAt puts ticks on, between and behind capture-second boundaries,
// and on either side of the no-reply and the idle timeout.
var tickAt = []float64{0, 0.5, -0.5, 1, 5, 5.01, 9.99, 10, 10.01, 11.5, 30, -20}

const (
	scriptIdle = 10
	// scriptShortIdle is under NoReplyTimeout, so it bounds both lists.
	scriptShortIdle = 2.5
	scriptGap       = 1
	maxSteps        = 4096 // bounds one fuzz execution
)

// universe is the keys a script's k byte selects from, each as a packet
// in one direction: IPv4 and IPv6, TCP and UDP, and a self-addressed
// pair whose two directions are the same tuple.
func universe() []netflow.Packet {
	u := make([]netflow.Packet, 256)
	for i := range u {
		p := &u[i]
		p.SrcIP, p.DstIP = netflow.IPv4(10, 0, byte(i>>4), byte(i)), netflow.IPv4(10, 9, 0, byte(i%7))
		if i%5 == 0 {
			var a, b [16]byte
			a[0], a[1], a[15] = 0x20, 0x01, byte(i)
			b[0], b[1], b[7], b[15] = 0x20, 0x01, byte(i), 1
			p.SrcIP, p.DstIP = netflow.AddrFrom16(a), netflow.AddrFrom16(b)
		}
		p.SrcPort, p.DstPort = uint16(40000+i), uint16(80+i%3)
		p.Proto = netflow.TCP
		if i%4 == 3 {
			p.Proto = netflow.UDP
		}
	}
	u[0].DstIP, u[0].DstPort = u[0].SrcIP, u[0].SrcPort
	return u
}

// collidingUniverse is IPv4 keys that differ in addresses only. Under the
// zero table seed they share one 64-bit hash (see SetTableSeed), chosen
// by port search to make their home slot the last one of a 128-slot
// table: every key lands in one probe run that starts at the end of the
// table and wraps around. Every fourth key is on a second port pair with
// a home two slots earlier, so the run mixes home slots and removal must
// tell which flows may move back over a hole.
func collidingUniverse(t testing.TB) []netflow.Packet {
	a := netflow.NewAssembler(0, 0, nil)
	a.SetTableSeed([4]uint64{})
	portFor := func(home uint64) uint16 {
		for port := uint16(1); port != 0; port++ {
			p := netflow.Packet{SrcIP: netflow.IPv4(10, 0, 0, 1), DstIP: netflow.IPv4(10, 0, 0, 2), SrcPort: port, DstPort: 443, Proto: netflow.TCP}
			if a.TableHash(&p)&127 == home {
				return port
			}
		}
		t.Fatalf("no source port hashes to slot %d", home)
		return 0
	}
	last, before := portFor(127), portFor(125)
	u := make([]netflow.Packet, 60) // under the 64 live flows that would grow the table past 128 slots
	for i := range u {
		u[i] = netflow.Packet{SrcIP: netflow.IPv4(10, 0, 0, byte(1+i)), DstIP: netflow.IPv4(10, 0, 1, byte(1+i)),
			SrcPort: last, DstPort: 443, Proto: netflow.TCP}
		if i%4 == 3 {
			u[i].SrcPort = before
		}
	}
	h := a.TableHash(&u[0])
	for i := range u {
		if i%4 != 3 && a.TableHash(&u[i]) != h {
			t.Fatalf("key %d does not collide under the zero seed", i)
		}
	}
	return u
}

// runScript decodes and runs one script against the reference, under
// the assembler's own random table seed or, when seed is not nil, that
// one. Mode bit 0 overrides either with the zero seed.
func runScript(t testing.TB, script []byte, seed *[4]uint64) *differ {
	t.Helper()
	idle := float64(scriptIdle)
	if len(script) > 0 && script[0]&4 != 0 {
		idle = scriptShortIdle
	}
	d := newDiffer(t, idle, scriptGap)
	if len(script) == 0 {
		return d
	}
	if seed != nil {
		d.got.SetTableSeed(*seed)
	}
	keys := universe()
	if script[0]&1 != 0 {
		keys = collidingUniverse(t)
		d.got.SetTableSeed([4]uint64{})
	}
	d.recycle = script[0]&2 != 0
	clock := 0.0
	for ops := script[1:]; len(ops) >= 4 && d.calls < maxSteps; ops = ops[4:] {
		c, k, dir, flags := ops[0], ops[1], ops[2], ops[3]
		switch {
		case c == 0xff:
			d.flush()
		case c >= 0xf0:
			d.tick(clock + tickAt[int(c&15)%len(tickAt)])
		default:
			p := keys[int(k)%len(keys)]
			if dir&1 != 0 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
			}
			if step := steps[int(c)%len(steps)]; math.IsNaN(step) {
				p.Time = step
			} else {
				clock += step
				p.Time = clock
			}
			p.HeaderLen = 40
			p.Length = 40 + int(dir>>1)*11
			if p.Proto == netflow.TCP {
				p.Flags, p.WindowSize = flags, uint16(dir)<<8|1
			}
			d.add(&p)
		}
	}
	d.flush()
	return d
}

// scriptBuilder writes scripts step by step.
type scriptBuilder []byte

func newScript(mode byte) *scriptBuilder { return &scriptBuilder{mode} }

// step indexes steps, key the universe.
func (s *scriptBuilder) pkt(step, key int, reverse bool, flags uint8) *scriptBuilder {
	dir := byte(key*2) &^ 1
	if reverse {
		dir |= 1
	}
	*s = append(*s, byte(step), byte(key), dir, flags)
	return s
}

func (s *scriptBuilder) tick(at int) *scriptBuilder {
	*s = append(*s, 0xf0|byte(at), 0, 0, 0)
	return s
}

func (s *scriptBuilder) flush() *scriptBuilder {
	*s = append(*s, 0xff, 0, 0, 0)
	return s
}

// stepOf and tickOf index steps and tickAt by value.
func stepOf(v float64) int { return mustIndex(steps, v) }
func tickOf(v float64) int { return mustIndex(tickAt, v) }

func mustIndex(s []float64, v float64) int {
	i := slices.IndexFunc(s, func(x float64) bool { return x == v || math.IsNaN(x) && math.IsNaN(v) })
	if i < 0 {
		panic(fmt.Sprintf("%v is not in %v", v, s))
	}
	return i
}

// adversarialScripts is the hand-written half of the differential test
// and the seed corpus of FuzzAssembler.
func adversarialScripts() map[string][]byte {
	const syn, ack, fin, rst = netflow.SYN, netflow.ACK, netflow.FIN, netflow.RST
	scripts := map[string][]byte{}

	// Ticks off the capture-second grid, behind the clock, and repeated;
	// flows on either side of the idle timeout at each.
	s := newScript(0)
	for k := 0; k < 12; k++ {
		s.pkt(stepOf(1.5), k, false, syn).pkt(stepOf(0.01), k, true, syn|ack)
	}
	s.tick(tickOf(0.5)).tick(tickOf(0.5)).tick(tickOf(-0.5)).tick(tickOf(9.99)).tick(tickOf(10)).
		tick(tickOf(10.01)).tick(tickOf(10.01)).tick(tickOf(-20)).tick(tickOf(30)).tick(tickOf(30))
	scripts["ticks"] = *s

	// A key re-used after its idle timeout: on the packet path (Add finds
	// the expired flow), and after a tick took the old flow first.
	s = newScript(0)
	s.pkt(stepOf(0), 1, false, syn).pkt(stepOf(0.25), 2, false, syn).
		pkt(stepOf(10.5), 1, true, ack).pkt(stepOf(0.25), 1, false, ack).
		tick(tickOf(11.5)).pkt(stepOf(25), 2, false, syn).pkt(stepOf(10), 2, true, ack).
		pkt(stepOf(10.5), 2, true, ack).pkt(stepOf(10.5), 0, false, syn).pkt(stepOf(10.5), 0, true, syn)
	scripts["reuse"] = *s

	// TCP closes: FIN, FIN, ACK in both orders of the FINs, a third FIN
	// in between, a RST mid-flow, a RST as the first packet, and the
	// self-addressed key, whose FINs all count for side A.
	s = newScript(0)
	for k, rev := range []bool{false, true} {
		s.pkt(stepOf(0.01), k+4, false, syn).pkt(stepOf(0.01), k+4, true, syn|ack).
			pkt(stepOf(0.25), k+4, rev, fin|ack).pkt(stepOf(0.01), k+4, rev, fin|ack).
			pkt(stepOf(0.01), k+4, !rev, fin|ack).pkt(stepOf(0.01), k+4, rev, ack).
			pkt(stepOf(0.5), k+4, rev, ack)
	}
	s.pkt(stepOf(0.01), 8, false, syn).pkt(stepOf(0.01), 8, true, rst).pkt(stepOf(0.01), 8, true, rst).
		pkt(stepOf(0.01), 0, false, fin).pkt(stepOf(0.01), 0, true, fin).pkt(stepOf(0.01), 0, false, ack).
		pkt(stepOf(0.01), 3, false, fin).pkt(stepOf(0.01), 3, true, fin).pkt(stepOf(0.01), 3, false, ack)
	scripts["closes"] = *s

	// 200 live flows take the table through three doublings; closing them
	// one by one, interleaved with ticks, takes it back to empty, and the
	// keys come back afterwards.
	s = newScript(0)
	for k := 0; k < 200; k++ {
		s.pkt(stepOf(0.001), k, k%3 == 0, syn)
	}
	for k := 0; k < 200; k += 2 {
		s.pkt(stepOf(0.001), k, false, rst)
	}
	s.tick(tickOf(1))
	for k := 199; k > 0; k -= 2 {
		s.pkt(stepOf(0.001), k, true, rst)
	}
	s.tick(tickOf(30))
	for k := 0; k < 200; k += 7 {
		s.pkt(stepOf(0.25), k, false, syn)
	}
	scripts["grow-and-empty"] = *s

	// One probe run wrapping around the end of the table: filled, thinned
	// from the middle, the front and the back, refilled, idled out.
	s = newScript(1)
	for k := 0; k < 60; k++ {
		s.pkt(stepOf(0.001), k, false, syn)
	}
	for _, k := range []int{30, 31, 3, 29, 0, 1, 59, 58, 7, 32, 11} {
		s.pkt(stepOf(0.001), k, true, rst)
	}
	for k := 0; k < 60; k += 3 {
		s.pkt(stepOf(0.25), k, true, syn|ack)
	}
	s.tick(tickOf(9.99)).pkt(stepOf(10.5), 5, false, ack).tick(tickOf(0.5))
	for k := 59; k >= 0; k -= 2 {
		s.pkt(stepOf(0.001), k, false, rst)
	}
	scripts["one-probe-run"] = *s

	// Timestamps that repeat, run backward a little and a lot (past the
	// idle timeout), with ticks in between: the list insertion walks back.
	s = newScript(0)
	r := rng.New(5)
	for i := 0; i < 400; i++ {
		step := []float64{0, 0.5, -0.5, 3, -3, 0.001, -0.001, -11, 10.5, 1.5}[r.Intn(10)]
		s.pkt(stepOf(step), r.Intn(40), r.Intn(2) == 0, ack)
		if i%37 == 36 {
			s.tick(r.Intn(len(tickAt)))
		}
	}
	scripts["backward-time"] = *s

	// No-reply flows against NoReplyTimeout: a packet after exactly 5 s
	// of silence continues its flow, one just past 5 s starts a new one,
	// and a reply just past 5 s starts a new flow with the responder as
	// initiator; ticks on either side of 5 s behind the last packet.
	s = newScript(0)
	s.pkt(stepOf(0.25), 1, false, syn).pkt(stepOf(5), 1, false, syn).
		pkt(stepOf(0.25), 2, false, syn).pkt(stepOf(5.01), 2, false, syn).
		pkt(stepOf(0.5), 3, false, syn).pkt(stepOf(5.01), 3, true, syn|ack).pkt(stepOf(0.5), 3, false, ack).
		pkt(stepOf(1), 6, false, syn).tick(tickOf(5)).tick(tickOf(5.01)).
		pkt(stepOf(0.5), 7, true, 0).pkt(stepOf(5), 7, true, 0).tick(tickOf(5)).tick(tickOf(5.01))
	scripts["no-reply-timeout"] = *s

	// A reply inside 5 s moves the flow to the replied list: 9.5 s of
	// silence and ticks past 5 s leave it live, and it idles out only at
	// the idle timeout. Its neighbours that got no reply time out around
	// it.
	s = newScript(0)
	for k := 10; k < 16; k++ {
		s.pkt(stepOf(0.25), k, false, syn)
		if k%2 == 0 {
			s.pkt(stepOf(1), k, true, syn|ack)
		}
	}
	s.tick(tickOf(5.01)).pkt(stepOf(9.5), 10, false, ack).tick(tickOf(5.01)).tick(tickOf(9.99)).
		pkt(stepOf(1), 12, true, ack).tick(tickOf(10.01)).tick(tickOf(30))
	scripts["replied-outlives-no-reply"] = *s

	// Flows whose last-seen time is NaN at the head of each list, with
	// timed flows on both lists behind them that idle out: a NaN first
	// packet, one answered by a timed reply and one by a NaN reply, and a
	// timed flow that gets a NaN packet later.
	nan := stepOf(math.NaN())
	s = newScript(0)
	s.pkt(stepOf(0.5), 20, false, syn).pkt(nan, 21, false, syn).pkt(nan, 22, false, syn).
		pkt(stepOf(0.25), 22, true, syn|ack).pkt(nan, 23, false, syn).pkt(nan, 23, true, syn|ack).
		pkt(stepOf(0.25), 24, false, syn).pkt(stepOf(0.25), 24, true, syn|ack).pkt(nan, 24, false, ack).
		pkt(stepOf(0.25), 25, false, syn).pkt(stepOf(0.25), 26, false, syn).pkt(stepOf(0.01), 26, true, ack).
		tick(tickOf(5.01)).tick(tickOf(11.5)).pkt(stepOf(25), 21, true, ack).pkt(stepOf(0.01), 22, false, ack).
		tick(tickOf(30))
	scripts["nan-on-both-lists"] = *s

	// An idle timeout under NoReplyTimeout bounds both lists.
	s = newScript(4)
	for k := 30; k < 40; k++ {
		s.pkt(stepOf(0.5), k, false, syn)
		if k%3 == 0 {
			s.pkt(stepOf(0.01), k, true, syn|ack)
		}
	}
	s.tick(tickOf(1)).pkt(stepOf(1.5), 30, false, ack).pkt(stepOf(1.5), 31, false, ack).
		tick(tickOf(1)).pkt(stepOf(3), 33, true, ack).pkt(stepOf(3), 34, false, ack).tick(tickOf(5))
	scripts["idle-under-no-reply"] = *s
	return scripts
}

func TestAssemblerMatchesReferenceOnScripts(t *testing.T) {
	for name, script := range adversarialScripts() {
		t.Run(name, func(t *testing.T) {
			for _, recycle := range []byte{0, 2} { // plain, then recycling every flow
				d := runScript(t, append([]byte{script[0] | recycle}, script[1:]...), nil)
				if len(d.gotFlows) == 0 || d.got.Active() != 0 {
					t.Fatalf("mode %d: script evicted %d flows and left %d live", script[0]|recycle, len(d.gotFlows), d.got.Active())
				}
			}
		})
	}
}

// TestScriptsReachTheirCases keeps the adversarial scripts honest about
// the table states their names promise.
func TestScriptsReachTheirCases(t *testing.T) {
	scripts := adversarialScripts()

	a := netflow.NewAssembler(scriptIdle, scriptGap, nil)
	start := a.TableSlots()
	keys := universe()
	for k := 0; k < 200; k++ {
		a.Add(&keys[k])
	}
	if a.TableSlots() < 8*start {
		t.Errorf("200 live flows grew the table from %d to %d slots, want three doublings", start, a.TableSlots())
	}
	if d := runScript(t, scripts["grow-and-empty"], nil); d.got.TableSlots() < 8*start {
		t.Errorf("grow-and-empty left %d slots, want three doublings from %d", d.got.TableSlots(), start)
	}

	// All 60 colliding keys live: the table has 128 slots, the run starts
	// at slot 125 and so covers the last three slots and the first 57.
	a = netflow.NewAssembler(scriptIdle, scriptGap, nil)
	a.SetTableSeed([4]uint64{})
	keys = collidingUniverse(t)
	for k := range keys {
		a.Add(&keys[k])
	}
	if a.TableSlots() != 128 || a.Active() != 60 {
		t.Fatalf("colliding universe: %d flows in %d slots, want 60 in 128", a.Active(), a.TableSlots())
	}
	if err := a.CheckTable(); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblerMatchesReferenceOnTraffic replays generated captures in
// the shapes of the benchmark's serve_bulk and serve_short workloads with
// the Runner's 1 s ticks, at the default timeouts and at an idle timeout
// short enough that most flows leave through EvictIdle or the expired
// path of Add. Each assembler under test draws its own random table
// seed, so agreeing with the one reference every time also shows the
// seed reaches no output.
func TestAssemblerMatchesReferenceOnTraffic(t *testing.T) {
	shapes := map[string]traffic.Config{
		"bulk": {Sessions: 150, Seed: 11,
			Mix: map[traffic.Label]float64{traffic.Benign: 0.5, traffic.DoS: 0.3, traffic.DDoS: 0.2}},
		"scan": {Sessions: 1200, Duration: 40, Seed: 12,
			Mix: map[traffic.Label]float64{traffic.PortScan: 0.7, traffic.BruteForce: 0.1, traffic.Benign: 0.2}},
		"default-mix": {Sessions: 300, Seed: 13},
	}
	for name, cfg := range shapes {
		pkts := traffic.Generate(cfg).Packets
		for _, idle := range []float64{120, 2.5} {
			t.Run(fmt.Sprintf("%s/idle=%v", name, idle), func(t *testing.T) {
				d := newDiffer(t, idle, 1)
				d.invariantsEvery = 997
				var tk ticker
				for i := range pkts {
					if at, ok := tk.crossed(pkts[i].Time); ok {
						d.tick(at)
					}
					d.add(&pkts[i])
				}
				d.flush()
				if len(d.gotFlows) == 0 {
					t.Fatal("no flows")
				}
			})
		}
	}
}

// TestTableSeedReachesNoOutput runs two assemblers with different table
// seeds over the same input, fixed seeds and the random default, and
// compares what they deliver directly (each run is also pinned to the
// reference by the differ).
func TestTableSeedReachesNoOutput(t *testing.T) {
	for name, script := range adversarialScripts() {
		base := runScript(t, script, nil)
		for _, seed := range [][4]uint64{{1, 2, 3, 4}, {^uint64(0), 0, ^uint64(0), 0}, {0x9e3779b97f4a7c15, 5, 7, 11}} {
			d := runScript(t, script, &seed)
			same := slices.EqualFunc(d.gotFlows, base.gotFlows, func(x, y *netflow.Flow) bool {
				return x.Key == y.Key && math.Float64bits(x.FirstTime) == math.Float64bits(y.FirstTime) &&
					math.Float64bits(x.LastTime) == math.Float64bits(y.LastTime) && x.TotalPackets() == y.TotalPackets()
			})
			if !same {
				t.Errorf("%s: seed %x delivers different flows than the random seed", name, seed)
			}
		}
	}
}

// FuzzAssembler runs arbitrary scripts against the reference; the
// adversarial scripts are its seed corpus.
func FuzzAssembler(f *testing.F) {
	for _, script := range adversarialScripts() {
		f.Add(script)
		f.Add(append([]byte{script[0] | 2}, script[1:]...))
	}
	f.Fuzz(func(t *testing.T, script []byte) { runScript(t, script, nil) })
}

// pkt is a one-line TCP packet between two hosts of 10.0.0.0/24.
func pkt(at float64, src, dst byte, flags uint8) *netflow.Packet {
	return &netflow.Packet{Time: at, SrcIP: netflow.IPv4(10, 0, 0, src), DstIP: netflow.IPv4(10, 0, 0, dst),
		SrcPort: 40000, DstPort: 443, Proto: netflow.TCP, Length: 60, HeaderLen: 40, Flags: flags}
}

// TestReentrantAddDuringEvictIdle pins the callback contract: onEvict may
// add packets while an eviction pass is under way. Here the packet
// re-uses the key of a victim still waiting its turn, past its idle
// timeout — Add evicts that victim and starts a successor, and the pass
// must then neither deliver the victim a second time nor take the
// successor out by key.
func TestReentrantAddDuringEvictIdle(t *testing.T) {
	var a *netflow.Assembler
	var delivered []*netflow.Flow
	a = netflow.NewAssembler(10, 1, func(f *netflow.Flow) {
		delivered = append(delivered, f)
		if len(delivered) == 1 {
			a.Add(pkt(100, 3, 4, netflow.ACK)) // the second victim's key
			a.EvictIdle(100)                   // and a nested pass, with nothing left to take
		}
	})
	a.Add(pkt(0, 1, 2, netflow.SYN))
	a.Add(pkt(1, 3, 4, netflow.SYN))
	a.EvictIdle(100)
	if len(delivered) != 2 || delivered[0] == delivered[1] {
		t.Fatalf("%d flows delivered (want the two victims, once each): %v", len(delivered), delivered)
	}
	if delivered[0].FirstTime != 0 || delivered[1].FirstTime != 1 {
		t.Errorf("delivered first-packet times %v, %v; want 0, 1", delivered[0].FirstTime, delivered[1].FirstTime)
	}
	if a.Active() != 1 || a.Evicted() != 2 {
		t.Fatalf("Active/Evicted = %d/%d, want 1/2: the successor flow must survive the pass", a.Active(), a.Evicted())
	}
	if err := a.CheckTable(); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if len(delivered) != 3 || delivered[2].FirstTime != 100 || delivered[2].TotalPackets() != 1 {
		t.Fatalf("after Flush: %d flows delivered, want the successor as the third", len(delivered))
	}
}

// TestReentrantAddOfTheSameFlow: the packet that finds its flow expired
// evicts it, and the callback adds a packet of that same flow first. Both
// packets must end up in one successor.
func TestReentrantAddOfTheSameFlow(t *testing.T) {
	var a *netflow.Assembler
	var delivered []*netflow.Flow
	a = netflow.NewAssembler(10, 1, func(f *netflow.Flow) {
		delivered = append(delivered, f)
		if len(delivered) == 1 {
			a.Add(pkt(50, 1, 2, netflow.ACK))
		}
	})
	a.Add(pkt(0, 1, 2, netflow.SYN))
	a.Add(pkt(50.5, 1, 2, netflow.ACK))
	a.Flush()
	if len(delivered) != 2 || delivered[1].TotalPackets() != 2 || a.Active() != 0 {
		t.Fatalf("%d flows delivered, successor has %d packets, %d live; want 2, 2, 0",
			len(delivered), delivered[len(delivered)-1].TotalPackets(), a.Active())
	}
}

// TestRecycleWaitsForThePass pins the free list's pass rule. The first
// victim's callback runs a nested pass, which delivers the second victim,
// recycled at once, and then adds a packet of a new key. Were the new flow
// started in the second victim's memory, the outer pass would reach it
// live and evict it early.
func TestRecycleWaitsForThePass(t *testing.T) {
	var a *netflow.Assembler
	delivered := 0
	a = netflow.NewAssembler(10, 1, func(f *netflow.Flow) {
		if delivered++; delivered == 1 {
			a.EvictIdle(100)
			a.Add(pkt(100, 7, 8, netflow.SYN))
		}
		a.Recycle(f)
	})
	a.Add(pkt(0, 1, 2, netflow.SYN))
	a.Add(pkt(1, 3, 4, netflow.SYN))
	a.Add(pkt(99, 5, 6, netflow.SYN)) // fresh at 100, so the cap admits a recycled flow
	a.EvictIdle(100)
	if delivered != 2 || a.Active() != 2 {
		t.Fatalf("%d flows delivered, %d live; want the two victims delivered and two flows live", delivered, a.Active())
	}
}

// TestRecycleBounds: a recycled flow reads empty and starts the next new
// flow, Recycle of it while live again panics, and the free list never
// outgrows the live count, so a flushed burst leaves it empty.
func TestRecycleBounds(t *testing.T) {
	var a *netflow.Assembler
	var last *netflow.Flow
	a = netflow.NewAssembler(10, 1, func(f *netflow.Flow) { last = f; a.Recycle(f) })
	a.Add(pkt(0, 1, 2, netflow.SYN))
	a.Add(pkt(0, 3, 4, netflow.SYN))
	a.Add(pkt(0, 3, 4, netflow.RST))
	zeroed, free := last.TotalPackets() == 0, a.FreeFlows()
	a.Add(pkt(0, 5, 6, netflow.SYN))
	if !zeroed || free != 1 || last.TotalPackets() != 1 || a.FreeFlows() != 0 {
		t.Fatalf("recycled flow zeroed: %v, %d free; want true, 1, and the next new flow started in it", zeroed, free)
	}
	func() {
		defer func() { _ = recover() }()
		a.Recycle(last)
		t.Error("Recycle of a live flow did not panic")
	}()
	for i := range byte(200) {
		a.Add(pkt(1, i, 9, netflow.SYN))
	}
	a.Flush()
	if a.FreeFlows() != 0 || a.Active() != 0 {
		t.Fatalf("%d flows free after a flushed burst, %d live; want none", a.FreeFlows(), a.Active())
	}
}

// TestNaNTimestampDoesNotBlockEviction: capture files and the cluster
// wire carry raw float64 times, so a NaN can arrive. Such a flow is never
// idle (NaN compares with nothing) and sits at the head of the last-seen
// list; the flows behind it must still time out.
func TestNaNTimestampDoesNotBlockEviction(t *testing.T) {
	evicted := 0
	a := netflow.NewAssembler(10, 1, func(*netflow.Flow) { evicted++ })
	a.Add(pkt(1, 3, 4, netflow.SYN))
	a.Add(pkt(math.NaN(), 1, 2, netflow.SYN))
	a.Add(pkt(2, 5, 6, netflow.SYN))
	if err := a.CheckTable(); err != nil {
		t.Fatal(err)
	}
	a.EvictIdle(100)
	if evicted != 2 || a.Active() != 1 {
		t.Fatalf("%d flows evicted, %d live; want the two timed flows evicted and the NaN one live", evicted, a.Active())
	}
	a.Flush()
	if evicted != 3 || a.Active() != 0 {
		t.Fatalf("after Flush: %d evicted, %d live", evicted, a.Active())
	}
}

// TestAssemblerAllocations pins the packet path's allocation budget: a
// packet of a live flow and a tick with nothing idle allocate nothing, a
// tick with victims allocates nothing once its scratch has grown, a new
// flow is one allocation — the Flow — while the table has room, and its
// first activity gap one more.
func TestAssemblerAllocations(t *testing.T) {
	a := netflow.NewAssembler(10, 1, func(*netflow.Flow) {})
	now := 0.0
	hit := pkt(0, 1, 2, netflow.ACK)
	a.Add(hit)
	if n := testing.AllocsPerRun(200, func() {
		now += 0.001
		hit.Time = now
		a.Add(hit)
	}); n != 0 {
		t.Errorf("Add on a live flow: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { a.EvictIdle(now + 1) }); n != 0 {
		t.Errorf("EvictIdle with nothing idle: %v allocs, want 0", n)
	}
	// The packet 100 s on starts a new flow; the two after it are gaps.
	if n := testing.AllocsPerRun(50, func() {
		for _, dt := range []float64{100, 2, 2} {
			now += dt
			hit.Time = now
			a.Add(hit)
		}
	}); n != 2 {
		t.Errorf("a new flow and two activity gaps: %v allocs, want 2 (the Flow and one activity record)", n)
	}

	// Eight flows per round, all idle at the round's tick. The warm-up
	// run of AllocsPerRun grows the scratch slice; new flows are counted
	// apart from the tick by timing the two halves separately.
	first := pkt(0, 0, 0, netflow.SYN)
	round := func(tick bool) func() {
		return func() {
			now += 100
			first.Time = now
			for i := byte(0); i < 8; i++ {
				first.SrcIP, first.DstIP = netflow.IPv4(10, 0, 1, i), netflow.IPv4(10, 0, 2, i)
				a.Add(first)
			}
			if tick {
				a.EvictIdle(now + 50)
			}
		}
	}
	newFlows := testing.AllocsPerRun(50, round(false))
	a.Flush()
	if newFlows != 8 {
		t.Errorf("8 new flows in a table with room: %v allocs, want 8 (one Flow each)", newFlows)
	}
	withTick := testing.AllocsPerRun(50, round(true))
	if withTick != 8 {
		t.Errorf("8 new flows and a tick evicting them: %v allocs, want 8 (EvictIdle with victims allocates nothing)", withTick)
	}
	if a.Active() != 0 {
		t.Fatalf("%d flows live after the last tick", a.Active())
	}
}
