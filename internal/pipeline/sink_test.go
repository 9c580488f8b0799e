package pipeline

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"

	"cyberhd/internal/netflow"
)

// alertFor fabricates an alert with a given class and capture time.
func alertFor(class int, at float64) Alert {
	f := &netflow.Flow{
		Key:         netflow.FlowKey{IPA: netflow.IPv4(10, 0, 0, 1), IPB: netflow.IPv4(172, 16, 0, 10), PortA: 1234, PortB: 443, Proto: netflow.TCP},
		InitSrcIP:   netflow.IPv4(10, 0, 0, 1),
		InitSrcPort: 1234,
		FirstTime:   at - 1,
		LastTime:    at,
	}
	return Alert{Flow: f, Class: class, ClassName: "attack", Time: at}
}

// TestJSONLSink pins the record a line carries, byte for byte, and that an
// alert whose time or duration is not a finite number is written with
// null in their place rather than ending the export.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Consume(alertFor(1, 5))
	sink.Consume(alertFor(2, math.NaN()))
	unbounded := alertFor(2, 6)
	unbounded.Flow.FirstTime = math.Inf(-1)
	sink.Consume(unbounded)
	sink.Consume(alertFor(2, 6.5))
	// An IPv6 flow its responder-side endpoint initiated, with traffic.
	v6 := alertFor(3, 7.25)
	v6.Flow.Key = netflow.FlowKey{IPA: netflow.MustParseAddr("2001:db8::1"), IPB: netflow.MustParseAddr("2001:db8::a:2"), PortA: 5353, PortB: 53, Proto: netflow.UDP}
	v6.Flow.InitSrcIP, v6.Flow.InitSrcPort = v6.Flow.Key.IPB, 53
	v6.Flow.FwdLen = netflow.Stats{N: 3, Sum: 1500}
	v6.Flow.BwdLen = netflow.Stats{N: 2, Sum: 0.5}
	sink.Consume(v6)
	// The zero Addr, the unspecified 0.0.0.0, on the initiator side.
	zero := alertFor(4, 8)
	zero.Flow.Key.IPA, zero.Flow.InitSrcIP = netflow.Addr{}, netflow.Addr{}
	sink.Consume(zero)
	// A protocol with no name of its own.
	gre := alertFor(5, 9)
	gre.Flow.Key.Proto = 47
	sink.Consume(gre)
	// A class name encoding/json escapes, at a time it writes in e-form.
	esc := alertFor(6, 1e-7)
	esc.ClassName = `a<b>&"c"`
	sink.Consume(esc)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	const rest = `"class":2,"class_name":"attack","src_ip":"10.0.0.1","src_port":1234,"dst_ip":"172.16.0.10","dst_port":443,"proto":"tcp","packets":0,"bytes":0,`
	want := []string{
		`{"time":5,"class":1,"class_name":"attack","src_ip":"10.0.0.1","src_port":1234,"dst_ip":"172.16.0.10","dst_port":443,"proto":"tcp","packets":0,"bytes":0,"duration":1}`,
		`{"time":null,` + rest + `"duration":null}`,
		`{"time":6,` + rest + `"duration":null}`,
		`{"time":6.5,` + rest + `"duration":1}`,
		`{"time":7.25,"class":3,"class_name":"attack","src_ip":"2001:db8::a:2","src_port":53,"dst_ip":"2001:db8::1","dst_port":5353,"proto":"udp","packets":5,"bytes":1500.5,"duration":1}`,
		`{"time":8,"class":4,"class_name":"attack","src_ip":"0.0.0.0","src_port":1234,"dst_ip":"172.16.0.10","dst_port":443,"proto":"tcp","packets":0,"bytes":0,"duration":1}`,
		`{"time":9,"class":5,"class_name":"attack","src_ip":"10.0.0.1","src_port":1234,"dst_ip":"172.16.0.10","dst_port":443,"proto":"proto(47)","packets":0,"bytes":0,"duration":1}`,
		`{"time":1e-7,"class":6,"class_name":"a\u003cb\u003e\u0026\"c\"","src_ip":"10.0.0.1","src_port":1234,"dst_ip":"172.16.0.10","dst_port":443,"proto":"tcp","packets":0,"bytes":0,"duration":1}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("wrote %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n%s\nwant\n%s", i, lines[i], want[i])
		}
		var rec AlertRecord
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d does not decode as an AlertRecord: %v", i, err)
		}
	}
}

// TestJSONLSinkOrientsInitiator pins that the record's src is the flow
// initiator even when the canonical key orders endpoints the other way.
func TestJSONLSinkOrientsInitiator(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	a := alertFor(1, 5)
	// Initiator is the numerically larger endpoint: key stays (A=10.0.0.1)
	// but the initiating packet came from 172.16.0.10:443.
	a.Flow.InitSrcIP = netflow.IPv4(172, 16, 0, 10)
	a.Flow.InitSrcPort = 443
	sink.Consume(a)
	var rec AlertRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SrcIP != "172.16.0.10" || rec.SrcPort != 443 || rec.DstIP != "10.0.0.1" || rec.DstPort != 1234 {
		t.Fatalf("initiator orientation wrong: %+v", rec)
	}
}

// errWriter fails every write.
type errWriter struct{}

// Write always fails.
func (errWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

func TestJSONLSinkLatchesError(t *testing.T) {
	sink := NewJSONLSink(errWriter{})
	sink.Consume(alertFor(1, 5))
	if sink.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	sink.Consume(alertFor(1, 6)) // must not panic, error stays latched
	if sink.Err() == nil {
		t.Fatal("error unlatched")
	}
}

// TestJSONLSinkAllocFree pins the steady state of the sink at zero
// allocations per alert, v4 and v6. Through encoding/json it was 3: the
// record escaping into Encode's argument and two Addr.String results.
func TestJSONLSinkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v6 := alertFor(1, 5.5)
	v6.Flow.Key.IPA, v6.Flow.Key.IPB = netflow.MustParseAddr("2001:db8::1"), netflow.MustParseAddr("fe80::aa:bb")
	v6.Flow.InitSrcIP = v6.Flow.Key.IPA
	sink := NewJSONLSink(io.Discard)
	for _, a := range []Alert{alertFor(1, 5.5), v6} {
		if n := testing.AllocsPerRun(100, func() { sink.Consume(a) }); n != 0 {
			t.Fatalf("Consume of %v allocates %.1f times per alert", a.Flow.Key.IPA, n)
		}
	}
}

// oracleLine is the line encoding/json writes for an alert: the record
// flattened into AlertRecord, with each non-finite float swapped for a
// null pointer, through a json.Encoder. It is the path JSONLSink took
// before its append encoder, kept as the reference FuzzJSONLSink holds
// that encoder to.
func oracleLine(a Alert) []byte {
	f := a.Flow
	src, dst := f.Key.IPA, f.Key.IPB
	sp, dp := f.Key.PortA, f.Key.PortB
	if f.InitSrcIP != src || f.InitSrcPort != sp {
		src, dst = dst, src
		sp, dp = dp, sp
	}
	ip := func(x netflow.Addr) string {
		if x == (netflow.Addr{}) {
			return "0.0.0.0"
		}
		return netip.AddrFrom16(x.As16()).Unmap().String()
	}
	rec := AlertRecord{
		Time: a.Time, Class: a.Class, ClassName: a.ClassName,
		SrcIP: ip(src), SrcPort: sp, DstIP: ip(dst), DstPort: dp,
		Proto: f.Key.Proto.String(), Packets: f.TotalPackets(), Bytes: f.TotalBytes(), Duration: f.Duration(),
	}
	orNull := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	// The three pointers shadow the embedded record's fields and sit where
	// those do, so the keys keep AlertRecord's order.
	type nullableRecord struct {
		Time *float64 `json:"time"`
		AlertRecord
		Bytes    *float64 `json:"bytes"`
		Duration *float64 `json:"duration"`
	}
	nullable := nullableRecord{Time: orNull(rec.Time), AlertRecord: rec, Bytes: orNull(rec.Bytes), Duration: orNull(rec.Duration)}
	var v any = rec
	if nullable.Time == nil || nullable.Bytes == nil || nullable.Duration == nil {
		v = nullable
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzInput hands out the bytes of a fuzz input, zeros once it runs dry.
type fuzzInput []byte

// byte takes the next byte.
func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// u64 takes the next eight bytes, big-endian.
func (in *fuzzInput) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(in.byte())
	}
	return v
}

// addr draws an IPv4, an IPv6, the zero or a raw 16-byte address.
func (in *fuzzInput) addr() netflow.Addr {
	var b [16]byte
	switch in.byte() % 4 {
	case 0:
		return netflow.IPv4(in.byte(), in.byte(), in.byte(), in.byte())
	case 1:
		b[0], b[1] = 0x20, 0x01 // global unicast, never v4-mapped
		for i := 2; i < 16; i++ {
			// Mostly zero bytes, so "::" compression shows up.
			if c := in.byte(); c&1 == 0 {
				b[i] = c
			}
		}
	case 2:
	case 3:
		for i := range b {
			b[i] = in.byte()
		}
	}
	return netflow.AddrFrom16(b)
}

// float draws a non-finite value, a signed zero, an integer at the
// boundaries of appendFloat's integer and exponent forms, a random
// mantissa at a scale from 1e-30 to 1e29, or raw bits.
func (in *fuzzInput) float() float64 {
	edges := [...]float64{1e15 - 1, 1e15, 1e15 + 1, 1 << 53, 1<<53 - 1, 1<<53 + 2, 1e-6, 1e21, 1, 1e-7}
	switch in.byte() % 9 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*int(in.byte()&1))
	case 2:
		return math.Copysign(0, float64(1-2*int(in.byte()&1)))
	case 3:
		v := edges[int(in.byte())%len(edges)]
		switch in.byte() % 4 {
		case 1:
			v = math.Nextafter(v, 0)
		case 2:
			v = math.Nextafter(v, math.Inf(1))
		}
		return math.Copysign(v, float64(1-2*int(in.byte()&1)))
	case 4:
		return float64(int64(in.u64()) >> (in.byte() % 64))
	case 5:
		return math.Float64frombits(in.u64())
	default:
		m := float64(int64(in.u64())) / (1 << 63)
		return m * math.Pow10(int(in.byte()%60)-30)
	}
}

// className draws a plain name, one encoding/json escapes, or raw bytes.
func (in *fuzzInput) className() string {
	names := [...]string{"benign", "DoS", "PortScan", "a<b", "c>d", "e&f", `<>&"\`, "a\x01b", "é", "x\u2028y\u2029", "\x7f", "tab\there"}
	if c := in.byte(); c < 200 {
		return names[int(c)%len(names)]
	}
	raw := make([]byte, in.byte()%8)
	for i := range raw {
		raw[i] = in.byte()
	}
	return string(raw)
}

// alertOf maps fuzz bytes to an alert over the corpus above.
func alertOf(data []byte) Alert {
	in := fuzzInput(data)
	f := &netflow.Flow{Key: netflow.FlowKey{IPA: in.addr(), IPB: in.addr(), PortA: uint16(in.u64()), PortB: uint16(in.u64()), Proto: netflow.Proto(in.byte())}}
	switch in.byte() % 3 {
	case 0:
		f.InitSrcIP, f.InitSrcPort = f.Key.IPA, f.Key.PortA
	case 1:
		f.InitSrcIP, f.InitSrcPort = f.Key.IPB, f.Key.PortB
	default:
		f.InitSrcIP, f.InitSrcPort = in.addr(), uint16(in.u64())
	}
	f.FwdLen = netflow.Stats{N: int(int32(in.u64())), Sum: in.float()}
	f.BwdLen = netflow.Stats{N: int(int32(in.u64())), Sum: in.float()}
	f.FirstTime, f.LastTime = in.float(), in.float()
	return Alert{Flow: f, Class: int(in.byte()%22) - 2, ClassName: in.className(), Time: in.float()}
}

// checkAlertLine requires the sink's line for a to equal encoding/json's
// byte for byte, and to decode as an AlertRecord.
func checkAlertLine(t *testing.T, a Alert) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Consume(a)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if want := oracleLine(a); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("alert %+v\nflow %+v\nsink:          %s\nencoding/json: %s", a, *a.Flow, buf.Bytes(), want)
	}
	var rec AlertRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("line does not decode as an AlertRecord: %v\n%s", err, buf.Bytes())
	}
}

// FuzzJSONLSink holds the append encoder to encoding/json on alerts drawn
// from fuzz bytes; TestJSONLSinkSweep runs a seeded share of the same
// space under plain go test.
func FuzzJSONLSink(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff, 0x03, 0x7f}, 40))
	f.Fuzz(func(t *testing.T, data []byte) { checkAlertLine(t, alertOf(data)) })
}

// TestJSONLSinkSweep is FuzzJSONLSink's check over 100,000 seeded
// inputs, so plain go test covers the space without the fuzz engine.
// Under the race detector, which slows it about 14×, a tenth of them.
func TestJSONLSinkSweep(t *testing.T) {
	n := 100_000
	if raceEnabled {
		n /= 10
	}
	rng := rand.New(rand.NewPCG(31, 7))
	data := make([]byte, 160)
	for range n {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		checkAlertLine(t, alertOf(data[:rng.IntN(len(data))]))
	}
}

func TestRateLimitSinkPerClassWindows(t *testing.T) {
	var got []Alert
	sink := NewRateLimitSink(SinkFunc(func(a Alert) { got = append(got, a) }), 2, 10)

	// Class 1: three alerts inside one window — third suppressed.
	sink.Consume(alertFor(1, 0))
	sink.Consume(alertFor(1, 1))
	sink.Consume(alertFor(1, 2))
	// Class 2 has its own budget.
	sink.Consume(alertFor(2, 2))
	// Class 1 again after the window rolls: delivered.
	sink.Consume(alertFor(1, 11))

	if len(got) != 4 {
		t.Fatalf("delivered %d alerts, want 4", len(got))
	}
	if sink.Suppressed() != 1 {
		t.Fatalf("suppressed = %d, want 1", sink.Suppressed())
	}
	want := []struct {
		class int
		at    float64
	}{{1, 0}, {1, 1}, {2, 2}, {1, 11}}
	for i, w := range want {
		if got[i].Class != w.class || got[i].Time != w.at {
			t.Fatalf("delivery %d = class %d t=%v, want class %d t=%v", i, got[i].Class, got[i].Time, w.class, w.at)
		}
	}
}

// TestRateLimitSinkNonMonotonicTimes pins the window semantics under
// out-of-order capture times: sharded interleaving can deliver an
// earlier-capture-time alert after a window opened at a later time. Such
// an alert counts against the already-open window (the anchored start
// makes the elapsed time negative, which never reads as expiry), and a
// late-but-pre-window alert never resurrects a previous window's budget.
func TestRateLimitSinkNonMonotonicTimes(t *testing.T) {
	var got []Alert
	sink := NewRateLimitSink(SinkFunc(func(a Alert) { got = append(got, a) }), 2, 10)

	sink.Consume(alertFor(1, 20)) // opens the window at t=20
	sink.Consume(alertFor(1, 5))  // earlier capture time: same window, second of burst
	sink.Consume(alertFor(1, 7))  // earlier again: window budget exhausted → suppressed
	sink.Consume(alertFor(1, 29)) // still inside [20, 30) → suppressed
	sink.Consume(alertFor(1, 31)) // window rolls at t=31 → delivered

	if sink.Suppressed() != 2 {
		t.Fatalf("suppressed = %d, want 2", sink.Suppressed())
	}
	wantTimes := []float64{20, 5, 31}
	if len(got) != len(wantTimes) {
		t.Fatalf("delivered %d alerts, want %d", len(got), len(wantTimes))
	}
	for i, w := range wantTimes {
		if got[i].Time != w {
			t.Fatalf("delivery %d at t=%v, want t=%v", i, got[i].Time, w)
		}
	}
}

// TestRateLimitSuppressedInTelemetry pins the wiring of suppression
// totals into the engine's collector: a RateLimitSink in Config.Sinks
// reports every drop through the telemetry snapshot, mid-run readable,
// on both the single and the sharded engine.
func TestRateLimitSuppressedInTelemetry(t *testing.T) {
	cfg, live := buildModel(t)
	for _, shards := range []int{1, 4} {
		delivered := 0
		// Burst 1 over one giant window: everything after the first alert
		// per class is suppressed.
		rl := NewRateLimitSink(SinkFunc(func(a Alert) { delivered++ }), 1, 1e9)
		c := cfg
		c.Shards = shards
		c.Sinks = []AlertSink{rl}
		r, st := runCapture(t, c, live.Packets)
		snap := r.Telemetry().Snapshot()
		if snap.Suppressed == 0 {
			t.Fatalf("shards=%d: no suppressions recorded on an alert-heavy capture (alerts=%d)", shards, st.Alerts)
		}
		if int(snap.Suppressed) != rl.Suppressed() {
			t.Fatalf("shards=%d: telemetry suppressed %d != sink total %d", shards, snap.Suppressed, rl.Suppressed())
		}
		if delivered+rl.Suppressed() != st.Alerts {
			t.Fatalf("shards=%d: delivered %d + suppressed %d != alerts %d", shards, delivered, rl.Suppressed(), st.Alerts)
		}
	}
}

// TestEngineFansAlertsToSinks pins Config.Sinks end to end: OnAlert runs
// first, then every sink in order, for the same alert.
func TestEngineFansAlertsToSinks(t *testing.T) {
	cfg := fastCfg(fakeModel{class: 1})
	var order []string
	cfg.OnAlert = func(a Alert) { order = append(order, "cb") }
	cfg.Sinks = []AlertSink{
		SinkFunc(func(a Alert) { order = append(order, "s1") }),
		SinkFunc(func(a Alert) { order = append(order, "s2") }),
	}
	feedAll(newEngine(t, cfg), []netflow.Packet{tcpPkt(1, 2, 9, 53, 0, 0)})
	if strings.Join(order, ",") != "cb,s1,s2" {
		t.Fatalf("delivery order = %v", order)
	}
}

// TestShardedSerializesSinks drives the sharded engine with sinks and a
// callback: counts must agree with the merged stats, and because delivery
// is serialized the slice append below is race-safe (this test doubles as
// a -race workout).
func TestShardedSerializesSinks(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.Shards = 4
	var fromCb, fromSink int
	cfg.OnAlert = func(a Alert) { fromCb++ }
	cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { fromSink++ })}
	_, st := runCapture(t, cfg, live.Packets)
	if st.Alerts == 0 || fromCb != st.Alerts || fromSink != st.Alerts {
		t.Fatalf("alerts=%d callback=%d sink=%d", st.Alerts, fromCb, fromSink)
	}
}
