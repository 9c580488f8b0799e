package cluster

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// gobEncode writes v as gob — for building hello payloads that bypass
// encodeHello's Proto stamping.
func gobEncode(w io.Writer, v any) error {
	return gob.NewEncoder(w).Encode(v)
}

// frameBytes renders one frame (header + payload) to raw bytes.
func frameBytes(t testing.TB, ft frameType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	if err := fw.writeFrame(ft, payload); err != nil {
		t.Fatalf("writeFrame(%d, %d bytes): %v", ft, len(payload), err)
	}
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// frameTrip frames payload and reads the frame back, checking its type:
// the raw frame and the payload read.
func frameTrip(t testing.TB, ft frameType, payload []byte) (raw, got []byte) {
	t.Helper()
	raw = frameBytes(t, ft, payload)
	gotT, got, err := newFrameReader(bytes.NewReader(raw)).next()
	if err != nil || gotT != ft {
		t.Fatalf("next: type %d err %v, want type %d", gotT, err, ft)
	}
	return raw, got
}

// readOne decodes exactly one frame from raw bytes.
func readOne(t *testing.T, raw []byte) (frameType, []byte, error) {
	t.Helper()
	return newFrameReader(bytes.NewReader(raw)).next()
}

func testHello() helloState {
	mean := make([]float32, netflow.NumFeatures)
	inv := make([]float32, netflow.NumFeatures)
	for i := range mean {
		mean[i] = float32(i) * 0.5
		inv[i] = 1 / (1 + float32(i))
	}
	return helloState{
		ClassNames: []string{"benign", "dos", "scan"},
		NormMean:   mean, NormInvStd: inv,
		BatchSize: 64, Width: 1,
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := testHello()
	payload, err := encodeHello(want)
	if err != nil {
		t.Fatalf("encodeHello: %v", err)
	}
	_, got := frameTrip(t, frameHello, payload)
	h, err := decodeHello(got)
	if err != nil {
		t.Fatalf("decodeHello: %v", err)
	}
	want.Proto = helloProto
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("hello round trip:\n got %+v\nwant %+v", h, want)
	}
}

func TestDecodeHelloRejectsInvalid(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*helloState)
		errSub string
	}{
		{"wrong proto", func(h *helloState) { h.Proto = 99 }, "protocol"},
		{"no classes", func(h *helloState) { h.ClassNames = nil }, "classes"},
		{"too many classes", func(h *helloState) { h.ClassNames = make([]string, maxHelloClasses+1) }, "classes"},
		{"short normalizer", func(h *helloState) { h.NormMean = h.NormMean[:3] }, "normalizer"},
		{"negative batch", func(h *helloState) { h.BatchSize = -1 }, "batch"},
		{"protocol 3", func(h *helloState) { h.Proto = 3 }, "session protocol 3"},
		{"batch rows over bound", func(h *helloState) { h.BatchSize = pipeline.MaxBatchRows + 1 }, "batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Encode raw gob (not encodeHello, which stamps Proto) so the
			// mutation survives the trip.
			h := testHello()
			h.Proto = helloProto
			tc.mutate(&h)
			var buf bytes.Buffer
			if err := gobEncode(&buf, &h); err != nil {
				t.Fatalf("gob: %v", err)
			}
			if _, err := decodeHello(buf.Bytes()); err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("decodeHello: err %v, want substring %q", err, tc.errSub)
			}
		})
	}
	if _, err := decodeHello([]byte("not gob at all")); err == nil {
		t.Fatal("decodeHello accepted garbage")
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, want := range []ackState{
		{OK: true, Version: 42},
		{OK: false, Version: 7, Msg: "geometry mismatch"},
	} {
		payload, err := encodeAck(want)
		if err != nil {
			t.Fatalf("encodeAck: %v", err)
		}
		_, got := frameTrip(t, frameAck, payload)
		a, err := decodeAck(got)
		if err != nil {
			t.Fatalf("decodeAck: %v", err)
		}
		if a != want {
			t.Fatalf("ack round trip: got %+v want %+v", a, want)
		}
	}
	if _, err := decodeAck([]byte{0xff, 0x00, 0x13}); err == nil {
		t.Fatal("decodeAck accepted garbage")
	}
}

// The packet and alert tables pin each record layout by literal bytes
// (generated before the v1 and v2 codecs were folded into one body): with
// one encoder and one decoder serving both address widths, a round trip
// alone cannot tell when the two drift together.

func TestPacketFrameRoundTrip(t *testing.T) {
	// The packets frame is the only way a packet crosses the wire: a run of
	// records, each the capture record verbatim (the 32- and 60-byte hex
	// below is TestPacketRecordGoldenBytes') behind a one-byte width tag,
	// under one header. The whole frame is pinned, header included: type
	// 0c, payload length, CRC32-IEEE of the payload.
	v4 := netflow.Packet{
		Time:  123.456789,
		SrcIP: netflow.AddrV4(0x0a000001), DstIP: netflow.AddrV4(0xc0a80102),
		SrcPort: 443, DstPort: 51515,
		Proto: netflow.TCP, Length: 1500, HeaderLen: 40,
		Flags: 0x18, WindowSize: 4096,
	}
	v6vlan := netflow.Packet{
		Time:  123.456789,
		SrcIP: netflow.MustParseAddr("2001:db8::1"), DstIP: netflow.MustParseAddr("2001:db8::2"),
		SrcPort: 443, DstPort: 51515,
		Proto: netflow.TCP, Length: 1500, HeaderLen: 60,
		Flags: 0x18, WindowSize: 4096, VLAN: 42,
	}
	reply := v4
	reply.SrcIP, reply.DstIP, reply.SrcPort, reply.DstPort = v4.DstIP, v4.SrcIP, v4.DstPort, v4.SrcPort
	const (
		v4Hex     = "0b0bee073cdd5e400100000a0201a8c0bb013bc906dc05000028000000180010"
		replyHex  = "0b0bee073cdd5e400201a8c00100000a3bc9bb0106dc05000028000000180010"
		v6vlanHex = "0b0bee073cdd5e4020010db800000000000000000000000120010db8000000000000000000000002bb013bc906dc0500003c0000001800102a000000"
	)
	for _, tc := range []struct {
		name string
		want []netflow.Packet
		hex  string
	}{
		{"all-v4", []netflow.Packet{v4, reply},
			"0c" + "42000000" + "44e5e65b" + "01" + v4Hex + "01" + replyHex},
		{"mixed", []netflow.Packet{v4, v6vlan, reply},
			"0c" + "7f000000" + "c1b7690f" + "01" + v4Hex + "02" + v6vlanHex + "01" + replyHex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var payload []byte
			for i := range tc.want {
				payload = appendPacket(payload, &tc.want[i])
			}
			raw, body := frameTrip(t, framePackets, payload)
			if got := hex.EncodeToString(raw); got != tc.hex {
				t.Fatalf("packets frame bytes:\n got %s\nwant %s", got, tc.hex)
			}
			got, err := decodePackets(body, nil)
			if err != nil {
				t.Fatalf("decodePackets: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("packets round trip:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestPacketFrameRejects pins the all-or-nothing validation of both run
// frames, packets and alerts: a payload with a bad record anywhere — even
// after good ones — decodes to an error and no records, so nothing from it
// is fed or delivered. (Empty and over-cap run frames never get past the
// frame bounds: TestHostileLengthPrefix, TestFrameWriterRejectsOutOfBounds.)
func TestPacketFrameRejects(t *testing.T) {
	p := netflow.Packet{Time: 1.5, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 3, DstPort: 4, Proto: netflow.UDP, Length: 100, HeaderLen: 28}
	a := wireAlert{Time: 2.5, Class: 1, Key: netflow.FlowKey{IPA: netflow.AddrV4(1), IPB: netflow.AddrV4(2)}, InitSrcIP: netflow.AddrV4(1)}
	runs := []struct {
		ft     frameType
		good   []byte
		decode func([]byte) (records any, err error)
	}{
		{framePackets, appendPacket(appendPacket(nil, &p), &p),
			func(b []byte) (any, error) { return decodePackets(b, make([]netflow.Packet, 0, 4)) }},
		{frameAlerts, appendAlert(appendAlert(nil, &a), &a),
			func(b []byte) (any, error) { return decodeAlerts(b, make([]wireAlert, 0, 4)) }},
	}
	for _, tc := range []struct {
		name   string
		mutate func(good []byte) []byte
		errSub string
	}{
		{"truncated trailing record", func(g []byte) []byte { return g[:len(g)-1] }, "truncated"},
		{"trailing tag only", func(g []byte) []byte { return append(g, recordNarrow) }, "truncated"},
		{"unknown width tag", func(g []byte) []byte { return append(g, 3) }, "width tag"},
		{"unknown width tag first", func(g []byte) []byte { return append([]byte{0}, g...) }, "width tag"},
		{"empty", func([]byte) []byte { return nil }, "empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, run := range runs {
				records, err := run.decode(tc.mutate(slices.Clip(run.good)))
				if err == nil || !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("frame type %d: err %v, want substring %q", run.ft, err, tc.errSub)
				}
				if !reflect.ValueOf(records).IsNil() {
					t.Fatalf("frame type %d returned records with its error", run.ft)
				}
			}
		})
	}
}

// hostileHeader is a bare frame header claiming n payload bytes.
func hostileHeader(ft frameType, n uint32) []byte {
	h := make([]byte, frameHeaderSize)
	h[0] = byte(ft)
	h[1], h[2], h[3], h[4] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return h
}

func TestAlertFrameRoundTrip(t *testing.T) {
	// Alerts cross the wire only in runs, like packets: per alert a width
	// tag, then the narrow record when every address is IPv4 and the wide
	// one otherwise. The whole frame is pinned, header included: type 0d,
	// payload length, CRC32-IEEE of the payload.
	alert := func(ipa, ipb netflow.Addr) wireAlert {
		return wireAlert{
			Time: 98.76, FirstTime: 12.34,
			Key:       netflow.FlowKey{IPA: ipa, IPB: ipb, PortA: 80, PortB: 40000, Proto: netflow.TCP},
			Class:     3,
			InitSrcIP: ipb, InitSrcPort: 40000,
			Packets: 917, Bytes: 123456.5,
		}
	}
	v4 := alert(netflow.AddrV4(0x0a000001), netflow.AddrV4(0xc0a80102))
	v6 := alert(netflow.MustParseAddr("2001:db8::1"), netflow.MustParseAddr("2001:db8::9"))
	const (
		v4Hex = "713d0ad7a3b05840ae47e17a14ae28400100000a0201a8c05000409c0603000201a8c0409c95030000000000000824fe40"
		v6Hex = "713d0ad7a3b05840ae47e17a14ae284020010db800000000000000000000000120010db80000000000000000000000095000409c06030020010db8000000000000000000000009409c95030000000000000824fe40"
	)
	for _, tc := range []struct {
		name string
		want []wireAlert
		hex  string
	}{
		{"v1", []wireAlert{v4}, "0d" + "32000000" + "6cf6760b" + "01" + v4Hex},
		{"v2", []wireAlert{v6}, "0d" + "56000000" + "b3c78210" + "02" + v6Hex},
		{"mixed", []wireAlert{v4, v6}, "0d" + "88000000" + "430c8dd9" + "01" + v4Hex + "02" + v6Hex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var payload []byte
			for i := range tc.want {
				payload = appendAlert(payload, &tc.want[i])
			}
			raw, body := frameTrip(t, frameAlerts, payload)
			if got := hex.EncodeToString(raw); got != tc.hex {
				t.Fatalf("alerts frame bytes:\n got %s\nwant %s", got, tc.hex)
			}
			got, err := decodeAlerts(body, nil)
			if err != nil {
				t.Fatalf("decodeAlerts: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("alerts round trip:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestWireAlertSaturatesPackets: a flow of 2^32+5 packets reaches the
// client as the 32-bit ceiling, not wrapped to 5.
func TestWireAlertSaturatesPackets(t *testing.T) {
	f := &netflow.Flow{}
	f.FwdLen.N = 1<<32 + 5
	if got := wireAlertOf(&pipeline.Alert{Flow: f}).Packets; got != math.MaxUint32 {
		t.Fatalf("packets = %d, want %d", got, uint32(math.MaxUint32))
	}
}

func TestTickFrameRoundTrip(t *testing.T) {
	for _, want := range []float64{0, 1, 3600.5, 1e9, -1} {
		_, payload := frameTrip(t, frameTick, encodeTick(want))
		got, err := decodeTick(payload)
		if err != nil || got != want {
			t.Fatalf("tick round trip: got %v err %v want %v", got, err, want)
		}
	}
	if _, err := decodeTick([]byte{1, 2, 3}); err == nil {
		t.Fatal("decodeTick accepted short payload")
	}
}

// TestTelemetryStream pins the per-session telemetry codec: a run of
// snapshots through one encoder/decoder pair round-trips exactly (zeroed
// fields included — each decodes into a fresh value), the type
// description travels once, and a payload that is not the stream's next
// message is an error.
func TestTelemetryStream(t *testing.T) {
	c := telemetry.New([]string{"benign", "dos"})
	enc, dec := newTelemetryEncoder(), newTelemetryDecoder()
	var sizes []int
	for i := 0; i < 6; i++ {
		c.AddPackets(100)
		c.FlowCompleted()
		c.Verdict(i%2, i%2 == 1, 0.5)
		if i == 3 {
			c.AddDropped(telemetry.DropBackpressure, 3)
			c.AddDroppedTenant(42, 3)
		}
		want := c.Snapshot()
		if i == 4 {
			want = telemetry.Snapshot{} // a later, emptier report must not inherit earlier fields
		}
		payload, err := enc.encode(want)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		sizes = append(sizes, len(payload))
		_, raw := frameTrip(t, frameTelemetry, payload)
		got, err := dec.decode(raw)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if sizes[1] >= sizes[0]/2 {
		t.Fatalf("frame sizes %v: the type description should ride the first frame only", sizes)
	}

	if _, err := dec.decode(nil); err == nil {
		t.Fatal("decode accepted an empty payload")
	}
	if _, err := newTelemetryDecoder().decode([]byte{0xde, 0xad}); err == nil {
		t.Fatal("decode accepted garbage gob")
	}
	// A mid-session frame is not self-describing: a fresh decoder has not
	// seen the type description and must refuse it.
	late, err := enc.encode(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTelemetryDecoder().decode(late); err == nil {
		t.Fatal("a fresh decoder accepted a mid-session telemetry frame")
	}
	// Two messages in one frame: the second would desynchronize the stream.
	one, err := enc.encode(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	double := append(append([]byte(nil), one...), one...)
	if _, err := dec.decode(late); err != nil {
		t.Fatalf("decode in order: %v", err)
	}
	if _, err := dec.decode(double); err == nil || !strings.Contains(err.Error(), "past its snapshot") {
		t.Fatalf("decode of a two-message frame: %v", err)
	}
}

func TestEmptyFrames(t *testing.T) {
	for _, ft := range []frameType{frameFlush, frameBye} {
		if _, payload := frameTrip(t, ft, nil); len(payload) != 0 {
			t.Fatalf("type %d: payload %d bytes", ft, len(payload))
		}
	}
}

// TestFrameCRCFlipDetected flips every byte of a frame in turn: every
// mutation must surface as an error (header corruption or CRC mismatch),
// never as a silently different payload.
func TestFrameCRCFlipDetected(t *testing.T) {
	raw := frameBytes(t, frameAck, []byte("a payload the frame layer never parses"))
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if ft, _, err := readOne(t, mut); err == nil {
			t.Fatalf("flip at byte %d decoded as type %d without error", i, ft)
		}
	}
}

// TestFrameTruncationErrors truncates a frame at every length: the reader
// must return io.EOF only for the zero-byte case and an error (typically
// io.ErrUnexpectedEOF wrapped) for every partial prefix — never a frame.
func TestFrameTruncationErrors(t *testing.T) {
	raw := frameBytes(t, frameAck, []byte("a payload the frame layer never parses"))
	for n := 0; n < len(raw); n++ {
		_, _, err := readOne(t, raw[:n])
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes returned a frame", n, len(raw))
		}
		if n == 0 && err != io.EOF {
			t.Fatalf("empty stream: err %v, want io.EOF", err)
		}
		if n > 0 && err == io.EOF {
			t.Fatalf("truncation at %d surfaced as clean EOF", n)
		}
	}
}

// TestHostileLengthPrefix hands the reader headers declaring huge
// payloads: out-of-bounds claims error before allocation, in-bounds
// claims on a truncated stream error after reading only what arrived.
func TestHostileLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		ft     frameType
		n      uint32
		errSub string
	}{
		{frameAck, 1 << 30, "bounds"},             // above the type cap: no read attempt
		{frameType(200), 4, "unknown frame type"}, // rejected before the length is considered
		{frameTick, 7, "bounds"},                  // fixed-size type, wrong length
		// Run frames hold at least one record and at most the cap.
		{framePackets, 0, "bounds"}, {framePackets, maxRunPayload + 1, "bounds"},
		{frameAlerts, 0, "bounds"}, {frameAlerts, maxRunPayload + 1, "bounds"},
		// The one-record frames of protocols 1 and 2 are reserved.
		{4, 32, "unknown frame type"}, {10, 60, "unknown frame type"},
		{8, 49, "unknown frame type"}, {11, 85, "unknown frame type"},
		// In-bounds snapshot claim (256 MiB) with no payload bytes behind
		// it: a truncation error, without staging the full claim.
		{frameSnapshot, 1 << 28, ""},
	} {
		if _, _, err := readOne(t, hostileHeader(tc.ft, tc.n)); err == nil || !strings.Contains(err.Error(), tc.errSub) {
			t.Fatalf("type %d claiming %d bytes: %v, want an error containing %q", tc.ft, tc.n, err, tc.errSub)
		}
	}
}

// TestFrameWriterRejectsOutOfBounds pins the writer-side bounds check.
func TestFrameWriterRejectsOutOfBounds(t *testing.T) {
	fw := newFrameWriter(io.Discard)
	for _, tc := range []struct {
		ft frameType
		n  int
	}{{frameTick, 3}, {frameType(99), 0}, {frameAck, maxAckPayload + 1},
		{framePackets, 0}, {framePackets, maxRunPayload + 1}, {frameAlerts, 0}, {frameAlerts, maxRunPayload + 1}} {
		if err := fw.writeFrame(tc.ft, make([]byte, tc.n)); err == nil {
			t.Fatalf("writeFrame accepted type %d with %d payload bytes", tc.ft, tc.n)
		}
	}
}

// TestFrameSequence pins multi-frame streams: several frames written
// back-to-back decode in order, and the reader's reused payload buffer
// never bleeds between frames of different sizes.
func TestFrameSequence(t *testing.T) {
	p := netflow.Packet{Time: 1.5, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 3, DstPort: 4, Proto: netflow.UDP, Length: 100, HeaderLen: 28}
	raw := slices.Concat(frameBytes(t, framePackets, appendPacket(nil, &p)), frameBytes(t, frameTick, encodeTick(2.0)),
		frameBytes(t, frameFlush, nil), frameBytes(t, frameBye, nil))
	fr := newFrameReader(bytes.NewReader(raw))
	wantTypes := []frameType{framePackets, frameTick, frameFlush, frameBye}
	for i, want := range wantTypes {
		ft, _, err := fr.next()
		if err != nil || ft != want {
			t.Fatalf("frame %d: type %d err %v, want %d", i, ft, err, want)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}
