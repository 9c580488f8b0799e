package cluster

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// gobEncode writes v as gob — for building hello payloads that bypass
// encodeHello's Proto stamping.
func gobEncode(w io.Writer, v any) error {
	return gob.NewEncoder(w).Encode(v)
}

// frameBytes renders one frame (header + payload) to raw bytes.
func frameBytes(t *testing.T, ft frameType, payload []byte) []byte {
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
		BatchSize: 64, Width: 8, Shards: 2,
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := testHello()
	payload, err := encodeHello(want)
	if err != nil {
		t.Fatalf("encodeHello: %v", err)
	}
	raw := frameBytes(t, frameHello, payload)
	ft, got, err := readOne(t, raw)
	if err != nil || ft != frameHello {
		t.Fatalf("next: type %d err %v", ft, err)
	}
	h, err := decodeHello(got)
	if err != nil {
		t.Fatalf("decodeHello: %v", err)
	}
	want.Proto = helloProto
	if h.BatchSize != want.BatchSize || h.Width != want.Width || h.Shards != want.Shards {
		t.Fatalf("hello scalar mismatch: %+v", h)
	}
	if len(h.ClassNames) != 3 || h.ClassNames[1] != "dos" {
		t.Fatalf("class names: %v", h.ClassNames)
	}
	for i := range want.NormMean {
		if h.NormMean[i] != want.NormMean[i] || h.NormInvStd[i] != want.NormInvStd[i] {
			t.Fatalf("normalizer mismatch at %d", i)
		}
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
		{"huge shards", func(h *helloState) { h.Shards = 1 << 20 }, "shard"},
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
		ft, got, err := readOne(t, frameBytes(t, frameAck, payload))
		if err != nil || ft != frameAck {
			t.Fatalf("next: type %d err %v", ft, err)
		}
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

// packetsFrame renders pkts as one packets frame (header + payload).
func packetsFrame(t testing.TB, pkts ...netflow.Packet) []byte {
	t.Helper()
	var payload []byte
	for i := range pkts {
		payload = appendPacket(payload, &pkts[i])
	}
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	if err := fw.writeFrame(framePackets, payload); err != nil {
		t.Fatalf("writeFrame(packets, %d bytes): %v", len(payload), err)
	}
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

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
			raw := packetsFrame(t, tc.want...)
			if got := hex.EncodeToString(raw); got != tc.hex {
				t.Fatalf("packets frame bytes:\n got %s\nwant %s", got, tc.hex)
			}
			ft, payload, err := readOne(t, raw)
			if err != nil || ft != framePackets {
				t.Fatalf("next: type %d err %v, want type %d", ft, err, framePackets)
			}
			got, err := decodePackets(payload, nil)
			if err != nil {
				t.Fatalf("decodePackets: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("packets round trip:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestPacketFrameRejects pins the all-or-nothing validation of a packets
// frame: a payload with a bad record anywhere — even after good ones —
// decodes to an error and no packets, so the session loop feeds nothing
// from it; empty and over-cap frames never get past the frame bounds.
func TestPacketFrameRejects(t *testing.T) {
	p := netflow.Packet{Time: 1.5, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 3, DstPort: 4, Proto: netflow.UDP, Length: 100, HeaderLen: 28}
	good := appendPacket(appendPacket(nil, &p), &p)
	scratch := make([]netflow.Packet, 0, 4)
	for _, tc := range []struct {
		name    string
		payload []byte
		errSub  string
	}{
		{"truncated trailing record", good[:len(good)-1], "truncated"},
		{"trailing tag only", append(append([]byte(nil), good...), recordNarrow), "truncated"},
		{"unknown width tag", append(append([]byte(nil), good...), 3), "width tag"},
		{"unknown width tag first", append([]byte{0}, good...), "width tag"},
		{"empty", nil, "empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodePackets(tc.payload, scratch)
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("decodePackets: err %v, want substring %q", err, tc.errSub)
			}
			if got != nil {
				t.Fatalf("decodePackets returned %d packets with its error", len(got))
			}
		})
	}
	// The frame bounds: the writer refuses to frame them, the reader
	// refuses the length claim before reading a payload byte.
	fw := newFrameWriter(io.Discard)
	if err := fw.writeFrame(framePackets, nil); err == nil {
		t.Fatal("writeFrame accepted an empty packets frame")
	}
	if err := fw.writeFrame(framePackets, make([]byte, maxPacketsPayload+1)); err == nil {
		t.Fatal("writeFrame accepted an over-cap packets frame")
	}
	for _, n := range []uint32{0, maxPacketsPayload + 1} {
		if _, _, err := readOne(t, hostileHeader(framePackets, n)); err == nil ||
			!strings.Contains(err.Error(), "bounds") {
			t.Fatalf("packets frame claiming %d bytes: %v", n, err)
		}
	}
	// The retired one-record frames are unknown types now.
	for _, ft := range []frameType{4, 10} {
		if _, _, err := readOne(t, hostileHeader(ft, 32)); err == nil ||
			!strings.Contains(err.Error(), "unknown frame type") {
			t.Fatalf("reserved frame type %d: %v", ft, err)
		}
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
	// An all-IPv4 alert rides the v1 frame byte-identically to the pre-v2
	// wire; any IPv6 address moves it to the v2 frame.
	alert := func(ipa, ipb netflow.Addr) wireAlert {
		return wireAlert{
			Time: 98.76, FirstTime: 12.34,
			Key:       netflow.FlowKey{IPA: ipa, IPB: ipb, PortA: 80, PortB: 40000, Proto: netflow.TCP},
			Class:     3,
			InitSrcIP: ipb, InitSrcPort: 40000,
			Packets: 917, Bytes: 123456.5,
		}
	}
	for _, tc := range []struct {
		name  string
		frame frameType
		want  wireAlert
		hex   string
	}{
		{"v1", frameAlert, alert(netflow.AddrV4(0x0a000001), netflow.AddrV4(0xc0a80102)),
			"713d0ad7a3b05840ae47e17a14ae28400100000a0201a8c05000409c0603000201a8c0409c95030000000000000824fe40"},
		{"v2", frameAlert2, alert(netflow.MustParseAddr("2001:db8::1"), netflow.MustParseAddr("2001:db8::9")),
			"713d0ad7a3b05840ae47e17a14ae284020010db800000000000000000000000120010db80000000000000000000000095000409c06030020010db8000000000000000000000009409c95030000000000000824fe40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			fw := newFrameWriter(&buf)
			if err := fw.writeAlert(&tc.want); err != nil {
				t.Fatalf("writeAlert: %v", err)
			}
			if err := fw.flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			ft, payload, err := readOne(t, buf.Bytes())
			if err != nil || ft != tc.frame {
				t.Fatalf("next: type %d err %v, want type %d", ft, err, tc.frame)
			}
			if got := hex.EncodeToString(payload); got != tc.hex {
				t.Fatalf("alert payload bytes:\n got %s\nwant %s", got, tc.hex)
			}
			var got wireAlert
			if err := decodeAlert(ft, payload, &got); err != nil {
				t.Fatalf("decodeAlert: %v", err)
			}
			if got != tc.want {
				t.Fatalf("alert round trip:\n got %+v\nwant %+v", got, tc.want)
			}
			if err := decodeAlert(ft, payload[:20], &got); err == nil {
				t.Fatal("decodeAlert accepted short payload")
			}
			if err := decodeAlert(frameAlert+frameAlert2-ft, payload, &got); err == nil {
				t.Fatal("decodeAlert accepted the other width's payload")
			}
		})
	}
}

func TestTickFrameRoundTrip(t *testing.T) {
	for _, want := range []float64{0, 1, 3600.5, 1e9, -1} {
		ft, payload, err := readOne(t, frameBytes(t, frameTick, encodeTick(want)))
		if err != nil || ft != frameTick {
			t.Fatalf("next: type %d err %v", ft, err)
		}
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
		settled := i == 5
		payload, err := enc.encode(want, settled)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		sizes = append(sizes, len(payload))
		ft, raw, err := readOne(t, frameBytes(t, frameTelemetry, payload))
		if err != nil || ft != frameTelemetry {
			t.Fatalf("next: type %d err %v", ft, err)
		}
		got, gotSettled, err := dec.decode(raw)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if gotSettled != settled {
			t.Fatalf("snapshot %d settled flag: got %v want %v", i, gotSettled, settled)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if sizes[1] >= sizes[0]/2 {
		t.Fatalf("frame sizes %v: the type description should ride the first frame only", sizes)
	}

	if _, _, err := dec.decode(nil); err == nil {
		t.Fatal("decode accepted an empty payload")
	}
	if _, _, err := newTelemetryDecoder().decode([]byte{0, 0xde, 0xad}); err == nil {
		t.Fatal("decode accepted garbage gob")
	}
	// A mid-session frame is not self-describing: a fresh decoder has not
	// seen the type description and must refuse it.
	late, err := enc.encode(c.Snapshot(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newTelemetryDecoder().decode(late); err == nil {
		t.Fatal("a fresh decoder accepted a mid-session telemetry frame")
	}
	// Two messages in one frame: the second would desynchronize the stream.
	one, err := enc.encode(c.Snapshot(), false)
	if err != nil {
		t.Fatal(err)
	}
	double := append(append([]byte(nil), one...), one[1:]...)
	if _, _, err := dec.decode(late); err != nil {
		t.Fatalf("decode in order: %v", err)
	}
	if _, _, err := dec.decode(double); err == nil || !strings.Contains(err.Error(), "past its snapshot") {
		t.Fatalf("decode of a two-message frame: %v", err)
	}
}

func TestEmptyFrames(t *testing.T) {
	for _, ft := range []frameType{frameFlush, frameBye} {
		gotT, payload, err := readOne(t, frameBytes(t, ft, nil))
		if err != nil || gotT != ft || len(payload) != 0 {
			t.Fatalf("type %d: got type %d payload %d err %v", ft, gotT, len(payload), err)
		}
	}
}

// TestFrameCRCFlipDetected flips every byte of a frame in turn: every
// mutation must surface as an error (header corruption or CRC mismatch),
// never as a silently different payload.
func TestFrameCRCFlipDetected(t *testing.T) {
	payload, err := encodeAck(ackState{OK: true, Version: 5})
	if err != nil {
		t.Fatalf("encodeAck: %v", err)
	}
	raw := frameBytes(t, frameAck, payload)
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		ft, got, err := readOne(t, mut)
		if err != nil {
			continue // detected: good
		}
		// The only acceptable decode is one that still fails downstream
		// or returns the identical payload with the identical type — a
		// flipped byte cannot do either for this frame.
		if ft == frameAck && bytes.Equal(got, payload) {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		t.Fatalf("flip at byte %d decoded as type %d without error", i, ft)
	}
}

// TestFrameTruncationErrors truncates a frame at every length: the reader
// must return io.EOF only for the zero-byte case and an error (typically
// io.ErrUnexpectedEOF wrapped) for every partial prefix — never a frame.
func TestFrameTruncationErrors(t *testing.T) {
	payload, err := encodeAck(ackState{OK: true, Version: 9, Msg: "hi"})
	if err != nil {
		t.Fatalf("encodeAck: %v", err)
	}
	raw := frameBytes(t, frameAck, payload)
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
	hdr := hostileHeader
	// Claim above the type cap: bounds error, no read attempt.
	if _, _, err := readOne(t, hdr(frameAck, 1<<30)); err == nil ||
		!strings.Contains(err.Error(), "bounds") {
		t.Fatalf("oversized ack claim: %v", err)
	}
	// Unknown type: rejected before length is even considered.
	if _, _, err := readOne(t, hdr(frameType(200), 4)); err == nil ||
		!strings.Contains(err.Error(), "unknown frame type") {
		t.Fatalf("unknown type: %v", err)
	}
	// Fixed-size type with the wrong length: bounds error.
	if _, _, err := readOne(t, hdr(frameTick, 7)); err == nil ||
		!strings.Contains(err.Error(), "bounds") {
		t.Fatalf("short tick claim: %v", err)
	}
	// In-bounds snapshot claim (256 MiB) with no payload bytes behind it:
	// must error from truncation without staging the full claim.
	if _, _, err := readOne(t, hdr(frameSnapshot, 1<<28)); err == nil {
		t.Fatal("truncated snapshot claim returned a frame")
	}
}

// TestFrameWriterRejectsOutOfBounds pins the writer-side bounds check.
func TestFrameWriterRejectsOutOfBounds(t *testing.T) {
	fw := newFrameWriter(io.Discard)
	if err := fw.writeFrame(frameTick, make([]byte, 3)); err == nil {
		t.Fatal("writeFrame accepted short tick")
	}
	if err := fw.writeFrame(frameType(99), nil); err == nil {
		t.Fatal("writeFrame accepted unknown type")
	}
	if err := fw.writeFrame(frameAck, make([]byte, maxAckPayload+1)); err == nil {
		t.Fatal("writeFrame accepted oversized ack")
	}
}

// TestFrameSequence pins multi-frame streams: several frames written
// back-to-back decode in order, and the reader's reused payload buffer
// never bleeds between frames of different sizes.
func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	p := netflow.Packet{Time: 1.5, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 3, DstPort: 4, Proto: netflow.UDP, Length: 100, HeaderLen: 28}
	if err := fw.writeFrame(framePackets, appendPacket(nil, &p)); err != nil {
		t.Fatal(err)
	}
	if err := fw.writeFrame(frameTick, encodeTick(2.0)); err != nil {
		t.Fatal(err)
	}
	if err := fw.writeFrame(frameFlush, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.writeFrame(frameBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(bytes.NewReader(buf.Bytes()))
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
