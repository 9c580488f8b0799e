package cluster

import (
	"bytes"
	"slices"
	"testing"

	"cyberhd/internal/netflow"
)

// FuzzDecodeFrame hammers the frame reader — and every per-type decoder
// behind it — with arbitrary bytes: truncations, bit flips, hostile
// length prefixes, unknown types. The invariants mirror FuzzLoadSnapshot:
// the reader never panics and never retains a payload buffer beyond the
// type's declared cap, no matter what the length prefix claims.
func FuzzDecodeFrame(f *testing.F) {
	// Valid single frames of every type seed the corpus.
	hello, err := encodeHello(testHello())
	if err != nil {
		f.Fatal(err)
	}
	ack, err := encodeAck(ackState{OK: true, Version: 3, Msg: "ok"})
	if err != nil {
		f.Fatal(err)
	}
	p := netflow.Packet{Time: 2.5, SrcIP: netflow.AddrV4(10), DstIP: netflow.AddrV4(20), SrcPort: 80, DstPort: 8080, Proto: netflow.TCP, Length: 900, HeaderLen: 40, Flags: 0x02}
	p6 := p
	p6.SrcIP, p6.DstIP, p6.VLAN = netflow.MustParseAddr("2001:db8::1"), netflow.MustParseAddr("2001:db8::2"), 7
	pkts := appendPacket(appendPacket(appendPacket(nil, &p), &p6), &p)
	wa := wireAlert{Time: 9.5, Class: 2, Packets: 44, Key: netflow.FlowKey{IPA: p.SrcIP, IPB: p.DstIP}, InitSrcIP: p.SrcIP}
	wa6 := wireAlert{Time: 9.5, Class: 1, Packets: 7, Key: netflow.FlowKey{IPA: p6.SrcIP, IPB: p6.DstIP}, InitSrcIP: p6.SrcIP}
	alerts := appendAlert(appendAlert(appendAlert(nil, &wa), &wa6), &wa)
	frames := [][]byte{
		frameBytes(f, frameHello, hello),
		frameBytes(f, frameAck, ack),
		frameBytes(f, frameSnapshot, []byte("not a real snapshot, length is what matters")),
		frameBytes(f, frameFlush, nil),
		frameBytes(f, frameBye, nil),
		// Packets, tick and alerts back to back.
		slices.Concat(frameBytes(f, framePackets, pkts), frameBytes(f, frameTick, encodeTick(17.25)), frameBytes(f, frameAlerts, alerts)),
		// Packets frames that pass the CRC and fail record validation: a
		// truncated trailing record, a bare trailing tag, an unknown tag.
		frameBytes(f, framePackets, pkts[:len(pkts)-1]),
		frameBytes(f, framePackets, append(append([]byte(nil), pkts...), recordWide)),
		frameBytes(f, framePackets, append(append([]byte(nil), pkts...), 9)),
		// A mixed alerts run, whole and failing record validation.
		frameBytes(f, frameAlerts, alerts),
		frameBytes(f, frameAlerts, alerts[:len(alerts)-1]),
		frameBytes(f, frameAlerts, append(append([]byte(nil), alerts...), 9)),
	}
	for _, fr := range frames {
		f.Add(fr)
		// Truncations of each valid frame.
		for _, n := range []int{1, frameHeaderSize - 1, frameHeaderSize, len(fr) - 1} {
			if n > 0 && n < len(fr) {
				f.Add(fr[:n])
			}
		}
		// Bit flips in header and payload.
		for _, i := range []int{0, 2, frameHeaderSize + 1} {
			if i < len(fr) {
				mut := append([]byte(nil), fr...)
				mut[i] ^= 0x40
				f.Add(mut)
			}
		}
	}
	// Hostile length prefixes: in-bounds huge claims with no bytes behind
	// them, out-of-bounds claims, unknown types, empty input.
	f.Add(hostileHeader(frameSnapshot, 1<<28))
	f.Add(hostileHeader(frameSnapshot, 0xffffffff))
	f.Add(hostileHeader(frameHello, 1<<20))
	f.Add(hostileHeader(frameAck, 1<<30))
	f.Add(hostileHeader(framePackets, 0))               // empty packets frame
	f.Add(hostileHeader(framePackets, maxRunPayload+1)) // over-cap packets frame
	f.Add(hostileHeader(4, 32))                         // retired one-record frames
	f.Add(hostileHeader(10, 60))
	f.Add(hostileHeader(8, 49))
	f.Add(hostileHeader(11, 85))
	f.Add(hostileHeader(0, 0))
	f.Add(hostileHeader(250, 12))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		tel := newTelemetryDecoder()
		for {
			ft, payload, err := fr.next()
			if err != nil {
				return // any error is a valid outcome; panics are not
			}
			_, max, ok := payloadBounds(ft)
			if !ok {
				t.Fatalf("next returned unknown frame type %d without error", ft)
			}
			if len(payload) > max {
				t.Fatalf("frame type %d payload %d bytes exceeds cap %d", ft, len(payload), max)
			}
			// Run the matching decoder: it must reject or accept, never
			// panic, whatever survived the CRC.
			switch ft {
			case frameHello:
				_, _ = decodeHello(payload)
			case frameAck:
				_, _ = decodeAck(payload)
			case framePackets:
				if pkts, err := decodePackets(payload, nil); (err == nil) == (pkts == nil) {
					t.Fatalf("decodePackets returned %d packets and err %v", len(pkts), err)
				}
			case frameAlerts:
				if alerts, err := decodeAlerts(payload, nil); (err == nil) == (alerts == nil) {
					t.Fatalf("decodeAlerts returned %d alerts and err %v", len(alerts), err)
				}
			case frameTick:
				_, _ = decodeTick(payload)
			case frameTelemetry:
				_, _ = tel.decode(payload)
			}
		}
	})
}
