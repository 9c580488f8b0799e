// Package netflow is the network-flow substrate under the CIC-style
// datasets and the streaming NIDS pipeline: packet records, bidirectional
// flow assembly with activity timeouts, and CICFlowMeter-style statistical
// feature extraction.
//
// The paper evaluates on CIC-IDS-2017/2018, which are distributed as flow
// feature tables produced by CICFlowMeter from raw captures. We do not
// have the captures, so this package implements the same pipeline over
// synthetic packets (see internal/traffic): flows are keyed by the
// bidirectional 5-tuple, accumulate per-direction statistics online, and
// evict on TCP termination or idle timeout, yielding the feature vector a
// real deployment would compute.
package netflow

import "fmt"

// Proto is an IP protocol number (only the three the datasets use).
type Proto uint8

// Supported protocols.
const (
	TCP  Proto = 6
	UDP  Proto = 17
	ICMP Proto = 1
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case ICMP:
		return "icmp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// TCP flag bits.
const (
	FIN uint8 = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
	ECE
	CWR
)

// Packet is one network packet record — the unit the traffic generators
// emit and the flow assembler consumes.
type Packet struct {
	// Time is seconds since capture start.
	Time float64
	// SrcIP and DstIP are the endpoint addresses (IPv4 stored v4-mapped).
	SrcIP, DstIP Addr
	// SrcPort and DstPort are transport ports (0 for ICMP).
	SrcPort, DstPort uint16
	// Proto is the transport protocol.
	Proto Proto
	// Length is the total packet length in bytes (header + payload).
	Length int
	// HeaderLen is the transport+IP header length in bytes.
	HeaderLen int
	// Flags holds TCP flag bits (0 for non-TCP).
	Flags uint8
	// WindowSize is the TCP window (0 for non-TCP). The initial window of
	// each direction is a CIC feature.
	WindowSize uint16
	// VLAN is the outermost 802.1Q VLAN ID (0 = untagged). QinQ frames
	// record the outer service tag. VLAN is carried for observability and
	// the v2 capture record; it is not part of the flow key.
	VLAN uint16
}

// EncodableV1 reports whether p fits the legacy 32-byte v1 capture record
// (and the matching cluster wire packet frame): both addresses IPv4 and no
// VLAN tag. Pure-v4 workloads stay on the v1 encodings byte-identically.
func (p *Packet) EncodableV1() bool {
	return p.VLAN == 0 && p.SrcIP.Is4() && p.DstIP.Is4()
}

// FlowKey identifies a bidirectional flow: the 5-tuple normalized so both
// directions map to the same key.
type FlowKey struct {
	IPA, IPB     Addr
	PortA, PortB uint16
	Proto        Proto
}

// KeyOf returns the bidirectional key of p and whether p travels in the
// "A→B" canonical orientation (the orientation with the byte-wise smaller
// endpoint first — for IPv4 pairs this is the old numeric order).
func KeyOf(p *Packet) (FlowKey, bool) {
	if _, _, _, _, _, aToB := p.tuple(); !aToB {
		return FlowKey{p.DstIP, p.SrcIP, p.DstPort, p.SrcPort, p.Proto}, false
	}
	return FlowKey{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto}, true
}
