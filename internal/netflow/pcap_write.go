package netflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// PCAP synthesis: render Packet records as a classic nanosecond-format
// PCAP so the interchange path (NewPCAPSource) can be exercised — and
// diffed against the internal capture path — without any external
// tooling. The writer is faithful: decoding its output reproduces every
// feature field (Time on the nanosecond grid — see RoundToNanos —
// addresses, ports, proto, Length, HeaderLen, Flags, WindowSize, VLAN)
// exactly, and it refuses packets whose fields no real wire encoding
// could carry rather than write something that decodes differently.

// RoundToNanos rounds a capture timestamp to the nanosecond grid —
// exactly the value NewPCAPSource reconstructs from a nanosecond PCAP
// record. Generators producing a capture and a PCAP of the same traffic
// round times first so the two replay bit-identically.
func RoundToNanos(t float64) float64 {
	sec := math.Floor(t)
	ns := math.Round((t - sec) * 1e9)
	if ns >= 1e9 {
		sec++
		ns -= 1e9
	}
	return sec + ns/1e9
}

// PCAPWriter streams packets as classic nanosecond PCAP frames in O(1)
// memory.
type PCAPWriter struct {
	bw     *bufio.Writer
	frame  []byte
	closed bool
}

// NewPCAPWriter writes the PCAP global header (nanosecond magic,
// little-endian, Ethernet link type) and returns a writer positioned
// for the first frame.
func NewPCAPWriter(w io.Writer) (*PCAPWriter, error) {
	pw := &PCAPWriter{bw: bufio.NewWriter(w)}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicNano)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:], 4)
	binary.LittleEndian.PutUint32(hdr[16:], maxPCAPPacket) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:], linkEthernet)
	if _, err := pw.bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("netflow: pcap header: %w", err)
	}
	return pw, nil
}

// Write renders one packet as an Ethernet frame. Packets whose fields
// don't fit a wire encoding (HeaderLen no header layout can produce,
// Length beyond the IP total-length field, ports on ICMP) are errors —
// the writer never emits a frame that decodes differently than p.
func (pw *PCAPWriter) Write(p *Packet) error {
	if pw.closed {
		return fmt.Errorf("netflow: PCAPWriter: write after Close")
	}
	frame, err := appendFrame(pw.frame[:0], p)
	if err != nil {
		return err
	}
	pw.frame = frame
	sec := math.Floor(p.Time)
	ns := math.Round((p.Time - sec) * 1e9)
	if ns >= 1e9 {
		sec++
		ns -= 1e9
	}
	if sec < 0 || sec > float64(^uint32(0)) {
		return fmt.Errorf("netflow: PCAPWriter: timestamp %v outside the pcap epoch range", p.Time)
	}
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[0:], uint32(sec))
	binary.LittleEndian.PutUint32(rh[4:], uint32(ns))
	binary.LittleEndian.PutUint32(rh[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rh[12:], uint32(len(frame)))
	if _, err := pw.bw.Write(rh[:]); err != nil {
		return err
	}
	_, err = pw.bw.Write(frame)
	return err
}

// Close flushes buffered frames. It does not close the underlying
// writer. Idempotent.
func (pw *PCAPWriter) Close() error {
	if pw.closed {
		return nil
	}
	pw.closed = true
	return pw.bw.Flush()
}

// WritePCAP serializes packets as a classic nanosecond PCAP — the slice
// form of PCAPWriter.
func WritePCAP(w io.Writer, packets []Packet) error {
	pw, err := NewPCAPWriter(w)
	if err != nil {
		return err
	}
	for i := range packets {
		if err := pw.Write(&packets[i]); err != nil {
			return err
		}
	}
	return pw.Close()
}

// appendFrame renders p as an Ethernet(+VLAN)/IP/transport frame,
// appended to dst. Zeroed MACs and checksums: the decode path reads
// neither.
func appendFrame(dst []byte, p *Packet) ([]byte, error) {
	v4 := p.SrcIP.Is4() && p.DstIP.Is4()
	if v4 != (p.SrcIP.Is4() || p.DstIP.Is4()) {
		return nil, fmt.Errorf("netflow: PCAPWriter: mixed v4/v6 endpoints in one packet")
	}
	tlen, err := transportLen(p, v4)
	if err != nil {
		return nil, err
	}
	payload := p.Length - p.HeaderLen
	if payload < 0 {
		return nil, fmt.Errorf("netflow: PCAPWriter: Length %d below HeaderLen %d", p.Length, p.HeaderLen)
	}
	if v4 && p.Length > 0xffff {
		return nil, fmt.Errorf("netflow: PCAPWriter: Length %d beyond the IPv4 total-length field", p.Length)
	}
	if !v4 && p.Length-40 > 0xffff {
		return nil, fmt.Errorf("netflow: PCAPWriter: Length %d beyond the IPv6 payload-length field", p.Length)
	}

	// Ethernet, optionally VLAN-tagged.
	ether := etherIPv4
	if !v4 {
		ether = etherIPv6
	}
	dst = append(dst, make([]byte, 12)...) // zero MACs
	if p.VLAN != 0 {
		if p.VLAN > 0x0fff {
			return nil, fmt.Errorf("netflow: PCAPWriter: VLAN ID %d beyond the 12-bit tag", p.VLAN)
		}
		dst = be16(dst, etherVLAN)
		dst = be16(dst, p.VLAN)
	}
	dst = be16(dst, uint16(ether))

	if v4 {
		ihl := p.HeaderLen - tlen
		dst = append(dst, 0x40|byte(ihl/4), 0)
		dst = be16(dst, uint16(p.Length))
		dst = append(dst, 0, 0, 0, 0) // id, flags/fragment
		dst = append(dst, 64, byte(p.Proto), 0, 0)
		dst = append(dst, p.SrcIP[12:16]...)
		dst = append(dst, p.DstIP[12:16]...)
		for i := 20; i < ihl; i++ {
			dst = append(dst, 0) // IP options: end-of-list padding
		}
	} else {
		dst = append(dst, 0x60, 0, 0, 0)
		dst = be16(dst, uint16(p.Length-40))
		proto := p.Proto
		if proto == ICMP {
			proto = 58 // ICMPv6 on the wire
		}
		dst = append(dst, byte(proto), 64)
		dst = append(dst, p.SrcIP[:]...)
		dst = append(dst, p.DstIP[:]...)
	}

	switch p.Proto {
	case TCP:
		dst = be16(dst, p.SrcPort)
		dst = be16(dst, p.DstPort)
		dst = append(dst, make([]byte, 8)...) // seq, ack
		dst = append(dst, byte(tlen/4)<<4, p.Flags)
		dst = be16(dst, p.WindowSize)
		dst = append(dst, 0, 0, 0, 0) // checksum, urgent
		for i := 20; i < tlen; i++ {
			dst = append(dst, 0) // TCP options: end-of-list padding
		}
	case UDP:
		dst = be16(dst, p.SrcPort)
		dst = be16(dst, p.DstPort)
		dst = be16(dst, uint16(8+payload))
		dst = append(dst, 0, 0)
	case ICMP:
		typ := byte(8) // echo request
		if !v4 {
			typ = 128
		}
		dst = append(dst, typ, 0, 0, 0, 0, 0, 0, 0)
	}
	return append(dst, make([]byte, payload)...), nil
}

// transportLen derives the transport-header byte count HeaderLen implies
// for p, validating that a real header could carry it.
func transportLen(p *Packet, v4 bool) (int, error) {
	iplen := 20
	if !v4 {
		iplen = 40
	}
	switch p.Proto {
	case TCP:
		tlen := p.HeaderLen - iplen
		if tlen < 20 || tlen > 60 || tlen%4 != 0 {
			return 0, fmt.Errorf("netflow: PCAPWriter: TCP HeaderLen %d has no wire encoding", p.HeaderLen)
		}
		return tlen, nil
	case UDP, ICMP:
		// Fixed 8-byte transport header; IPv4 absorbs slack as IP options.
		tlen := 8
		if v4 {
			ihl := p.HeaderLen - tlen
			if ihl < 20 || ihl > 60 || ihl%4 != 0 {
				return 0, fmt.Errorf("netflow: PCAPWriter: %v HeaderLen %d has no wire encoding", p.Proto, p.HeaderLen)
			}
		} else if p.HeaderLen != iplen+tlen {
			return 0, fmt.Errorf("netflow: PCAPWriter: %v HeaderLen %d has no IPv6 wire encoding", p.Proto, p.HeaderLen)
		}
		if p.SrcPort != 0 || p.DstPort != 0 {
			if p.Proto == ICMP {
				return 0, fmt.Errorf("netflow: PCAPWriter: ICMP packet carries ports")
			}
		}
		return tlen, nil
	}
	return 0, fmt.Errorf("netflow: PCAPWriter: unsupported protocol %v", p.Proto)
}

// be16 appends v big-endian.
func be16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}
