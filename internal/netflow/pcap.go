package netflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// PCAP/pcapng front door: a dependency-free streaming PacketSource over
// the two interchange formats real captures arrive in. Like
// CaptureScanner, a PCAPSource costs O(1) memory regardless of capture
// size: one read buffer of maxPCAPBlock bytes, from which every record
// and block is decoded in place, and no per-packet allocation.
//
// The decode stack covers what the flow features need: Ethernet with
// 802.1Q VLAN tags (including QinQ stacking), raw-IP link layers, IPv4,
// IPv6 with its chained extension headers, and TCP/UDP/ICMP transports.
// Frames outside that set — ARP, other ethertypes, other transports,
// non-first IP fragments, headers cut short by the snap length — are
// skipped and counted (Skipped), never errors: a real capture is full
// of them. Structural corruption of the container itself (bad magic,
// impossible block or record lengths, truncation mid-record) is an
// error: past that point record boundaries are gone.

// PCAP container magics and the pcapng block/option codes we interpret.
const (
	pcapMagicMicro   = 0xa1b2c3d4 // classic pcap, microsecond timestamps
	pcapMagicNano    = 0xa1b23c4d // classic pcap, nanosecond timestamps
	pcapngBlockSHB   = 0x0a0d0d0a // section header block
	pcapngBlockIDB   = 0x00000001 // interface description block
	pcapngBlockSPB   = 0x00000003 // simple packet block
	pcapngBlockEPB   = 0x00000006 // enhanced packet block
	pcapngByteOrder  = 0x1a2b3c4d // SHB byte-order magic
	pcapngOptEnd     = 0
	pcapngOptTsresol = 9

	// maxPCAPPacket bounds one captured frame; a record or block claiming
	// more is treated as corruption, not an allocation request. 256 KiB
	// covers every real snap length (tcpdump's default cap is 262144).
	maxPCAPPacket = 1 << 18
	// maxPCAPBlock bounds one pcapng block (frame + options + padding).
	// It is also the read buffer's size, so every legal classic record
	// and pcapng block can be peeked whole.
	maxPCAPBlock = maxPCAPPacket + 4096
)

// Link-layer types (the pcap "network" field / pcapng IDB linktype).
const (
	linkEthernet = 1   // LINKTYPE_ETHERNET
	linkRaw      = 101 // LINKTYPE_RAW: bare IPv4 or IPv6
	linkIPv4     = 228 // LINKTYPE_IPV4
	linkIPv6     = 229 // LINKTYPE_IPV6
)

// Ethertypes the frame walk understands.
const (
	etherIPv4  = 0x0800
	etherIPv6  = 0x86dd
	etherVLAN  = 0x8100 // 802.1Q customer tag
	etherQinQ  = 0x88a8 // 802.1ad service tag
	etherVLAN9 = 0x9100 // legacy double-tag ethertype
)

// PCAPSource streams packets out of a classic PCAP or pcapng capture —
// a PacketSource like CaptureScanner, but over the interchange formats.
// Packet.Time is the capture's absolute timestamp in seconds.
type PCAPSource struct {
	br      *bufio.Reader // maxPCAPBlock bytes: records are peeked whole, then discarded
	ng      bool          // pcapng container (classic otherwise)
	swap    bool          // the capture (pcapng: the section) is big-endian; see u32
	section bool          // pcapng: a section header has fixed the byte order
	tsdiv   float64       // classic: ticks per second (1e6 or 1e9)
	link    uint32        // classic: the capture's single link type
	ifaces  []pcapIface
	skipped int
}

// pcapIface is one pcapng capture interface: its link type and timestamp
// resolution (ticks per second).
type pcapIface struct {
	link  uint32
	tsdiv float64
}

// pcapFrame is one captured frame as the container walk hands it to
// decodeFrame. data points into the read buffer and is valid until the
// record holding it is discarded.
type pcapFrame struct {
	data []byte
	link uint32
	ts   float64
	orig int
}

var _ PacketSource = (*PCAPSource)(nil)

// NewPCAPSource sniffs r's magic and returns a streaming source over a
// classic PCAP (microsecond or nanosecond, either byte order) or pcapng
// capture. Unknown magic is an error — see NewCaptureScanner for the
// internal capture format.
func NewPCAPSource(r io.Reader) (*PCAPSource, error) {
	br := bufio.NewReaderSize(r, maxPCAPBlock)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("netflow: pcap magic: %w", err)
	}
	le := binary.LittleEndian.Uint32(magic)
	be := binary.BigEndian.Uint32(magic)
	s := &PCAPSource{br: br}
	switch {
	case le == pcapngBlockSHB || be == pcapngBlockSHB:
		s.ng = true
		return s, nil
	case le == pcapMagicMicro:
		return s.classicHeader(false, 1e6)
	case be == pcapMagicMicro:
		return s.classicHeader(true, 1e6)
	case le == pcapMagicNano:
		return s.classicHeader(false, 1e9)
	case be == pcapMagicNano:
		return s.classicHeader(true, 1e9)
	}
	return nil, fmt.Errorf("netflow: not a pcap or pcapng capture (magic %02x%02x%02x%02x)",
		magic[0], magic[1], magic[2], magic[3])
}

// classicHeader consumes the 24-byte classic global header of a capture
// written big-endian when swap is set.
func (s *PCAPSource) classicHeader(swap bool, tsdiv float64) (*PCAPSource, error) {
	hdr, err := s.peek(24)
	if err != nil {
		return nil, fmt.Errorf("netflow: pcap header: %w", err)
	}
	s.swap = swap
	s.tsdiv = tsdiv
	s.link = s.u32(hdr[20:])
	_, _ = s.br.Discard(24)
	return s, nil
}

// u32 and u16 read a header field in the capture's byte order: a
// little-endian load, byte-swapped when the capture is big-endian. Both
// inline, where a binary.ByteOrder value cost a dynamic call per field.
func (s *PCAPSource) u32(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if s.swap {
		v = bits.ReverseBytes32(v)
	}
	return v
}

func (s *PCAPSource) u16(b []byte) uint16 {
	v := binary.LittleEndian.Uint16(b)
	if s.swap {
		v = bits.ReverseBytes16(v)
	}
	return v
}

// peek returns the next n bytes in place, without consuming them (n is at
// most maxPCAPBlock, the buffer's size). A short read maps the way
// io.ReadFull's does: io.EOF only when the input ended before any of the
// n bytes, io.ErrUnexpectedEOF when it ended partway. Bytes peeked whole
// are consumed with Discard, which then cannot come up short, so its
// result is dropped.
func (s *PCAPSource) peek(n int) ([]byte, error) {
	b, err := s.br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Skipped returns how many captured frames were passed over because the
// decode stack does not cover them (non-IP ethertypes, unknown
// transports, later IP fragments, snap-length truncation).
func (s *PCAPSource) Skipped() int { return s.skipped }

// Next decodes the next IP packet into *p, skipping frames the decode
// stack does not cover, or returns io.EOF at a clean end of capture.
// Container corruption — truncation mid-record, impossible length
// claims — is an error.
func (s *PCAPSource) Next(p *Packet) error {
	for {
		var f pcapFrame
		var size int
		var err error
		if s.ng {
			f, size, err = s.nextNG()
		} else {
			f, size, err = s.nextClassic()
		}
		if err != nil {
			return err
		}
		ok := decodeFrame(p, f.link, f.data, f.orig, f.ts)
		_, _ = s.br.Discard(size)
		if ok {
			return nil
		}
		s.skipped++
	}
}

// nextClassic peeks one classic pcap record — 16-byte header + frame —
// and returns its frame and its size in bytes, left for Next to discard.
func (s *PCAPSource) nextClassic() (pcapFrame, int, error) {
	hdr, err := s.peek(16)
	if err != nil {
		if err == io.EOF {
			return pcapFrame{}, 0, io.EOF
		}
		return pcapFrame{}, 0, fmt.Errorf("netflow: pcap record header: %w", err)
	}
	sec := s.u32(hdr[0:])
	tick := s.u32(hdr[4:])
	caplen := s.u32(hdr[8:])
	orig := s.u32(hdr[12:])
	if caplen > maxPCAPPacket {
		return pcapFrame{}, 0, fmt.Errorf("netflow: pcap record claims %d captured bytes", caplen)
	}
	size := 16 + int(caplen)
	rec, err := s.peek(size)
	if err != nil {
		return pcapFrame{}, 0, fmt.Errorf("netflow: pcap record body: %w", err)
	}
	ts := float64(sec) + float64(tick)/s.tsdiv
	return pcapFrame{data: rec[16:], link: s.link, ts: ts, orig: int(orig)}, size, nil
}

// nextNG walks pcapng blocks until a packet block surfaces, tracking
// section byte order and interface descriptions along the way. Blocks it
// passes are discarded here; the packet block's size is returned for Next
// to discard once the frame is decoded.
func (s *PCAPSource) nextNG() (pcapFrame, int, error) {
	for {
		bh, err := s.peek(8)
		if err != nil {
			if err == io.EOF {
				return pcapFrame{}, 0, io.EOF
			}
			return pcapFrame{}, 0, fmt.Errorf("netflow: pcapng block header: %w", err)
		}
		// The SHB type is a palindrome, readable before its section fixes
		// the byte order; every other block uses the current section's.
		typLE := binary.LittleEndian.Uint32(bh[0:])
		if typLE == pcapngBlockSHB {
			if err := s.sectionHeader(); err != nil {
				return pcapFrame{}, 0, err
			}
			continue
		}
		if !s.section {
			return pcapFrame{}, 0, fmt.Errorf("netflow: pcapng block before section header")
		}
		typ := s.u32(bh[0:])
		total := s.u32(bh[4:])
		if total < 12 || total%4 != 0 || total > maxPCAPBlock {
			return pcapFrame{}, 0, fmt.Errorf("netflow: pcapng block length %d", total)
		}
		block, err := s.peek(int(total))
		if err != nil {
			return pcapFrame{}, 0, fmt.Errorf("netflow: pcapng block body: %w", err)
		}
		if trail := s.u32(block[total-4:]); trail != total {
			return pcapFrame{}, 0, fmt.Errorf("netflow: pcapng block length mismatch (%d vs %d)", total, trail)
		}
		body := block[8 : total-4]
		switch typ {
		case pcapngBlockIDB:
			if err := s.interfaceBlock(body); err != nil {
				return pcapFrame{}, 0, err
			}
		case pcapngBlockEPB:
			f, err := s.enhancedPacket(body)
			return f, int(total), err
		case pcapngBlockSPB:
			f, err := s.simplePacket(body)
			return f, int(total), err
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
		_, _ = s.br.Discard(int(total))
	}
}

// sectionHeader parses the SHB at the read position: the byte-order magic
// after its 8-byte block header fixes the section's endianness, and a new
// section resets the interface table.
func (s *PCAPSource) sectionHeader() error {
	head, err := s.peek(12)
	if err != nil {
		return fmt.Errorf("netflow: pcapng section header: %w", err)
	}
	bom := head[8:12]
	switch {
	case binary.LittleEndian.Uint32(bom) == pcapngByteOrder:
		s.swap = false
	case binary.BigEndian.Uint32(bom) == pcapngByteOrder:
		s.swap = true
	default:
		return fmt.Errorf("netflow: pcapng byte-order magic %02x%02x%02x%02x", bom[0], bom[1], bom[2], bom[3])
	}
	s.section = true
	total := s.u32(head[4:])
	if total < 28 || total%4 != 0 || total > maxPCAPBlock {
		return fmt.Errorf("netflow: pcapng section header length %d", total)
	}
	// Version (4), section length (8), options, trailing length — all
	// already bounded; validate the trailer and consume the block.
	block, err := s.peek(int(total))
	if err != nil {
		return fmt.Errorf("netflow: pcapng section header: %w", err)
	}
	if trail := s.u32(block[total-4:]); trail != total {
		return fmt.Errorf("netflow: pcapng section header length mismatch (%d vs %d)", total, trail)
	}
	_, _ = s.br.Discard(int(total))
	s.ifaces = s.ifaces[:0]
	return nil
}

// interfaceBlock records one IDB: link type and timestamp resolution
// (the if_tsresol option; default 10⁻⁶ seconds per tick).
func (s *PCAPSource) interfaceBlock(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("netflow: pcapng interface block %d bytes", len(body))
	}
	iface := pcapIface{link: uint32(s.u16(body[0:])), tsdiv: 1e6}
	for opts := body[8:]; len(opts) >= 4; {
		code := s.u16(opts[0:])
		olen := int(s.u16(opts[2:]))
		if code == pcapngOptEnd {
			break
		}
		if olen > len(opts)-4 {
			return fmt.Errorf("netflow: pcapng option length %d", olen)
		}
		if code == pcapngOptTsresol && olen >= 1 {
			v := opts[4]
			if v&0x80 != 0 {
				exp := int(v & 0x7f)
				if exp > 64 {
					exp = 64 // beyond any real clock; bounds the loop
				}
				div := 1.0
				for i := 0; i < exp; i++ {
					div *= 2
				}
				iface.tsdiv = div
			} else {
				iface.tsdiv = math.Pow(10, float64(v))
			}
		}
		opts = opts[4+(olen+3)/4*4:]
	}
	s.ifaces = append(s.ifaces, iface)
	return nil
}

// enhancedPacket unpacks an EPB body (trailer already stripped).
func (s *PCAPSource) enhancedPacket(body []byte) (pcapFrame, error) {
	if len(body) < 20 {
		return pcapFrame{}, fmt.Errorf("netflow: pcapng packet block %d bytes", len(body))
	}
	ifc := s.u32(body[0:])
	if int(ifc) >= len(s.ifaces) {
		return pcapFrame{}, fmt.Errorf("netflow: pcapng packet references interface %d of %d", ifc, len(s.ifaces))
	}
	ts := uint64(s.u32(body[4:]))<<32 | uint64(s.u32(body[8:]))
	caplen := int(s.u32(body[12:]))
	orig := int(s.u32(body[16:]))
	if caplen < 0 || caplen > len(body)-20 {
		return pcapFrame{}, fmt.Errorf("netflow: pcapng packet claims %d captured bytes in a %d-byte block", caplen, len(body))
	}
	iface := s.ifaces[ifc]
	return pcapFrame{data: body[20 : 20+caplen], link: iface.link, ts: float64(ts) / iface.tsdiv, orig: orig}, nil
}

// simplePacket unpacks an SPB body (trailer already stripped): original
// length + frame, no timestamp, implicitly interface 0.
func (s *PCAPSource) simplePacket(body []byte) (pcapFrame, error) {
	if len(s.ifaces) == 0 {
		return pcapFrame{}, fmt.Errorf("netflow: pcapng simple packet before any interface block")
	}
	if len(body) < 4 {
		return pcapFrame{}, fmt.Errorf("netflow: pcapng simple packet block %d bytes", len(body))
	}
	orig := int(s.u32(body[0:]))
	data := body[4:]
	if orig >= 0 && orig < len(data) {
		data = data[:orig]
	}
	return pcapFrame{data: data, link: s.ifaces[0].link, orig: orig}, nil
}

// decodeFrame walks one captured frame down to a transport header and
// fills *p. Returns false — skip, not error — for anything the feature
// pipeline cannot use.
func decodeFrame(p *Packet, link uint32, data []byte, orig int, ts float64) bool {
	var vlan uint16
	switch link {
	case linkEthernet:
		if len(data) < 14 {
			return false
		}
		ethertype := binary.BigEndian.Uint16(data[12:])
		data = data[14:]
		// Walk VLAN tags (802.1Q, QinQ service tags, legacy 0x9100),
		// recording the outermost ID. Depth-bounded: a hostile frame can
		// claim at most 8 nested tags before we give up.
		for depth := 0; ethertype == etherVLAN || ethertype == etherQinQ || ethertype == etherVLAN9; depth++ {
			if depth >= 8 || len(data) < 4 {
				return false
			}
			if vlan == 0 {
				vlan = binary.BigEndian.Uint16(data[0:]) & 0x0fff
			}
			ethertype = binary.BigEndian.Uint16(data[2:])
			data = data[4:]
		}
		switch ethertype {
		case etherIPv4:
			return decodeIPv4(p, data, ts, vlan)
		case etherIPv6:
			return decodeIPv6(p, data, ts, vlan)
		}
		return false
	case linkRaw:
		if len(data) < 1 {
			return false
		}
		switch data[0] >> 4 {
		case 4:
			return decodeIPv4(p, data, ts, 0)
		case 6:
			return decodeIPv6(p, data, ts, 0)
		}
		return false
	case linkIPv4:
		return decodeIPv4(p, data, ts, 0)
	case linkIPv6:
		return decodeIPv6(p, data, ts, 0)
	}
	return false
}

// decodeIPv4 fills *p from an IPv4 packet. Length is the IP total-length
// field (snap-length truncation does not shrink the feature).
func decodeIPv4(p *Packet, data []byte, ts float64, vlan uint16) bool {
	if len(data) < 20 || data[0]>>4 != 4 {
		return false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || ihl > len(data) {
		return false
	}
	if binary.BigEndian.Uint16(data[6:])&0x1fff != 0 {
		return false // later fragment: no transport header to read
	}
	totlen := int(binary.BigEndian.Uint16(data[2:]))
	if totlen < ihl {
		totlen = len(data)
	}
	if !decodeTransport(p, Proto(data[9]), data[ihl:]) {
		return false
	}
	p.Time = ts
	p.SrcIP.setV4(binary.BigEndian.Uint32(data[12:]))
	p.DstIP.setV4(binary.BigEndian.Uint32(data[16:]))
	p.Length = totlen
	p.HeaderLen += ihl
	p.VLAN = vlan
	return true
}

// decodeIPv6 fills *p from an IPv6 packet, walking the extension-header
// chain (hop-by-hop, routing, destination options, fragment) to the
// transport.
func decodeIPv6(p *Packet, data []byte, ts float64, vlan uint16) bool {
	if len(data) < 40 || data[0]>>4 != 6 {
		return false
	}
	payload := int(binary.BigEndian.Uint16(data[4:]))
	next := data[6]
	var src, dst [16]byte
	copy(src[:], data[8:24])
	copy(dst[:], data[24:40])
	off := 40
	for depth := 0; depth < 8; depth++ {
		switch next {
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if off+2 > len(data) {
				return false
			}
			ext := (int(data[off+1]) + 1) * 8
			next = data[off]
			if off+ext > len(data) {
				return false
			}
			off += ext
			continue
		case 44: // fragment header: fixed 8 bytes
			if off+8 > len(data) {
				return false
			}
			if binary.BigEndian.Uint16(data[off+2:])>>3 != 0 {
				return false // later fragment
			}
			next = data[off]
			off += 8
			continue
		}
		break
	}
	// ICMPv6 (58) records as the ICMP protocol the feature pipeline knows.
	proto := Proto(next)
	if proto == 58 {
		proto = ICMP
	}
	if !decodeTransport(p, proto, data[off:]) {
		return false
	}
	p.Time = ts
	p.SrcIP, p.DstIP = AddrFrom16(src), AddrFrom16(dst)
	p.Length = 40 + payload
	p.HeaderLen += off
	p.VLAN = vlan
	return true
}

// decodeTransport fills p's transport fields (ports, flags, window) and
// sets HeaderLen to the transport header size alone — the IP decoder
// adds its own header bytes.
func decodeTransport(p *Packet, proto Proto, data []byte) bool {
	switch proto {
	case TCP:
		if len(data) < 20 {
			return false
		}
		doff := int(data[12]>>4) * 4
		if doff < 20 {
			return false
		}
		*p = Packet{
			SrcPort:    binary.BigEndian.Uint16(data[0:]),
			DstPort:    binary.BigEndian.Uint16(data[2:]),
			Proto:      TCP,
			HeaderLen:  doff,
			Flags:      data[13],
			WindowSize: binary.BigEndian.Uint16(data[14:]),
		}
		return true
	case UDP:
		if len(data) < 8 {
			return false
		}
		*p = Packet{
			SrcPort:   binary.BigEndian.Uint16(data[0:]),
			DstPort:   binary.BigEndian.Uint16(data[2:]),
			Proto:     UDP,
			HeaderLen: 8,
		}
		return true
	case ICMP:
		if len(data) < 4 {
			return false
		}
		*p = Packet{Proto: ICMP, HeaderLen: 8}
		return true
	}
	return false
}
