package netflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Capture persistence: a compact binary packet-log format so generated
// traffic can be written once and replayed across experiments (the role
// PCAP files play for the real CIC datasets). Fixed-width little-endian
// records, no compression, fully deterministic.
//
// The v1 and v2 records are one layout at two address widths: the same
// field order, 4-byte addresses in v1 and 16-byte addresses plus a
// VLAN+reserve tail in v2. encodeRecord/decodeRecord are the only bodies
// that know the field offsets; the version is picked from what the data
// needs (EncodableV1) on write and from the header on read.

const (
	captureMagic       = uint32(0xCBD0CAF7)
	captureVersion     = uint32(1)
	captureVersion2    = uint32(2)
	packetRecordSize   = 8 + 4 + 4 + 2 + 2 + 1 + 4 + 4 + 1 + 2           // 32 bytes
	packetRecordSizeV2 = 8 + 16 + 16 + 2 + 2 + 1 + 4 + 4 + 1 + 2 + 2 + 2 // 60 bytes

	// captureCountStreaming is the header count sentinel of a capture
	// whose writer did not know the record count upfront: records simply
	// run until EOF. This program never writes it, but such files may
	// exist outside it, so the reader keeps accepting them.
	captureCountStreaming = ^uint32(0)

	// captureHintCap bounds how many records ReadCapture preallocates on
	// the header's say-so; past it the slice grows with the records that
	// actually arrive, so a hostile count cannot demand memory upfront.
	captureHintCap = 4 << 10
)

// PacketRecordSize is the fixed encoded size of one v1 capture packet
// record in bytes. The cluster wire protocol reuses the record encoding
// verbatim as its packet-frame payload. v1 records carry IPv4 untagged
// packets only; see PacketRecordSizeV2 for the general record.
const PacketRecordSize = packetRecordSize

// PacketRecordSizeV2 is the fixed encoded size of one v2 capture packet
// record in bytes: 16-byte addresses (IPv4 v4-mapped) plus the VLAN tag.
const PacketRecordSizeV2 = packetRecordSizeV2

// recordSize returns the packet record size at the given address width.
func recordSize(wide bool) int {
	if wide {
		return packetRecordSizeV2
	}
	return packetRecordSize
}

// encodeRecord writes p into dst[:recordSize(wide)] — the one encoder of
// the packet record layout. Narrow records drop the VLAN tail and store
// addresses as 4 bytes; the caller guarantees p.EncodableV1() for them.
func encodeRecord(dst []byte, p *Packet, wide bool) {
	binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(p.Time))
	w := p.SrcIP.Put(dst[8:], wide)
	p.DstIP.Put(dst[8+w:], wide)
	b := dst[8+2*w:]
	binary.LittleEndian.PutUint16(b[0:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[2:], p.DstPort)
	b[4] = byte(p.Proto)
	binary.LittleEndian.PutUint32(b[5:], uint32(p.Length))
	binary.LittleEndian.PutUint32(b[9:], uint32(p.HeaderLen))
	b[13] = p.Flags
	binary.LittleEndian.PutUint16(b[14:], p.WindowSize)
	if wide {
		binary.LittleEndian.PutUint16(b[16:], p.VLAN)
		b[18], b[19] = 0, 0 // reserved
	}
}

// decodeRecord reads one record of recordSize(wide) bytes from src into
// *p — the one decoder of the packet record layout, inverse of
// encodeRecord.
func decodeRecord(src []byte, p *Packet, wide bool) {
	*p = Packet{Time: math.Float64frombits(binary.LittleEndian.Uint64(src[0:]))}
	w := p.SrcIP.Get(src[8:], wide)
	p.DstIP.Get(src[8+w:], wide)
	b := src[8+2*w:]
	p.SrcPort = binary.LittleEndian.Uint16(b[0:])
	p.DstPort = binary.LittleEndian.Uint16(b[2:])
	p.Proto = Proto(b[4])
	p.Length = int(binary.LittleEndian.Uint32(b[5:]))
	p.HeaderLen = int(binary.LittleEndian.Uint32(b[9:]))
	p.Flags = b[13]
	p.WindowSize = binary.LittleEndian.Uint16(b[14:])
	if wide {
		p.VLAN = binary.LittleEndian.Uint16(b[16:])
	}
}

// EncodePacketRecord encodes p into dst, which must hold at least
// PacketRecordSize bytes. The layout is the v1 capture record format:
// fixed-width little-endian fields, fully deterministic. The caller must
// ensure p.EncodableV1() — v1 records store 4-byte addresses and no VLAN,
// so a v6 or VLAN-tagged packet would be silently mangled here; use
// EncodePacketRecordV2 for those.
func EncodePacketRecord(dst []byte, p *Packet) { encodeRecord(dst, p, false) }

// DecodePacketRecord decodes one v1 capture packet record from src, which
// must hold at least PacketRecordSize bytes, into *p. The inverse of
// EncodePacketRecord; every record round-trips bit-identically.
func DecodePacketRecord(src []byte, p *Packet) { decodeRecord(src, p, false) }

// EncodePacketRecordV2 encodes p into dst, which must hold at least
// PacketRecordSizeV2 bytes: the v2 capture record — full 16-byte
// addresses (IPv4 v4-mapped) and the 802.1Q VLAN tag. Fixed-width
// little-endian fields, fully deterministic, any packet.
func EncodePacketRecordV2(dst []byte, p *Packet) { encodeRecord(dst, p, true) }

// DecodePacketRecordV2 decodes one v2 capture packet record from src,
// which must hold at least PacketRecordSizeV2 bytes, into *p. The inverse
// of EncodePacketRecordV2; every record round-trips bit-identically.
func DecodePacketRecordV2(src []byte, p *Packet) { decodeRecord(src, p, true) }

// WriteCapture serializes packets to w — the only capture writer.
//
// The capture version is chosen automatically: when every packet fits the
// legacy 32-byte record (pure IPv4, untagged), the output is a v1 capture
// byte-identical to what this function always wrote; any v6 or
// VLAN-tagged packet switches the whole capture to v2 records.
func WriteCapture(w io.Writer, packets []Packet) error {
	version := captureVersion
	for i := range packets {
		if !packets[i].EncodableV1() {
			version = captureVersion2
			break
		}
	}
	wide := version == captureVersion2
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], captureMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(packets)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [packetRecordSizeV2]byte
	rec := buf[:recordSize(wide)]
	for i := range packets {
		encodeRecord(rec, &packets[i], wide)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CaptureScanner streams packets out of a capture one record at a time —
// replaying a multi-gigabyte capture costs one record buffer, not the
// whole file. It implements PacketSource.
type CaptureScanner struct {
	br        *bufio.Reader
	left      uint32 // records not yet read; meaningless when streaming
	streaming bool   // sentinel count: records run until EOF
	wide      bool   // v2 records
	// rec is the reused record buffer — a local would escape through the
	// io.ReadFull interface call and cost one allocation per packet.
	rec [packetRecordSizeV2]byte
}

// NewCaptureScanner validates the capture header of r and returns a
// scanner positioned at the first record. Both capture versions load: v1
// (32-byte IPv4 records) and v2 (16-byte addresses + VLAN).
func NewCaptureScanner(r io.Reader) (*CaptureScanner, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netflow: capture header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != captureMagic {
		return nil, fmt.Errorf("netflow: not a capture file")
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	if v != captureVersion && v != captureVersion2 {
		return nil, fmt.Errorf("netflow: unsupported capture version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[8:])
	return &CaptureScanner{
		br: br, left: count, streaming: count == captureCountStreaming,
		wide: v == captureVersion2,
	}, nil
}

// Remaining returns how many records have not been read yet, or -1 for a
// streaming capture (sentinel count: the total is only known at EOF).
func (s *CaptureScanner) Remaining() int {
	if s.streaming {
		return -1
	}
	return int(s.left)
}

// Next decodes the next record into *p, or returns io.EOF after the last
// one. A capture truncated mid-record returns a wrapped ErrUnexpectedEOF.
func (s *CaptureScanner) Next(p *Packet) error {
	if !s.streaming && s.left == 0 {
		return io.EOF
	}
	rec := s.rec[:recordSize(s.wide)]
	if _, err := io.ReadFull(s.br, rec); err != nil {
		if err == io.EOF {
			if s.streaming {
				// Clean record boundary: the streaming capture ends here.
				return io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		if s.streaming {
			return fmt.Errorf("netflow: capture record (streaming): %w", err)
		}
		return fmt.Errorf("netflow: capture record (%d remaining): %w", s.left, err)
	}
	if !s.streaming {
		s.left--
	}
	decodeRecord(rec, p, s.wide)
	return nil
}

// ReadCapture deserializes a packet log written by WriteCapture into
// memory. Streaming replay should use NewCaptureScanner or Open instead,
// which cost O(1) memory.
func ReadCapture(r io.Reader) ([]Packet, error) {
	s, err := NewCaptureScanner(r)
	if err != nil {
		return nil, err
	}
	// The header count is only a hint and the input may be hostile: cap
	// it, and let append follow the records actually read. A streaming
	// capture (-1) has no total until EOF.
	packets := make([]Packet, 0, min(max(s.Remaining(), 0), captureHintCap))
	var p Packet
	for {
		if err := s.Next(&p); err != nil {
			if err == io.EOF {
				return packets, nil
			}
			return nil, err
		}
		packets = append(packets, p)
	}
}

// SaveCapture writes packets to path.
func SaveCapture(path string, packets []Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCapture(f, packets); err != nil {
		return err
	}
	return f.Sync()
}

// LoadCapture reads a packet log from path into memory.
func LoadCapture(path string) ([]Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCapture(f)
}
