package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// The PCAP front door ingests untrusted files. Both fuzz targets pin the
// robustness contract: any byte stream either decodes or errors —
// never a panic, never an allocation sized by a hostile length claim —
// and decodes the same however its bytes arrive.
//
// drainFuzz decodes data four ways in lockstep: whole, one byte per
// Read, half of each Read, and with EOF riding on the last data. All four
// must yield the same packets, the same Skipped count and the same
// terminal error, so no refill boundary changes what a capture means. It
// caps the packet count so a fuzz input can't loop unbounded.
func drainFuzz(t *testing.T, data []byte) {
	wraps := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"bytes.Reader", func(r io.Reader) io.Reader { return r }},
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	}
	srcs := make([]*PCAPSource, len(wraps))
	errs := make([]error, len(wraps))
	pkts := make([]Packet, len(wraps))
	for i, w := range wraps {
		srcs[i], errs[i] = NewPCAPSource(w.wrap(bytes.NewReader(data)))
	}
	for n := 0; ; n++ {
		for i := 1; i < len(wraps); i++ {
			if !sameEnd(errs[i], errs[0]) {
				t.Fatalf("record %d: %s ends with %v, %s with %v", n, wraps[i].name, errs[i], wraps[0].name, errs[0])
			}
			if errs[0] == nil && pkts[i] != pkts[0] {
				t.Fatalf("record %d: %s decodes %+v, %s %+v", n, wraps[i].name, pkts[i], wraps[0].name, pkts[0])
			}
			if srcs[0] != nil && srcs[i].Skipped() != srcs[0].Skipped() {
				t.Fatalf("record %d: %s skipped %d, %s %d", n, wraps[i].name, srcs[i].Skipped(), wraps[0].name, srcs[0].Skipped())
			}
		}
		if errs[0] != nil || n == 1<<16 {
			return
		}
		for i, src := range srcs {
			errs[i] = src.Next(&pkts[i])
		}
	}
}

// sameEnd reports whether two decode outcomes match: both nil, or the
// same message wrapping the same end-of-input sentinel (or neither).
func sameEnd(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() &&
		errors.Is(a, io.EOF) == errors.Is(b, io.EOF) &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

func FuzzDecodePCAP(f *testing.F) {
	var valid bytes.Buffer
	if err := WritePCAP(&valid, pcapTestPackets()); err != nil {
		f.Fatal(err)
	}
	raw := valid.Bytes()
	f.Add(raw)
	// Truncations: inside the global header, a record header, a frame.
	for _, n := range []int{3, 10, 24, 30, 24 + 16, len(raw) - 7, len(raw) - 1} {
		if n < len(raw) {
			f.Add(raw[:n])
		}
	}
	// Hostile caplen/snaplen claims.
	hostile := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(hostile[24+8:], 0xffffffff)
	f.Add(hostile)
	hostile = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(hostile[16:], 0xffffffff) // snaplen
	f.Add(hostile)
	// Nested-VLAN garbage: 12 stacked tags then a truncated IPv4 header.
	var vlans []byte
	vlans = append(vlans, make([]byte, 12)...)
	for i := 0; i < 12; i++ {
		vlans = append(vlans, 0x81, 0x00, byte(i), byte(i))
	}
	vlans = append(vlans, 0x08, 0x00, 0x45)
	var vbuf bytes.Buffer
	vbuf.Write(raw[:24])
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[8:], uint32(len(vlans)))
	binary.LittleEndian.PutUint32(rh[12:], uint32(len(vlans)))
	vbuf.Write(rh[:])
	vbuf.Write(vlans)
	f.Add(vbuf.Bytes())
	// Big-endian and microsecond magics.
	bo := append([]byte(nil), raw...)
	bo[0], bo[1], bo[2], bo[3] = 0xa1, 0xb2, 0x3c, 0x4d
	f.Add(bo)
	bo = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bo[0:], pcapMagicMicro)
	f.Add(bo)

	f.Fuzz(func(t *testing.T, data []byte) { drainFuzz(t, data) })
}

func FuzzDecodePcapng(f *testing.F) {
	raw := writePcapng(f, pcapTestPackets())
	f.Add(raw)
	// Truncations: inside the SHB, the IDB, an EPB header, a frame.
	for _, n := range []int{4, 8, 11, 28, 40, 28 + 20, len(raw) - 5, len(raw) - 1} {
		if n < len(raw) {
			f.Add(raw[:n])
		}
	}
	// Hostile block-length claims: enormous, undersized, misaligned.
	for _, v := range []uint32{0xffffffff, 4, 13} {
		hostile := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(hostile[4:], v)
		f.Add(hostile)
	}
	// Mismatched trailing length.
	hostile := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(hostile[24:], 0x1234)
	f.Add(hostile)
	// Packet block referencing an interface that was never described.
	var buf bytes.Buffer
	buf.Write(raw[:28]) // SHB only
	epb := make([]byte, 20)
	binary.LittleEndian.PutUint32(epb[0:], 99)
	var bh [8]byte
	binary.LittleEndian.PutUint32(bh[0:], pcapngBlockEPB)
	binary.LittleEndian.PutUint32(bh[4:], uint32(12+len(epb)))
	buf.Write(bh[:])
	buf.Write(epb)
	binary.LittleEndian.PutUint32(bh[0:4], uint32(12+len(epb)))
	buf.Write(bh[0:4])
	f.Add(buf.Bytes())
	// Hostile if_tsresol claims.
	weird := writePcapng(f, pcapTestPackets()[:1])
	for i := 0; i+8 <= len(weird); i += 4 {
		if binary.LittleEndian.Uint32(weird[i:]) == pcapngBlockIDB {
			weird[i+12] = 0xff // tsresol 2^-127
			break
		}
	}
	f.Add(weird)

	f.Fuzz(func(t *testing.T, data []byte) { drainFuzz(t, data) })
}
