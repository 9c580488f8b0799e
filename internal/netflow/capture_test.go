package netflow

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"testing"
)

func samplePackets() []Packet {
	return []Packet{
		{Time: 0.5, SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 1234, DstPort: 443,
			Proto: TCP, Length: 60, HeaderLen: 40, Flags: SYN, WindowSize: 64240},
		{Time: 1.25, SrcIP: IPv4(10, 0, 0, 2), DstIP: IPv4(10, 0, 0, 1), SrcPort: 443, DstPort: 1234,
			Proto: TCP, Length: 1500, HeaderLen: 40, Flags: ACK | PSH, WindowSize: 28960},
		{Time: 2.0, SrcIP: IPv4(192, 168, 1, 1), DstIP: IPv4(8, 8, 8, 8), SrcPort: 9999, DstPort: 53,
			Proto: UDP, Length: 80, HeaderLen: 28},
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	pkts := samplePackets()
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pkts) {
		t.Fatalf("count %d != %d", len(back), len(pkts))
	}
	for i := range pkts {
		if back[i] != pkts[i] {
			t.Fatalf("packet %d changed: %+v != %+v", i, back[i], pkts[i])
		}
	}
}

func TestCaptureEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCapture(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty capture returned %d packets", len(back))
	}
}

func TestCaptureRejectsGarbage(t *testing.T) {
	if _, err := ReadCapture(bytes.NewBufferString("pcap? no.")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated record after valid header.
	pkts := samplePackets()
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCapture(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated capture accepted")
	}
}

func TestCaptureFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/cap.bin"
	if err := SaveCapture(path, samplePackets()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("loaded %d packets", len(back))
	}
}

// syntheticCapture writes n deterministic packets to path and returns the
// expected slice. At n in the hundreds of thousands the file spans
// multiple megabytes, so the streaming assertions below exercise real
// buffered-IO record boundaries.
func syntheticCapture(t *testing.T, path string, n int) []Packet {
	t.Helper()
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i] = Packet{
			Time:       float64(i) * 1e-3,
			SrcIP:      IPv4(10, 0, byte(i>>8), byte(i)),
			DstIP:      IPv4(172, 16, 0, 10),
			SrcPort:    uint16(1024 + i%50000),
			DstPort:    443,
			Proto:      TCP,
			Length:     40 + i%1400,
			HeaderLen:  40,
			Flags:      ACK,
			WindowSize: uint16(i),
		}
	}
	if err := SaveCapture(path, pkts); err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestCaptureScannerStreamsMultiMB(t *testing.T) {
	const n = 200_000 // 32 B/record → ~6.4 MB on disk
	path := t.TempDir() + "/big.cap"
	want := syntheticCapture(t, path, n)
	if fi, err := os.Stat(path); err != nil || fi.Size() < 4<<20 {
		t.Fatalf("capture too small for the test: %v bytes, err=%v", fi.Size(), err)
	}

	// Record-by-record streaming decodes the identical packet sequence.
	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if left := src.PacketSource.(*CaptureScanner).Remaining(); left != n {
		t.Fatalf("Remaining = %d, want %d", left, n)
	}
	var p Packet
	for i := 0; ; i++ {
		err := src.Next(&p)
		if err == io.EOF {
			if i != n {
				t.Fatalf("EOF after %d packets, want %d", i, n)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p != want[i] {
			t.Fatalf("packet %d differs: %+v != %+v", i, p, want[i])
		}
	}
	if err := src.Next(&p); err != io.EOF {
		t.Fatalf("post-EOF Next = %v, want io.EOF", err)
	}
}

func TestCaptureScannerConstantMemory(t *testing.T) {
	// O(1) replay: allocations for a full 200k-packet scan stay a small
	// constant (scanner + bufio buffer), nowhere near one-per-record.
	const n = 200_000
	path := t.TempDir() + "/big.cap"
	syntheticCapture(t, path, n)
	allocs := testing.AllocsPerRun(3, func() {
		src, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var p Packet
		total := 0
		for src.Next(&p) == nil {
			total++
		}
		if total != n {
			t.Fatalf("scanned %d packets, want %d", total, n)
		}
	})
	if allocs > 32 {
		t.Fatalf("streaming scan allocated %.0f times for %d records — not O(1)", allocs, n)
	}
}

func TestCaptureScannerTruncated(t *testing.T) {
	pkts := samplePackets()
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	s, err := NewCaptureScanner(bytes.NewReader(buf.Bytes()[:buf.Len()-5]))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	var got error
	for i := 0; i < len(pkts); i++ {
		if got = s.Next(&p); got != nil {
			break
		}
	}
	if got == nil || !errors.Is(got, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated record error = %v, want ErrUnexpectedEOF", got)
	}
}

func TestSliceSource(t *testing.T) {
	pkts := samplePackets()
	src := NewSliceSource(pkts)
	if src.Remaining() != len(pkts) {
		t.Fatalf("Remaining = %d", src.Remaining())
	}
	var p Packet
	for i := range pkts {
		if err := src.Next(&p); err != nil {
			t.Fatal(err)
		}
		if p != pkts[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	if err := src.Next(&p); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
	if src.Remaining() != 0 {
		t.Fatalf("Remaining after drain = %d", src.Remaining())
	}
}

// sentinelCapture returns WriteCapture's bytes for pkts with the header
// count patched to the streaming sentinel — the form a writer that does
// not know its record count upfront produces. This program no longer
// writes it; the reader must keep accepting it.
func sentinelCapture(t testing.TB, pkts []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], 0xFFFFFFFF)
	return raw
}

func TestCaptureSentinelCount(t *testing.T) {
	// A sentinel-count capture reads records until EOF and reports an
	// unknown Remaining.
	pkts := samplePackets()
	raw := sentinelCapture(t, pkts)
	s, err := NewCaptureScanner(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != -1 {
		t.Fatalf("streaming Remaining = %d, want -1", s.Remaining())
	}
	var p Packet
	for i := 0; ; i++ {
		err := s.Next(&p)
		if err == io.EOF {
			// Clean EOF at a record boundary ends the capture.
			if i != len(pkts) {
				t.Fatalf("EOF after %d packets, want %d", i, len(pkts))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p != pkts[i] {
			t.Fatalf("packet %d differs: %+v != %+v", i, p, pkts[i])
		}
	}
	// ReadCapture handles the unknown-count form too.
	back, err := ReadCapture(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pkts) {
		t.Fatalf("ReadCapture streaming: %d packets, want %d", len(back), len(pkts))
	}
	// Truncation mid-record is an error, not a silent short read.
	s2, err := NewCaptureScanner(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		if got = s2.Next(&p); got != nil {
			break
		}
	}
	if !errors.Is(got, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated streaming record error = %v, want ErrUnexpectedEOF", got)
	}
	if _, err := ReadCapture(bytes.NewReader(raw[:len(raw)-5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadCapture of truncated streaming capture = %v, want ErrUnexpectedEOF", err)
	}
}

// hostileCountHeader is a complete 12-byte capture header — magic,
// version 1 — declaring 0xFFFFFFFE records, followed by nothing.
var hostileCountHeader = []byte{0xF7, 0xCA, 0xD0, 0xCB, 1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF}

func TestReadCaptureHostileCount(t *testing.T) {
	// The header count is a hint, not an allocation size: ~4.3 G declared
	// records over an empty body must fail cleanly instead of asking the
	// runtime for hundreds of gigabytes (FuzzReadCapture bounds the
	// allocation on this same input).
	if _, err := ReadCapture(bytes.NewReader(hostileCountHeader)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("hostile count error = %v, want ErrUnexpectedEOF", err)
	}
}

func TestPacketRecordGoldenBytes(t *testing.T) {
	// The record layouts pinned by literal bytes (generated before the v1
	// and v2 codecs were folded into one body): with one encoder and one
	// decoder serving both widths, a round trip alone cannot tell when the
	// two drift together.
	base := Packet{Time: 123.456789, SrcPort: 443, DstPort: 51515, Proto: TCP,
		Length: 1500, Flags: 0x18, WindowSize: 4096}
	v1, v2 := base, base
	v1.SrcIP, v1.DstIP, v1.HeaderLen = IPv4(10, 0, 0, 1), IPv4(192, 168, 1, 2), 40
	v2.SrcIP, v2.DstIP = MustParseAddr("2001:db8::1"), MustParseAddr("2001:db8::2")
	v2.HeaderLen, v2.VLAN = 60, 42
	for _, tc := range []struct {
		name   string
		pkt    Packet
		hex    string
		encode func([]byte, *Packet)
		decode func([]byte, *Packet)
	}{
		{"v1", v1, "0b0bee073cdd5e400100000a0201a8c0bb013bc906dc05000028000000180010",
			EncodePacketRecord, DecodePacketRecord},
		{"v2", v2, "0b0bee073cdd5e4020010db800000000000000000000000120010db8000000000000000000000002bb013bc906dc0500003c0000001800102a000000",
			EncodePacketRecordV2, DecodePacketRecordV2},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Repeat([]byte{0xAA}, len(want)) // reserved bytes must be written, not inherited
		tc.encode(got, &tc.pkt)
		if !bytes.Equal(got, want) {
			t.Errorf("%s encode:\n got %x\nwant %x", tc.name, got, want)
		}
		var back Packet
		tc.decode(want, &back)
		if back != tc.pkt {
			t.Errorf("%s decode: %+v != %+v", tc.name, back, tc.pkt)
		}
	}
}

func TestPacketRecordCodecRoundTrip(t *testing.T) {
	pkts := samplePackets()
	var rec [PacketRecordSize]byte
	var back Packet
	for i := range pkts {
		EncodePacketRecord(rec[:], &pkts[i])
		DecodePacketRecord(rec[:], &back)
		if back != pkts[i] {
			t.Fatalf("record %d round trip: %+v != %+v", i, back, pkts[i])
		}
	}
}
