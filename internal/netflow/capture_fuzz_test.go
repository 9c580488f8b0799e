package netflow

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"
)

// FuzzReadCapture pins the robustness contract of the capture reader, the
// one external format the program loads whole: any byte stream either
// decodes or errors — never a panic, and never memory sized by the
// header's record count instead of by the bytes that actually arrive.
func FuzzReadCapture(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden_v1.cap")
	if err != nil {
		f.Fatal(err)
	}
	v1 := golden[:12+8*PacketRecordSize] // header still declares the full count
	var v2buf bytes.Buffer
	if err := WriteCapture(&v2buf, []Packet{
		{Time: 0.5, SrcIP: MustParseAddr("2001:db8::1"), DstIP: MustParseAddr("2001:db8::2"),
			SrcPort: 40000, DstPort: 443, Proto: TCP, Length: 1500, HeaderLen: 60, Flags: SYN, WindowSize: 64240},
		{Time: 1.25, SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
			SrcPort: 1000, DstPort: 53, Proto: UDP, Length: 80, HeaderLen: 28, VLAN: 42},
	}); err != nil {
		f.Fatal(err)
	}
	v2 := v2buf.Bytes()
	sentinel := sentinelCapture(f, samplePackets())
	for _, raw := range [][]byte{v1, v2, sentinel} {
		f.Add(raw)
		// Truncations: inside the header, at it, mid-record, one byte short.
		for _, n := range []int{3, 11, 12, 12 + 17, len(raw) - 1} {
			f.Add(raw[:n])
		}
	}
	f.Add(hostileCountHeader)
	unknown := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint32(unknown[4:], 3)
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pkts, err := ReadCapture(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A Packet is ~2× its record and append at most doubles, so a few
		// multiples of the input plus the capped preallocation hint covers
		// every honest read.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*len(data)); grew > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err == nil && 12+len(pkts)*PacketRecordSize > len(data) {
			t.Fatalf("decoded %d packets from %d bytes", len(pkts), len(data))
		}
	})
}
