package netflow

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recastPCAP rewrites WritePCAP's output (little-endian, nanosecond) into
// another classic header variant: every header word in byte order bo, and
// with micro the microsecond magic and tick unit. Frames are copied as
// they are. A microsecond file carries the same times only for packets on
// the microsecond grid.
func recastPCAP(t *testing.T, raw []byte, bo binary.ByteOrder, micro bool) []byte {
	t.Helper()
	le := binary.LittleEndian
	out := make([]byte, len(raw))
	copy(out, raw)
	magic := uint32(pcapMagicNano)
	if micro {
		magic = pcapMagicMicro
	}
	bo.PutUint32(out[0:], magic)
	bo.PutUint16(out[4:], le.Uint16(raw[4:]))
	bo.PutUint16(out[6:], le.Uint16(raw[6:]))
	for off := 8; off < 24; off += 4 {
		bo.PutUint32(out[off:], le.Uint32(raw[off:]))
	}
	for off := 24; off < len(raw); {
		tick := le.Uint32(raw[off+4:])
		if micro {
			if tick%1000 != 0 {
				t.Fatalf("record at %d: %d ns is off the microsecond grid", off, tick)
			}
			tick /= 1000
		}
		caplen := le.Uint32(raw[off+8:])
		bo.PutUint32(out[off:], le.Uint32(raw[off:]))
		bo.PutUint32(out[off+4:], tick)
		bo.PutUint32(out[off+8:], caplen)
		bo.PutUint32(out[off+12:], le.Uint32(raw[off+12:]))
		off += 16 + int(caplen)
	}
	return out
}

// openFDs counts this process's open descriptors, or -1 where /proc does
// not say.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestOpenSniffsContainer pins the one file front door: the same packets
// written in every container that can carry them — internal capture (v1
// or v2 as the packets need, and with the sentinel count), classic PCAP
// in both magics and byte orders, pcapng — come back identical through
// Open, which picks the reader from the first four bytes alone.
func TestOpenSniffsContainer(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, raw []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, set := range []struct {
		name    string
		pkts    []Packet
		version uint32 // capture version WriteCapture must pick
	}{
		{"v4", samplePackets(), captureVersion},
		{"v6vlan", pcapTestPackets(), captureVersion2},
	} {
		var capture, pcap bytes.Buffer
		if err := WriteCapture(&capture, set.pkts); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(capture.Bytes()[4:]); got != set.version {
			t.Fatalf("%s: WriteCapture chose version %d, want %d", set.name, got, set.version)
		}
		if err := WritePCAP(&pcap, set.pkts); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			raw  []byte
		}{
			{"capture", capture.Bytes()},
			{"capture-sentinel", sentinelCapture(t, set.pkts)},
			{"pcap-le-nano", pcap.Bytes()},
			{"pcap-be-nano", recastPCAP(t, pcap.Bytes(), binary.BigEndian, false)},
			{"pcap-le-micro", recastPCAP(t, pcap.Bytes(), binary.LittleEndian, true)},
			{"pcap-be-micro", recastPCAP(t, pcap.Bytes(), binary.BigEndian, true)},
			{"pcapng", writePcapng(t, set.pkts)},
		} {
			t.Run(set.name+"/"+c.name, func(t *testing.T) {
				f, err := Open(write(set.name+"."+c.name, c.raw))
				if err != nil {
					t.Fatal(err)
				}
				got := drainPCAP(t, f)
				if len(got) != len(set.pkts) {
					t.Fatalf("read %d packets, wrote %d", len(got), len(set.pkts))
				}
				for i := range got {
					if got[i] != set.pkts[i] {
						t.Errorf("packet %d changed:\n got %+v\nwant %+v", i, got[i], set.pkts[i])
					}
				}
				if f.Skipped() != 0 {
					t.Errorf("Skipped = %d on a fully decodable file", f.Skipped())
				}
				if err := f.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
		}
	}

	t.Run("skipped", func(t *testing.T) {
		f, err := Open(write("foreign.pcap", foreignFramePCAP(t)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if n := len(drainPCAP(t, f)); n != 2 || f.Skipped() != 2 {
			t.Errorf("decoded %d, skipped %d; want 2 and 2", n, f.Skipped())
		}
	})

	t.Run("rejects", func(t *testing.T) {
		before := openFDs()
		if _, err := Open(write("short", []byte{0xF7, 0xCA, 0xD0})); err == nil {
			t.Error("3-byte file accepted")
		}
		_, err := Open(write("unknown", []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}))
		if err == nil || !strings.Contains(err.Error(), "deadbeef") {
			t.Errorf("unknown magic error = %v, want one naming deadbeef", err)
		}
		if _, err := Open(write("header-only", hostileCountHeader[:8])); err == nil {
			t.Error("capture cut inside its header accepted")
		}
		if _, err := Open(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
			t.Errorf("missing file error = %v", err)
		}
		if after := openFDs(); after != before {
			t.Errorf("open descriptors %d -> %d across failed Opens", before, after)
		}
	})
}
