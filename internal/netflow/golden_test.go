package netflow

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// loadGoldenHashes parses testdata/golden_v1_hashes.txt: one line per
// flow key in first-appearance order — "ipa ipb porta portb proto hash
// hash%4 tenant24". The keys and tenants were recorded by the
// pre-refactor uint32 implementation; hash and hash%4 are the partition
// fold's under its public key, which no format carries.
type goldenHash struct {
	key    FlowKey
	hash   uint64
	shard4 uint64
	ten24  uint64
}

func loadGoldenHashes(t *testing.T) []goldenHash {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_v1_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenHash
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 8 {
			t.Fatalf("golden hash line has %d fields: %q", len(f), sc.Text())
		}
		u := func(i int) uint64 {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		out = append(out, goldenHash{
			key: FlowKey{
				IPA:   AddrV4(uint32(u(0))),
				IPB:   AddrV4(uint32(u(1))),
				PortA: uint16(u(2)),
				PortB: uint16(u(3)),
				Proto: Proto(u(4)),
			},
			hash:   u(5),
			shard4: u(6),
			ten24:  u(7),
		})
	}
	if len(out) == 0 {
		t.Fatal("no golden hash lines")
	}
	return out
}

// TestGoldenV1CaptureCompat is the netflow half of the IPv4 compatibility
// contract: the golden v1 capture (written by the pre-refactor uint32
// implementation) must load, re-save byte-identically through both
// writers, and reproduce the recorded /24 tenants and KeyOf canonical
// orientation exactly. It also pins the partition hash: the recorded
// FlowKey.Hash values and Hash%4 shard assignments.
func TestGoldenV1CaptureCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1.cap")
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadCapture(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Fatal("golden capture is empty")
	}

	// Re-save: the auto-versioning writer must detect a pure-v4 capture
	// and reproduce the v1 bytes exactly.
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("WriteCapture output differs from golden v1 bytes (%d vs %d bytes)", buf.Len(), len(raw))
	}

	// Every packet of the golden capture is v1-encodable by construction.
	for i := range pkts {
		if !pkts[i].EncodableV1() {
			t.Fatalf("packet %d not v1-encodable after v1 decode: %+v", i, pkts[i])
		}
	}

	// Hash pins: first-appearance flow keys and their recorded hashes.
	golden := loadGoldenHashes(t)
	seen := map[FlowKey]bool{}
	var keys []FlowKey
	for i := range pkts {
		k, _ := KeyOf(&pkts[i])
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if len(keys) < len(golden) {
		t.Fatalf("capture yields %d distinct keys, golden records %d", len(keys), len(golden))
	}
	for i, g := range golden {
		if keys[i] != g.key {
			t.Fatalf("key %d: KeyOf orientation changed: got %+v, want %+v", i, keys[i], g.key)
		}
		if h := g.key.Hash(); h != g.hash {
			t.Fatalf("key %d: Hash = %d, golden %d", i, h, g.hash)
		}
		if s := g.key.Hash() % 4; s != g.shard4 {
			t.Fatalf("key %d: shard = %d, golden %d", i, s, g.shard4)
		}
		if ten := g.key.Tenant(); ten != g.ten24 {
			t.Fatalf("key %d: /24 tenant = %d, golden %d", i, ten, g.ten24)
		}
	}
}
