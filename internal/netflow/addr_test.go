package netflow

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"cyberhd/internal/rng"
)

func TestAddrParseStringRoundTrip(t *testing.T) {
	cases := []string{"10.0.0.1", "192.168.1.10", "0.0.0.0", "2001:db8::1", "fe80::1", "2001:db8:85a3::8a2e:370:7334"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("ParseAddr(%q).String() = %q", s, got)
		}
	}
	if _, err := ParseAddr("not-an-address"); err == nil {
		t.Error("ParseAddr accepted garbage")
	}
	if a := MustParseAddr("10.1.2.3"); !a.Is4() || a.V4() != 0x0A010203 {
		t.Errorf("MustParseAddr v4 = %v", a)
	}
	if a := MustParseAddr("2001:db8::1"); a.Is4() {
		t.Error("v6 address claims Is4")
	}
	// The zero Addr stands for the unspecified IPv4 0.0.0.0.
	var zero Addr
	if !zero.Is4() || zero.V4() != 0 || zero.String() != "0.0.0.0" {
		t.Errorf("zero Addr: Is4=%v V4=%d String=%q", zero.Is4(), zero.V4(), zero.String())
	}
}

// TestAddrV4WritesAgree pins the three ways an IPv4 address becomes an
// Addr — AddrV4, a narrow record's Get and a PCAP frame's decodeIPv4 — to
// the same 16 bytes as the byte-by-byte v4-mapped layout, over every
// byte of a destination that held garbage before.
func TestAddrV4WritesAgree(t *testing.T) {
	ips := []uint32{0, 0xFFFFFFFF}
	r := rng.New(11)
	for range 1000 {
		ips = append(ips, r.Uint32())
	}
	garbage := Addr{0: 0xaa, 1: 0x55, 9: 0xaa, 10: 0x11, 15: 0x77}
	for _, ip := range ips {
		var want Addr
		want[10], want[11] = 0xff, 0xff
		binary.BigEndian.PutUint32(want[12:], ip)
		if got := AddrV4(ip); got != want {
			t.Fatalf("AddrV4(%08x) = %x, want %x", ip, got, want)
		}
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], ip)
		got := garbage
		if n := got.Get(rec[:], false); n != 4 || got != want {
			t.Fatalf("Get(%08x) = %x (%d bytes), want %x", ip, got, n, want)
		}
		frame := make([]byte, 28) // IPv4 header, then a UDP header
		frame[0], frame[9] = 0x45, byte(UDP)
		binary.BigEndian.PutUint16(frame[2:], 28)
		binary.BigEndian.PutUint32(frame[12:], ip)
		binary.BigEndian.PutUint32(frame[16:], ^ip)
		p := Packet{SrcIP: garbage, DstIP: garbage}
		if !decodeIPv4(&p, frame, 1, 0) || p.SrcIP != want || p.DstIP != AddrV4(^ip) {
			t.Fatalf("decodeIPv4(%08x) = %x → %x, want %x → %x", ip, p.SrcIP, p.DstIP, want, AddrV4(^ip))
		}
	}
}

func TestAddrCompareMatchesV4Order(t *testing.T) {
	// Byte-lexicographic order over v4-mapped addresses must equal the
	// old numeric uint32 order — the KeyOf orientation contract.
	vals := []uint32{0, 1, 0xFF, 0x0A000001, 0x0A000002, 0x0B010203, 0xC0A8010A, 0xFFFFFFFF}
	for _, x := range vals {
		for _, y := range vals {
			got := AddrV4(x).Compare(AddrV4(y))
			want := 0
			if x < y {
				want = -1
			} else if x > y {
				want = 1
			}
			if got != want {
				t.Fatalf("Compare(%08x, %08x) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// TestFlowKeyHashIsTheFold pins FlowKey.Hash to the fold written out
// scalar: the public partition key words, a v4-mapped address as the
// words (0, 0xffff<<32 | ip), ports and protocol in one word. A v6 key
// must fold all 16 address bytes (high bytes change the hash).
func TestFlowKeyHashIsTheFold(t *testing.T) {
	k := FlowKey{IPA: AddrV4(0x0A000102), IPB: AddrV4(0x0B010203), PortA: 443, PortB: 51000, Proto: TCP}
	mum := func(x, y uint64) uint64 {
		hi, lo := bits.Mul64(x, y)
		return hi ^ lo
	}
	h := mum(0^0xa0761d6478bd642f, 0xffff0A000102^0xe7037ed1a0b428db) ^
		mum(0^0x8ebc6af09c88c6e3, 0xffff0B010203^0x589965cc75374cc3)
	pp := uint64(443)<<32 | 51000<<16 | uint64(TCP)
	h = mum(h^pp, pp^0xe7037ed1a0b428db^0x9e3779b97f4a7c15)
	if k.Hash() != h {
		t.Fatalf("v4 hash %x != the written-out fold %x", k.Hash(), h)
	}

	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2002:db8::1") // differs only in byte 1
	k6a := FlowKey{IPA: a, IPB: MustParseAddr("2001:db8::2"), PortA: 1, PortB: 2, Proto: TCP}
	k6b := k6a
	k6b.IPA = b
	if k6a.Hash() == k6b.Hash() {
		t.Fatal("v6 hash ignores high address bytes (not mixing 16 bytes)")
	}
}

// TestKeyOfDirectionInvariance128 extends the canonical-orientation pin
// to 128-bit addresses: both directions of a v6 flow map to one key with
// opposite orientation flags, and ShardKey follows the canonical hash.
func TestKeyOfDirectionInvariance128(t *testing.T) {
	src, dst := MustParseAddr("2001:db8::1"), MustParseAddr("2001:db8:ffff::9")
	fwd := &Packet{SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: 443, Proto: TCP}
	bwd := &Packet{SrcIP: dst, DstIP: src, SrcPort: 443, DstPort: 40000, Proto: TCP}
	kf, aToBf := KeyOf(fwd)
	kb, aToBb := KeyOf(bwd)
	if kf != kb {
		t.Fatal("v6 directions map to different keys")
	}
	if aToBf == aToBb {
		t.Fatal("v6 orientation flag identical for opposite directions")
	}
	if kf.IPA != src {
		t.Fatal("canonical IPA is not the byte-wise smaller endpoint")
	}
	if fwd.ShardKey() != bwd.ShardKey() || fwd.ShardKey() != kf.Hash() {
		t.Fatal("v6 shard key not direction-invariant")
	}
	// Mixed-family flow: v4-mapped sorts below 2001::* addresses, so the
	// v4 endpoint is canonical — and the orientation is still invariant.
	mfwd := &Packet{SrcIP: MustParseAddr("10.0.0.1"), DstIP: dst, SrcPort: 1, DstPort: 2, Proto: UDP}
	mbwd := &Packet{SrcIP: dst, DstIP: MustParseAddr("10.0.0.1"), SrcPort: 2, DstPort: 1, Proto: UDP}
	mkf, _ := KeyOf(mfwd)
	mkb, _ := KeyOf(mbwd)
	if mkf != mkb {
		t.Fatal("mixed-family directions map to different keys")
	}
	if !mkf.IPA.Is4() {
		t.Fatal("v4-mapped endpoint should canonicalize first (byte-wise smaller)")
	}
}

// TestTenant128 pins the IPv6 tenant key: direction-invariant, one key per
// /48 site, and carrying the family bit so it is disjoint from every IPv4
// key.
func TestTenant128(t *testing.T) {
	checkTenants(t, []tenantCase{
		{"v6", "2001:db8:aaaa::1", "2001:db8:bbbb::2", 1<<63 | 0x20010db8aaaa, "2001:db8:aaaa::/48"},
		{"v6 same /48", "2001:db8:aaaa:ffff::9", "2001:db8:bbbb::2", 1<<63 | 0x20010db8aaaa, "2001:db8:aaaa::/48"},
		{"v6 other /48", "2001:db8:cccc::1", "2001:db8:dddd::2", 1<<63 | 0x20010db8cccc, "2001:db8:cccc::/48"},
		{"v6 zero prefix", "::1", "2001:db8::1", 1 << 63, "::/48"},
	})
}

// TestCaptureV2RoundTrip pins the v2 record: IPv6 and VLAN-tagged packets
// round-trip bit-identically through the writer and the scanner; a mixed
// capture auto-selects v2; a pure-v4 untagged one stays on v1.
func TestCaptureV2RoundTrip(t *testing.T) {
	pkts := []Packet{
		{Time: 0.5, SrcIP: MustParseAddr("2001:db8::1"), DstIP: MustParseAddr("2001:db8::2"),
			SrcPort: 40000, DstPort: 443, Proto: TCP, Length: 1500, HeaderLen: 60, Flags: SYN, WindowSize: 64240},
		{Time: 1.25, SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
			SrcPort: 1000, DstPort: 53, Proto: UDP, Length: 80, HeaderLen: 28, VLAN: 42},
		{Time: 2.0, SrcIP: IPv4(10, 0, 0, 3), DstIP: IPv4(10, 0, 0, 4),
			SrcPort: 1, DstPort: 2, Proto: ICMP, Length: 64, HeaderLen: 28},
	}
	var buf bytes.Buffer
	if err := WriteCapture(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, wrote %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Fatalf("packet %d changed: got %+v, want %+v", i, got[i], pkts[i])
		}
	}

	// The mixed set selected the v2 header and 60-byte records.
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != 2 {
		t.Fatalf("mixed capture has header version %d, want 2", v)
	}
	if n := buf.Len(); n != 12+len(pkts)*PacketRecordSizeV2 {
		t.Fatalf("mixed capture is %d bytes, want v2 header+records %d", n, 12+len(pkts)*PacketRecordSizeV2)
	}

	// A pure-v4 untagged slice stays on v1 records.
	var v4buf bytes.Buffer
	if err := WriteCapture(&v4buf, pkts[2:]); err != nil {
		t.Fatal(err)
	}
	if n := v4buf.Len(); n != 12+PacketRecordSize {
		t.Fatalf("pure-v4 capture is %d bytes, want v1 header+record %d", n, 12+PacketRecordSize)
	}
}
