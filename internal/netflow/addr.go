package netflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Addr is a 16-byte IP address in network byte order. IPv4 addresses are
// stored v4-mapped (::ffff:a.b.c.d, bytes 10–11 = 0xff), so one fixed-width
// type carries both families while every v4-only invariant — numeric
// ordering, the 4-byte hash mix, the /prefix tenant key, the 32-bit capture
// and wire encodings — stays byte-identical to the old uint32
// representation. The zero Addr is treated as the unspecified IPv4 address
// 0.0.0.0 (the zero value of the old representation).
type Addr [16]byte

// AddrV4 returns the v4-mapped Addr of an IPv4 address packed as a
// big-endian uint32 (the old address representation).
func AddrV4(ip uint32) Addr {
	var a Addr
	a[10], a[11] = 0xff, 0xff
	a[12] = byte(ip >> 24)
	a[13] = byte(ip >> 16)
	a[14] = byte(ip >> 8)
	a[15] = byte(ip)
	return a
}

// IPv4 packs four octets into the v4-mapped address representation.
func IPv4(a, b, c, d byte) Addr {
	return AddrV4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFrom16 returns the Addr with the given 16-byte value. A v4-mapped
// input represents an IPv4 address; anything else is IPv6.
func AddrFrom16(b [16]byte) Addr { return Addr(b) }

// ParseAddr parses an address string ("10.0.0.1", "2001:db8::1") into an
// Addr, mapping IPv4 inputs to their v4-mapped form.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, fmt.Errorf("netflow: parse address %q: %w", s, err)
	}
	if ip.Is4() {
		b4 := ip.As4()
		return IPv4(b4[0], b4[1], b4[2], b4[3]), nil
	}
	return Addr(ip.As16()), nil
}

// MustParseAddr is ParseAddr panicking on error, for constants and tests.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// words returns the address as two big-endian 64-bit words, so that
// byte-lexicographic order is numeric order on (hi, lo).
func (a *Addr) words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// Is4 reports whether the address is IPv4 (v4-mapped), including the zero
// Addr, which stands for the unspecified IPv4 0.0.0.0.
func (a Addr) Is4() bool {
	hi, lo := a.words()
	return hi == 0 && (lo>>32 == 0xffff || lo == 0)
}

// V4 returns the IPv4 address as a big-endian uint32 (the old
// representation). Only meaningful when Is4 is true; for IPv6 it returns
// the low 4 bytes.
func (a Addr) V4() uint32 {
	return uint32(a[12])<<24 | uint32(a[13])<<16 | uint32(a[14])<<8 | uint32(a[15])
}

// Put writes the address to the head of dst in the capture-record and
// wire encoding and returns the bytes used: the raw 16 bytes when wide,
// else V4() as 4 little-endian bytes (the v1 encodings; only meaningful
// when Is4).
func (a Addr) Put(dst []byte, wide bool) int {
	if wide {
		return copy(dst[:16], a[:])
	}
	binary.LittleEndian.PutUint32(dst, a.V4())
	return 4
}

// Get is the inverse of Put: it sets *a from the head of src and returns
// the bytes consumed. A narrow address decodes to its v4-mapped form.
func (a *Addr) Get(src []byte, wide bool) int {
	if wide {
		return copy(a[:], src[:16])
	}
	*a = AddrV4(binary.LittleEndian.Uint32(src))
	return 4
}

// Compare orders addresses byte-lexicographically: -1 if a < o, 0 if
// equal, +1 if a > o. For two v4-mapped addresses this equals numeric
// uint32 order, preserving the old canonical-key orientation.
func (a Addr) Compare(o Addr) int {
	x, xl := a.words()
	y, yl := o.words()
	if x == y {
		x, y = xl, yl
	}
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return 0
}

// String renders the conventional form: dotted-quad for IPv4 (v4-mapped
// unwrapped), RFC 5952 for IPv6.
func (a Addr) String() string { return string(a.AppendTo(nil)) }

// AppendTo appends the String form of the address to b.
func (a Addr) AppendTo(b []byte) []byte {
	if a == (Addr{}) {
		return append(b, "0.0.0.0"...)
	}
	return netip.AddrFrom16(a).Unmap().AppendTo(b)
}

// Tenant returns the admission-fairness key of the flow: the source prefix
// of the canonical key's IPA (the byte-wise smaller endpoint address), so
// both directions of a flow always bill the same tenant and one subnet's
// token bucket never charges another's. The key is the prefix itself: an
// IPv4 /24 is ip>>8, below 2^24; an IPv6 /48 is its 48 bits with bit 63
// set, disjoint from every IPv4 key. TenantLabel turns it back into CIDR.
func (k FlowKey) Tenant() uint64 {
	if k.IPA.Is4() {
		return uint64(k.IPA.V4() >> 8)
	}
	hi, _ := k.IPA.words()
	return 1<<63 | hi>>16
}

// TenantLabel renders a Tenant key as its prefix in CIDR form:
// "10.0.1.0/24" or "2001:db8:aaaa::/48".
func TenantLabel(key uint64) string {
	if key < 1<<63 {
		return fmt.Sprintf("%d.%d.%d.0/24", byte(key>>16), byte(key>>8), byte(key))
	}
	var a [16]byte
	binary.BigEndian.PutUint64(a[:8], key<<16)
	return netip.AddrFrom16(a).String() + "/48"
}
