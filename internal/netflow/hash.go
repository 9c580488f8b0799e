package netflow

import "cmp"

// FNV-1a 64-bit constants.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// mix8, mix16 and mix32 fold the low 1, 2 and 4 bytes of v into an FNV-1a
// state, least-significant byte first.
func mix8(h uint64, v uint64) uint64  { return (h ^ v&0xff) * fnvPrime64 }
func mix16(h uint64, v uint64) uint64 { return mix8(mix8(h, v), v>>8) }
func mix32(h uint64, v uint64) uint64 { return mix16(mix16(h, v), v>>16) }

// mixAddr folds an address into an FNV-1a state. IPv4 addresses mix
// exactly the 4 mapped bytes, least-significant first — the byte stream
// the old uint32 representation produced — so every existing IPv4 hash,
// `Hash % N` shard assignment, and cluster partition is byte-identical.
// IPv6 addresses mix all 16 bytes in the same low-to-high order.
func mixAddr(h uint64, a *Addr) uint64 {
	hi, lo := a.words()
	h = mix32(h, lo)
	if a.Is4() {
		return h
	}
	return mix32(mix32(mix32(h, lo>>32), hi), hi>>32)
}

// Hash returns a 64-bit FNV-1a hash of the canonical bidirectional
// 5-tuple. Both directions of a flow map to the same FlowKey (see KeyOf)
// and therefore to the same hash, which is what makes the hash usable as
// a shard key: every packet of a flow lands on the same shard, so flow
// assembly never splits across workers. IPv4 keys hash exactly as they
// did when addresses were uint32 (see mixAddr).
func (k FlowKey) Hash() uint64 {
	return hashTuple(&k.IPA, &k.IPB, k.PortA, k.PortB, k.Proto)
}

// hashTuple is Hash over a 5-tuple already in canonical orientation.
func hashTuple(ipA, ipB *Addr, portA, portB uint16, proto Proto) uint64 {
	h := uint64(fnvOffset64)
	h = mixAddr(h, ipA)
	h = mixAddr(h, ipB)
	h = mix16(h, uint64(portA))
	h = mix16(h, uint64(portB))
	return mix8(h, uint64(proto))
}

// compare is a total order over flow keys, used as the deterministic
// tie-break when ordering evictions with identical first-packet times.
func (k *FlowKey) compare(o *FlowKey) int {
	if c := k.IPA.Compare(o.IPA); c != 0 {
		return c
	}
	if c := k.IPB.Compare(o.IPB); c != 0 {
		return c
	}
	if c := cmp.Compare(k.PortA, o.PortA); c != 0 {
		return c
	}
	if c := cmp.Compare(k.PortB, o.PortB); c != 0 {
		return c
	}
	return cmp.Compare(k.Proto, o.Proto)
}

// ShardKey returns the flow-partitioning hash of p's bidirectional flow:
// Hash of the canonical FlowKey, identical for both directions of the
// same flow.
func (p *Packet) ShardKey() uint64 {
	if p.aToB() {
		return hashTuple(&p.SrcIP, &p.DstIP, p.SrcPort, p.DstPort, p.Proto)
	}
	return hashTuple(&p.DstIP, &p.SrcIP, p.DstPort, p.SrcPort, p.Proto)
}

// Tenant returns the admission-fairness key of the flow: the /bits prefix
// of the canonical key's IPA (the byte-wise smaller endpoint address), so
// both directions of a flow always bill the same tenant and one subnet's
// token bucket never charges another's.
//
// IPv4 keys are unchanged from the uint32 era: the numeric /bits prefix,
// with bits outside (0, 32) keying per exact address; results are always
// < 2^32. IPv6 prefixes can't fit a uint64 directly, so the key is an
// FNV-1a hash of the masked /bits prefix (bits clamped to (0, 128],
// default exact /128) with bit 63 forced set — disjoint from every
// possible IPv4 key.
func (k FlowKey) Tenant(bits int) uint64 {
	if k.IPA.Is4() {
		ip := k.IPA.V4()
		if bits <= 0 || bits >= 32 {
			return uint64(ip)
		}
		return uint64(ip >> (32 - bits))
	}
	if bits <= 0 || bits > 128 {
		bits = 128
	}
	h := uint64(fnvOffset64)
	full, rem := bits/8, bits%8
	for i := 0; i < 16; i++ {
		b := k.IPA[i]
		switch {
		case i < full:
			// Whole byte inside the prefix: keep.
		case i == full && rem > 0:
			b &= 0xff << (8 - rem)
		default:
			b = 0
		}
		h ^= uint64(b)
		h *= fnvPrime64
	}
	h ^= uint64(bits)
	h *= fnvPrime64
	return h | 1<<63
}

// TenantPrefix is Tenant with per-family prefix widths: bits4 applies to
// IPv4 keys, bits6 to IPv6. The overload gate's default billing key is
// TenantPrefix(24, 48) — /24 subnets for v4, /48 sites for v6.
func (k FlowKey) TenantPrefix(bits4, bits6 int) uint64 {
	if k.IPA.Is4() {
		return k.Tenant(bits4)
	}
	return k.Tenant(bits6)
}

// TenantKey returns the per-tenant admission key of p's bidirectional
// flow — Tenant(bits) of the canonical FlowKey, identical for both
// directions (the single-width form of the overload gate's token-bucket
// key).
func (p *Packet) TenantKey(bits int) uint64 {
	k, _ := KeyOf(p)
	return k.Tenant(bits)
}

// TenantPrefixKey is TenantKey with per-family prefix widths (see
// FlowKey.TenantPrefix).
func (p *Packet) TenantPrefixKey(bits4, bits6 int) uint64 {
	k, _ := KeyOf(p)
	return k.TenantPrefix(bits4, bits6)
}
