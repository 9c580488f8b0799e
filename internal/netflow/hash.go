package netflow

import (
	"cmp"
	"math/bits"
)

// partitionKey is the fixed, public key of the partition hash: wyhash's
// default secret. It is the same in every process, so a packet routes to
// the same shard or worker in each, and a sender who knows it can aim
// flows at one shard, as it could under any unkeyed hash. The flow table
// folds the same tuple under secret words of its own (flowTable.seed).
var partitionKey = [4]uint64{0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3, 0x589965cc75374cc3}

// fold hashes a canonical 5-tuple under the key words k: the two
// addresses as words (see Addr.words) and pp, the ports and protocol
// packed as portA<<32 | portB<<16 | proto. It is three multiply-folds,
// wyhash's mum step (the two halves of a 128-bit product, xored), with a
// key word in every multiplicand. pp goes into both multiplicands of the
// last: on one side only, the ports of one address pair would move the
// output by a fixed step per port, and under the public key that step
// put runs of consecutive ports on one shard.
func fold(k *[4]uint64, a0, a1, b0, b1, pp uint64) uint64 {
	ah, al := bits.Mul64(a0^k[0], a1^k[1])
	bh, bl := bits.Mul64(b0^k[2], b1^k[3])
	h, l := bits.Mul64(ah^al^bh^bl^pp, pp^k[1]^0x9e3779b97f4a7c15)
	return h ^ l
}

// tuple returns p's 5-tuple in canonical orientation as fold takes it,
// and whether p travels A→B: the orientation with the byte-wise smaller
// endpoint first, which for IPv4 pairs is numeric order. Orientation and
// hash input come from the same four word loads.
func (p *Packet) tuple() (a0, a1, b0, b1, pp uint64, aToB bool) {
	a0, a1 = p.SrcIP.words()
	b0, b1 = p.DstIP.words()
	pa, pb := uint64(p.SrcPort), uint64(p.DstPort)
	// (b0, b1, pb) - (a0, a1, pa) borrows iff p travels B→A. The compare
	// takes no branch: on two-way traffic its outcome is a coin toss.
	_, c := bits.Sub64(pb, pa, 0)
	_, c = bits.Sub64(b1, a1, c)
	_, c = bits.Sub64(b0, a0, c)
	if aToB = c == 0; !aToB {
		a0, a1, b0, b1, pa, pb = b0, b1, a0, a1, pb, pa
	}
	return a0, a1, b0, b1, pa<<32 | pb<<16 | uint64(p.Proto), aToB
}

// Hash returns the partition hash of the canonical bidirectional
// 5-tuple. Both directions of a flow map to the same FlowKey (see KeyOf)
// and therefore to the same hash, which is what makes the hash usable as
// a shard key: every packet of a flow lands on the same shard, so flow
// assembly never splits across workers. No format carries it: it only
// picks a shard or worker inside one process.
func (k FlowKey) Hash() uint64 {
	a0, a1 := k.IPA.words()
	b0, b1 := k.IPB.words()
	return fold(&partitionKey, a0, a1, b0, b1, uint64(k.PortA)<<32|uint64(k.PortB)<<16|uint64(k.Proto))
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
// same flow, without building the key.
func (p *Packet) ShardKey() uint64 {
	a0, a1, b0, b1, pp, _ := p.tuple()
	return fold(&partitionKey, a0, a1, b0, b1, pp)
}
