package netflow

import (
	"encoding/binary"
	"math/rand/v2"
)

// flowTable indexes the live flows of one Assembler two ways.
//
// By key: open addressing with linear probing over slots, whose length
// is a power of two and at least twice the live count, so a probe always
// ends at an empty slot. The hash is seeded per table from a random
// source, like the built-in map's: a sender who picks 5-tuples cannot aim
// them at one probe run. It is kept on the Flow, never leaves the table
// and orders no output. FlowKey.Hash, the partition function, is the
// same fold under public words (see fold). Removal shifts the rest of the
// run back over the hole, so there are no tombstones and an emptied table
// probes like a new one. The table never shrinks (nor did the map).
//
// By last-seen time: two intrusive lists, one of the flows that have seen
// no backward packet and one of the flows that have, because the two
// time out differently. Each runs head to tail in non-decreasing LastTime
// (flows whose LastTime is NaN, which compares with nothing, collect at
// the head). Idle eviction reads victims off each head and stops at the
// first flow still fresh; nothing walks the slots.
type flowTable struct {
	slots      []*Flow
	live       int
	seed       [4]uint64
	head, tail [numLists]*Flow
}

// The last-seen lists, indexed by Flow.list.
const (
	noReply = iota // no backward packet yet
	replied        // at least one backward packet
	numLists
)

// minSlots is the table's first allocation.
const minSlots = 64

func newFlowTable() flowTable {
	return flowTable{
		slots: make([]*Flow, minSlots),
		seed:  [4]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64(), rand.Uint64()},
	}
}

// lookup finds p's flow without building its key. It returns the live
// flow or nil, the table hash of p's key (to keep on a new flow), and
// whether p travels A→B. The hash is the partition hash's fold under the
// table's secret words, so no input of the sender's choosing zeroes a
// product, and it shares nothing with the shard p was routed by.
func (t *flowTable) lookup(p *Packet) (f *Flow, h uint64, aToB bool) {
	a0, a1, b0, b1, pp, aToB := p.tuple()
	h = fold(&t.seed, a0, a1, b0, b1, pp)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		f = t.slots[i]
		if f == nil {
			return
		}
		if k := &f.Key; f.hash == h &&
			binary.BigEndian.Uint64(k.IPA[8:]) == a1 && binary.BigEndian.Uint64(k.IPB[8:]) == b1 &&
			uint64(k.PortA)<<32|uint64(k.PortB)<<16|uint64(k.Proto) == pp &&
			binary.BigEndian.Uint64(k.IPA[:8]) == a0 && binary.BigEndian.Uint64(k.IPB[:8]) == b0 {
			return
		}
	}
}

// insert adds f, whose hash is set and whose key is not in the table.
func (t *flowTable) insert(f *Flow) {
	if 2*(t.live+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*Flow, 2*len(old))
		for _, g := range old {
			if g != nil {
				t.place(g)
			}
		}
	}
	t.place(f)
	t.live++
	t.link(f)
}

// place puts f in the first empty slot of its probe run.
func (t *flowTable) place(f *Flow) {
	mask := uint64(len(t.slots) - 1)
	i := f.hash & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = f
}

// remove takes f, found by identity, out of the table and its list.
func (t *flowTable) remove(f *Flow) {
	mask := uint64(len(t.slots) - 1)
	i := f.hash & mask
	for t.slots[i] != f {
		i = (i + 1) & mask
	}
	// Close the hole at i: a later flow g of the run, at j, moves back
	// into it unless its home slot lies in (i, j] — moving it before its
	// home would take it off its own probe path.
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		g := t.slots[j]
		if (j-g.hash)&mask >= (j-i)&mask {
			t.slots[i] = g
			i = j
		}
	}
	t.slots[i] = nil
	t.live--
	t.unlink(f)
}

// link threads f, on no list, into list f.list at its place in LastTime
// order, walking back from the tail: one step for a packet stream in time
// order, as many as there are later-seen flows on that list for a
// timestamp that runs backward. The walk stops at a NaN, so a timed flow
// never passes the NaNs at the head; a NaN flow passes every timed one.
func (t *flowTable) link(f *Flow) {
	at := t.tail[f.list]
	for at != nil && at.LastTime == at.LastTime && !(at.LastTime <= f.LastTime) {
		at = at.prev
	}
	f.prev = at
	if at == nil {
		f.next, t.head[f.list] = t.head[f.list], f
	} else {
		f.next, at.next = at.next, f
	}
	if f.next == nil {
		t.tail[f.list] = f
	} else {
		f.next.prev = f
	}
}

// unlink takes f off its list and clears its links: an evicted flow
// outlives the table in its consumers' hands and must not pin its old
// neighbours.
func (t *flowTable) unlink(f *Flow) {
	if f.prev == nil {
		t.head[f.list] = f.next
	} else {
		f.prev.next = f.next
	}
	if f.next == nil {
		t.tail[f.list] = f.prev
	} else {
		f.next.prev = f.prev
	}
	f.prev, f.next = nil, nil
}

// touch restores list order after f.LastTime grew.
func (t *flowTable) touch(f *Flow) {
	if f.next != nil {
		t.unlink(f)
		t.link(f)
	}
}

// reply moves f, whose first backward packet has just been folded in,
// from the no-reply list to its place on the replied list.
func (t *flowTable) reply(f *Flow) {
	t.unlink(f)
	f.list = replied
	t.link(f)
}
