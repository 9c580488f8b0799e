package netflow

import (
	"fmt"
	"sort"
)

// This file opens the assembler to the external test package (which,
// unlike this one, can import internal/traffic): the assembler the
// package had before the flow table, kept as the reference the
// differential tests compare against, and hooks on the table's
// unexported seed, hash and invariants.

// RefAssembler is the reference: a map keyed by FlowKey, a walk over
// every live flow per EvictIdle, sort.Slice over the victims, and each
// flow's timeout read off its backward packet count.
type RefAssembler struct {
	idleTimeout, activityGap float64
	flows                    map[FlowKey]*Flow
	onEvict                  func(*Flow)
	evicted                  int
}

// newFlow starts a flow from its first packet, as the reference does.
func newFlow(p *Packet) *Flow {
	f := new(Flow)
	f.start(p)
	return f
}

// NewRefAssembler mirrors NewAssembler, defaults aside.
func NewRefAssembler(idleTimeout, activityGap float64, onEvict func(*Flow)) *RefAssembler {
	return &RefAssembler{idleTimeout: idleTimeout, activityGap: activityGap,
		flows: make(map[FlowKey]*Flow), onEvict: onEvict}
}

func (a *RefAssembler) Add(p *Packet) {
	key, aToB := KeyOf(p)
	f, ok := a.flows[key]
	if ok && p.Time-f.LastTime > a.timeout(f) {
		a.evict(f)
		ok = false
	}
	if !ok {
		a.flows[key] = newFlow(p)
		return
	}
	f.update(p, aToB, a.activityGap)
	if f.terminated(p) {
		a.evict(f)
	}
}

// timeout is the idle timeout, or NoReplyTimeout if that is shorter and
// f has no backward packet.
func (a *RefAssembler) timeout(f *Flow) float64 {
	if f.BwdLen.N == 0 && NoReplyTimeout < a.idleTimeout {
		return NoReplyTimeout
	}
	return a.idleTimeout
}

func (a *RefAssembler) EvictIdle(now float64) {
	var victims []*Flow
	for _, f := range a.flows {
		if now-f.LastTime > a.timeout(f) {
			victims = append(victims, f)
		}
	}
	a.evictOrdered(victims)
}

func (a *RefAssembler) Flush() {
	var victims []*Flow
	for _, f := range a.flows {
		victims = append(victims, f)
	}
	a.evictOrdered(victims)
}

func (a *RefAssembler) evictOrdered(victims []*Flow) {
	sort.Slice(victims, func(i, j int) bool {
		x, y := victims[i], victims[j]
		if xn, yn := x.FirstTime != x.FirstTime, y.FirstTime != y.FirstTime; xn || yn {
			if xn != yn {
				return xn // NaN first times sort first
			}
		} else if x.FirstTime != y.FirstTime {
			return x.FirstTime < y.FirstTime
		}
		return x.Key.compare(&y.Key) < 0
	})
	for _, f := range victims {
		a.evict(f)
	}
}

func (a *RefAssembler) evict(f *Flow) {
	delete(a.flows, f.Key)
	f.finish()
	a.evicted++
	a.onEvict(f)
}

func (a *RefAssembler) Active() int  { return len(a.flows) }
func (a *RefAssembler) Evicted() int { return a.evicted }

// SetTableSeed replaces the random seed of an empty assembler's table.
// The zero seed is degenerate by construction: every product of the
// address stage has a zero multiplicand for IPv4 tuples, so keys that
// share ports and protocol share all 64 hash bits, whatever their
// addresses — the handle tests use to pile keys into one probe run.
func (a *Assembler) SetTableSeed(seed [4]uint64) {
	if a.table.live != 0 {
		panic("SetTableSeed on a table in use")
	}
	a.table.seed = seed
}

// TableHash returns the table hash of p's key under the current seed.
func (a *Assembler) TableHash(p *Packet) uint64 {
	_, h, _ := a.table.lookup(p)
	return h
}

// TableSlots returns the table's current slot count.
func (a *Assembler) TableSlots() int { return len(a.table.slots) }

// FreeFlows returns the number of recycled flows waiting for reuse.
func (a *Assembler) FreeFlows() int { return len(a.free) }

// CheckTable verifies the table and list invariants the assembler relies
// on: load at most one half, every live flow reachable from its home slot
// without crossing an empty one, and the two last-seen lists holding
// exactly the live flows between them, each flow on the list its backward
// packet count names, each list doubly linked, in non-decreasing
// LastTime behind any NaNs; and the free list no longer than the live
// count.
func (a *Assembler) CheckTable() error {
	t := &a.table
	mask := uint64(len(t.slots) - 1)
	if len(t.slots)&int(mask) != 0 || 2*t.live > len(t.slots) || len(a.free) > t.live {
		return fmt.Errorf("%d live flows in %d slots, %d free", t.live, len(t.slots), len(a.free))
	}
	n := 0
	for i, f := range t.slots {
		if f == nil {
			continue
		}
		n++
		if f.evicted {
			return fmt.Errorf("slot %d holds evicted flow %v", i, f.Key)
		}
		for j := f.hash & mask; j != uint64(i); j = (j + 1) & mask {
			if t.slots[j] == nil {
				return fmt.Errorf("flow %v at slot %d is cut off from its home %d by empty slot %d", f.Key, i, f.hash&mask, j)
			}
		}
	}
	if n != t.live {
		return fmt.Errorf("%d occupied slots, live = %d", n, t.live)
	}
	n = 0
	for l := range uint8(numLists) {
		var prev *Flow
		for f := t.head[l]; f != nil; prev, f = f, f.next {
			n++
			if n > t.live {
				return fmt.Errorf("lists longer than the %d live flows", t.live)
			}
			if f.prev != prev {
				return fmt.Errorf("flow %v: prev link does not match the flow before it", f.Key)
			}
			if f.list != l || (f.BwdLen.N > 0) != (l == replied) {
				return fmt.Errorf("flow %v with %d backward packets (list mark %d) is on list %d", f.Key, f.BwdLen.N, f.list, l)
			}
			if prev != nil && prev.LastTime == prev.LastTime && !(prev.LastTime <= f.LastTime) {
				return fmt.Errorf("list %d out of order: LastTime %v before %v", l, prev.LastTime, f.LastTime)
			}
		}
		if t.tail[l] != prev {
			return fmt.Errorf("list %d does not end at its tail", l)
		}
	}
	if n != t.live {
		return fmt.Errorf("lists hold %d flows, live = %d", n, t.live)
	}
	return nil
}
