package netflow

import (
	"cmp"
	"slices"
)

// The CICFlowMeter timeouts, in capture seconds: every training set is
// assembled with them and every serving engine assembles with them, so
// served flows featurize exactly like the flows the model learned from.
const (
	// CICIdleTimeout ends a flow when no packet arrives for this long.
	CICIdleTimeout = 120.0
	// CICActivityGap splits a flow's active periods when consecutive
	// packets are further apart than this.
	CICActivityGap = 1.0
)

// Assembler groups a time-ordered packet stream into bidirectional flows
// and evicts them when complete. Eviction happens on TCP termination
// (both FINs or a RST), on idle timeout, or on Flush.
//
// Every flow is delivered to onEvict exactly once, after the assembler
// has let go of it, so the callback may keep the *Flow and may call back
// into Add, EvictIdle or Flush. A packet it adds is assembled at once; a
// flow it evicts is skipped by the eviction pass that was under way.
type Assembler struct {
	// IdleTimeout ends a flow when no packet arrives for this many
	// seconds (default CICIdleTimeout).
	IdleTimeout float64
	// ActivityGap splits a flow's active periods when consecutive packets
	// are further apart than this many seconds (default CICActivityGap).
	// Active/idle statistics and subflow counts derive from it.
	ActivityGap float64

	table   flowTable
	onEvict func(*Flow)
	evicted int
	// victims is the eviction passes' scratch. A pass takes it and hands
	// it back when done, so a pass nested in its callback allocates its
	// own instead of overwriting the one being walked.
	victims []*Flow
}

// NewAssembler builds an assembler delivering completed flows to onEvict.
// Non-positive timeouts select CICIdleTimeout and CICActivityGap.
func NewAssembler(idleTimeout, activityGap float64, onEvict func(*Flow)) *Assembler {
	if idleTimeout <= 0 {
		idleTimeout = CICIdleTimeout
	}
	if activityGap <= 0 {
		activityGap = CICActivityGap
	}
	return &Assembler{
		IdleTimeout: idleTimeout,
		ActivityGap: activityGap,
		table:       newFlowTable(),
		onEvict:     onEvict,
	}
}

// Add folds one packet into its flow. Packets must arrive in time order:
// the flows that come out are defined either way, but a timestamp that
// runs backward costs a walk back over every flow seen since.
func (a *Assembler) Add(p *Packet) {
	f, h, aToB := a.table.lookup(p)
	if f == nil {
		f = newFlow(p)
		f.hash = h
		a.table.insert(f)
		return
	}
	if p.Time-f.LastTime > a.IdleTimeout {
		// The old flow expired; evict it and start fresh. Look the key
		// up again: the callback may have added a packet of this flow.
		a.evict(f)
		a.Add(p)
		return
	}
	last := f.LastTime
	f.update(p, aToB, a.ActivityGap)
	if f.terminated(p) {
		a.evict(f)
	} else if f.LastTime != last {
		a.table.touch(f)
	}
}

// EvictIdle evicts every flow idle at time now, oldest first (by first
// packet, 5-tuple tie-break). Call periodically when the stream has gaps
// (e.g. live capture). The cost is in the flows evicted, not the flows
// live: victims come off the head of the last-seen list.
func (a *Assembler) EvictIdle(now float64) {
	victims := a.takeVictims()
	for f := a.table.head; f != nil; f = f.next {
		if now-f.LastTime > a.IdleTimeout {
			victims = append(victims, f)
		} else if f.LastTime == f.LastTime {
			break // every flow behind a fresh one is fresh; a NaN says nothing
		}
	}
	a.evictOrdered(victims)
}

// Flush evicts all in-progress flows (end of capture), oldest first.
func (a *Assembler) Flush() {
	victims := a.takeVictims()
	for f := a.table.head; f != nil; f = f.next {
		victims = append(victims, f)
	}
	a.evictOrdered(victims)
}

func (a *Assembler) takeVictims() []*Flow {
	v := a.victims[:0]
	a.victims = nil
	return v
}

// evictOrdered delivers a batch of evictions in a deterministic order —
// by first-packet time, 5-tuple tie-break — whatever order the table or
// the list held them in. Downstream consumers depend on this: derived
// datasets get reproducible row order, end-of-capture alert order is
// stable across runs, and a sharded engine's drain is deterministic per
// shard. It then returns the scratch slice to the assembler.
func (a *Assembler) evictOrdered(victims []*Flow) {
	slices.SortFunc(victims, func(x, y *Flow) int {
		if c := cmp.Compare(x.FirstTime, y.FirstTime); c != 0 {
			return c
		}
		return x.Key.compare(&y.Key)
	})
	for _, f := range victims {
		if !f.evicted { // else an earlier victim's callback got to it first
			a.evict(f)
		}
	}
	clear(victims)
	a.victims = victims
}

// evict delivers f, by identity. The assembler is consistent and f is
// out of it before the callback runs.
func (a *Assembler) evict(f *Flow) {
	a.table.remove(f)
	f.evicted = true
	f.finish()
	a.evicted++
	if a.onEvict != nil {
		a.onEvict(f)
	}
}

// Active returns the number of in-progress flows.
func (a *Assembler) Active() int { return a.table.live }

// Evicted returns the number of flows completed so far.
func (a *Assembler) Evicted() int { return a.evicted }
