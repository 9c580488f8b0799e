package netflow

import (
	"math"
	"math/bits"
)

// Flow accumulates bidirectional per-flow statistics online, one packet at
// a time. The "forward" direction is the direction of the flow's first
// packet (the initiator), matching CICFlowMeter.
//
// A Flow is 448 bytes, one allocation unless recycled; a flow that sees an
// activity gap adds one activity record. The packet counters are 32-bit
// and saturate at math.MaxUint32; below that every feature is exact.
type Flow struct {
	Key FlowKey
	// FIN seen per canonical orientation (A→B, B→A), in Key's padding.
	finA, finB bool
	// The assembler's bookkeeping, next to Key so that a table probe and
	// a list move touch one cache line of a neighbouring flow: the table
	// hash of Key and the links of its last-seen list.
	hash       uint64
	prev, next *Flow
	// InitSrcIP/InitSrcPort identify the initiator (first packet source).
	InitSrcIP   Addr
	InitSrcPort uint16
	rstSeen     bool
	// evicted marks a finished flow, so an eviction pass whose callback
	// re-entered the assembler skips it.
	evicted bool
	// list is the last-seen list the flow is on: noReply until its first
	// backward packet, replied from then on.
	list uint8

	FirstTime, LastTime float64
	lastFwdTime         float64
	lastBwdTime         float64

	FwdLen, BwdLen Stats // per-direction packet lengths
	FlowIAT        Stats // inter-arrival over all packets
	FwdIAT, BwdIAT Stats

	FwdHeaderBytes, BwdHeaderBytes int
	FwdPSH, BwdPSH, FwdURG, BwdURG uint32
	FlagCounts                     [8]uint32 // indexed by flag bit position

	InitFwdWin, InitBwdWin uint32
	FwdActDataPkts         uint32 // forward packets with payload
	FwdSegSizeMin          int32  // smallest forward header length

	activity *activity // nil until the first activity gap
}

// activity is a flow's periods of activity separated by gaps, allocated
// out of line because most flows never see a gap.
type activity struct {
	active, idle Stats
	start        float64 // start of the current active period
}

// start begins the flow at its first packet, over whatever f held.
func (f *Flow) start(p *Packet) {
	key, aToB := KeyOf(p)
	*f = Flow{
		Key:           key,
		InitSrcIP:     p.SrcIP,
		InitSrcPort:   p.SrcPort,
		FirstTime:     p.Time,
		LastTime:      p.Time,
		FwdSegSizeMin: 1 << 30,
	}
	f.update(p, aToB, 0)
}

// isForward reports whether p travels in the initiator's direction.
func (f *Flow) isForward(p *Packet) bool {
	return p.SrcIP == f.InitSrcIP && p.SrcPort == f.InitSrcPort
}

// inc adds one to a packet counter, saturating at math.MaxUint32.
func inc(c *uint32) {
	if *c != math.MaxUint32 {
		*c++
	}
}

// update folds packet p, travelling A→B in the key's orientation when
// aToB, into the flow. activityGap > 0 splits active/idle periods on gaps
// longer than the threshold. Every packet of a flow has the key's Proto,
// so the first packet of a direction decides its initial window.
func (f *Flow) update(p *Packet, aToB bool, activityGap float64) {
	if p.Time > f.LastTime {
		if p.Time != f.FirstTime {
			f.FlowIAT.Add(p.Time - f.LastTime)
		}
		if activityGap > 0 && p.Time-f.LastTime > activityGap {
			if f.activity == nil {
				f.activity = &activity{start: f.FirstTime}
			}
			a := f.activity
			a.active.Add(f.LastTime - a.start)
			a.idle.Add(p.Time - f.LastTime)
			a.start = p.Time
		}
		f.LastTime = p.Time
	}
	if f.isForward(p) {
		if f.FwdLen.N > 0 {
			f.FwdIAT.Add(p.Time - f.lastFwdTime)
		} else if p.Proto == TCP {
			f.InitFwdWin = uint32(p.WindowSize)
		}
		f.lastFwdTime = p.Time
		f.FwdLen.Add(float64(p.Length))
		f.FwdHeaderBytes += p.HeaderLen
		if p.Flags&PSH != 0 {
			inc(&f.FwdPSH)
		}
		if p.Flags&URG != 0 {
			inc(&f.FwdURG)
		}
		if p.Length > p.HeaderLen {
			inc(&f.FwdActDataPkts)
		}
		if p.HeaderLen < int(f.FwdSegSizeMin) {
			f.FwdSegSizeMin = int32(max(p.HeaderLen, math.MinInt32))
		}
	} else {
		if f.BwdLen.N > 0 {
			f.BwdIAT.Add(p.Time - f.lastBwdTime)
		} else if p.Proto == TCP {
			f.InitBwdWin = uint32(p.WindowSize)
		}
		f.lastBwdTime = p.Time
		f.BwdLen.Add(float64(p.Length))
		f.BwdHeaderBytes += p.HeaderLen
		if p.Flags&PSH != 0 {
			inc(&f.BwdPSH)
		}
		if p.Flags&URG != 0 {
			inc(&f.BwdURG)
		}
	}
	for fl := p.Flags; fl != 0; fl &= fl - 1 {
		inc(&f.FlagCounts[bits.TrailingZeros8(fl)])
	}
	fin := p.Flags&FIN != 0
	f.finA = f.finA || fin && aToB
	f.finB = f.finB || fin && !aToB
	f.rstSeen = f.rstSeen || p.Flags&RST != 0
}

// terminated reports whether the TCP state machine finished: a RST at any
// point, or — once both sides have sent FIN — the final pure-ACK that
// completes the close (so the last ACK is counted in this flow rather than
// orphaned into a new one).
func (f *Flow) terminated(p *Packet) bool {
	if f.rstSeen {
		return true
	}
	return f.finA && f.finB && p.Flags&FIN == 0 && p.Flags&ACK != 0
}

// finish marks the flow evicted and closes its last active period.
func (f *Flow) finish() {
	f.evicted = true
	if a := f.activity; a != nil && f.LastTime > a.start {
		a.active.Add(f.LastTime - a.start)
	}
}

// Activity returns the statistics of the flow's active periods and the
// idle gaps between them. The current period counts once the flow is
// finished; a finished flow without a gap has one, its duration.
func (f *Flow) Activity() (active, idle Stats) {
	if f.activity != nil {
		return f.activity.active, f.activity.idle
	}
	if f.evicted {
		active.Add(f.LastTime - f.FirstTime)
	}
	return active, idle
}

// Duration returns the flow duration in seconds.
func (f *Flow) Duration() float64 { return f.LastTime - f.FirstTime }

// TotalPackets returns the packet count over both directions.
func (f *Flow) TotalPackets() int { return f.FwdLen.N + f.BwdLen.N }

// TotalBytes returns the byte count over both directions.
func (f *Flow) TotalBytes() float64 { return f.FwdLen.Sum + f.BwdLen.Sum }
