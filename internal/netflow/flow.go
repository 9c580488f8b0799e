package netflow

// Flow accumulates bidirectional per-flow statistics online, one packet at
// a time. The "forward" direction is the direction of the flow's first
// packet (the initiator), matching CICFlowMeter.
type Flow struct {
	Key FlowKey
	// The assembler's bookkeeping, next to Key so that a table probe and
	// a list move touch one cache line of a neighbouring flow: the table
	// hash of Key and the links of the last-seen list.
	hash       uint64
	prev, next *Flow
	// InitSrcIP/InitSrcPort identify the initiator (first packet source).
	InitSrcIP   Addr
	InitSrcPort uint16

	FirstTime, LastTime float64
	lastFwdTime         float64
	lastBwdTime         float64
	hasFwd, hasBwd      bool

	FwdLen, BwdLen Stats // per-direction packet lengths
	FlowIAT        Stats // inter-arrival over all packets
	FwdIAT, BwdIAT Stats

	FwdHeaderBytes, BwdHeaderBytes int
	FwdPSH, BwdPSH, FwdURG, BwdURG int
	FlagCounts                     [8]int // indexed by flag bit position

	InitFwdWin, InitBwdWin int
	fwdWinSet, bwdWinSet   bool
	FwdActDataPkts         int // forward packets with payload
	FwdSegSizeMin          int

	// Activity tracking: periods of activity separated by gaps longer
	// than the assembler's ActivityGap.
	Active, Idle Stats
	activeStart  float64

	// finSeen per canonical orientation (A→B, B→A) for eviction.
	finA, finB bool
	rstSeen    bool
	// evicted marks a flow already delivered to onEvict, so an eviction
	// pass whose callback re-entered the assembler skips it.
	evicted bool
}

// newFlow starts a flow from its first packet.
func newFlow(p *Packet) *Flow {
	key, aToB := KeyOf(p)
	f := &Flow{
		Key:         key,
		InitSrcIP:   p.SrcIP,
		InitSrcPort: p.SrcPort,
		FirstTime:   p.Time,
		LastTime:    p.Time,
		activeStart: p.Time,
	}
	f.FwdSegSizeMin = 1 << 30
	f.update(p, aToB, 0)
	return f
}

// isForward reports whether p travels in the initiator's direction.
func (f *Flow) isForward(p *Packet) bool {
	return p.SrcIP == f.InitSrcIP && p.SrcPort == f.InitSrcPort
}

// update folds packet p, travelling A→B in the key's orientation when
// aToB, into the flow. activityGap > 0 splits active/idle periods on gaps
// longer than the threshold.
func (f *Flow) update(p *Packet, aToB bool, activityGap float64) {
	fwd := f.isForward(p)
	if p.Time > f.LastTime {
		if p.Time != f.FirstTime {
			f.FlowIAT.Add(p.Time - f.LastTime)
		}
		if activityGap > 0 && p.Time-f.LastTime > activityGap {
			f.Active.Add(f.LastTime - f.activeStart)
			f.Idle.Add(p.Time - f.LastTime)
			f.activeStart = p.Time
		}
		f.LastTime = p.Time
	}
	payload := p.Length - p.HeaderLen
	if payload < 0 {
		payload = 0
	}
	if fwd {
		if f.hasFwd {
			f.FwdIAT.Add(p.Time - f.lastFwdTime)
		}
		f.lastFwdTime = p.Time
		f.hasFwd = true
		f.FwdLen.Add(float64(p.Length))
		f.FwdHeaderBytes += p.HeaderLen
		if p.Flags&PSH != 0 {
			f.FwdPSH++
		}
		if p.Flags&URG != 0 {
			f.FwdURG++
		}
		if !f.fwdWinSet && p.Proto == TCP {
			f.InitFwdWin = int(p.WindowSize)
			f.fwdWinSet = true
		}
		if payload > 0 {
			f.FwdActDataPkts++
		}
		if p.HeaderLen < f.FwdSegSizeMin {
			f.FwdSegSizeMin = p.HeaderLen
		}
	} else {
		if f.hasBwd {
			f.BwdIAT.Add(p.Time - f.lastBwdTime)
		}
		f.lastBwdTime = p.Time
		f.hasBwd = true
		f.BwdLen.Add(float64(p.Length))
		f.BwdHeaderBytes += p.HeaderLen
		if p.Flags&PSH != 0 {
			f.BwdPSH++
		}
		if p.Flags&URG != 0 {
			f.BwdURG++
		}
		if !f.bwdWinSet && p.Proto == TCP {
			f.InitBwdWin = int(p.WindowSize)
			f.bwdWinSet = true
		}
	}
	for bit := 0; bit < 8; bit++ {
		if p.Flags&(1<<bit) != 0 {
			f.FlagCounts[bit]++
		}
	}
	if p.Flags&FIN != 0 {
		if aToB {
			f.finA = true
		} else {
			f.finB = true
		}
	}
	if p.Flags&RST != 0 {
		f.rstSeen = true
	}
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

// finish closes the last active period so Active/Idle stats include it.
func (f *Flow) finish() {
	if f.LastTime > f.activeStart || f.Active.N == 0 {
		f.Active.Add(f.LastTime - f.activeStart)
	}
}

// Duration returns the flow duration in seconds.
func (f *Flow) Duration() float64 { return f.LastTime - f.FirstTime }

// TotalPackets returns the packet count over both directions.
func (f *Flow) TotalPackets() int { return f.FwdLen.N + f.BwdLen.N }

// TotalBytes returns the byte count over both directions.
func (f *Flow) TotalBytes() float64 { return f.FwdLen.Sum + f.BwdLen.Sum }
