package pipeline

import (
	"math"
	"sync"
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// This file is the overload control plane of the serving runtime: an
// admission gate in front of any Stream that keeps the detector live at
// saturation instead of letting one hot flow or tenant stall the world.
//
// The default remains lossless-blocking (OverloadLossless): no gate is
// installed, Feed blocks on full buffers, and replay determinism is
// bit-identical to the pre-overload runtime. OverloadBounded opts into
// bounded-latency ingress: admission waits at most MaxWait, every
// refused packet is dropped AND counted (the serving invariant is
// offered = admitted + dropped, pinned by the saturation tests), a
// load-shedding state machine driven by the verdict-latency histogram
// and ingress-buffer occupancy sheds would-be new flows before mid-flow
// packets, and per-tenant token buckets keyed off the bidirectional
// flow key make a single noisy source degrade alone.

// OverloadMode selects the ingress admission discipline of a serving
// run.
type OverloadMode uint8

const (
	// OverloadLossless is the default: Feed blocks when ingress buffers
	// fill and never drops. Bit-identical to the pre-overload serving
	// runtime — replay determinism is untouched, no gate is installed.
	OverloadLossless OverloadMode = iota
	// OverloadBounded bounds ingress latency instead of packet loss:
	// admission waits at most OverloadPolicy.MaxWait, refused packets
	// are dropped and counted into telemetry by reason, shedding is
	// flow-aware (new flows first), and per-tenant token buckets
	// isolate noisy sources.
	OverloadBounded
)

// String names the mode the way the -overload flag spells it.
func (m OverloadMode) String() string {
	if m == OverloadBounded {
		return "bounded"
	}
	return "lossless"
}

// OverloadState is the gate's load-shedding state: admission tightens
// as the engine falls behind and relaxes one step per evaluation as it
// recovers.
type OverloadState int32

const (
	// OverloadNormal admits everything within the MaxWait bound.
	OverloadNormal OverloadState = iota
	// OverloadPressured still admits everything, but signals that
	// occupancy or verdict latency has crossed the pressure threshold —
	// one evaluation away from shedding.
	OverloadPressured
	// OverloadShedding refuses packets that would start new flows
	// (DropNewFlowShed) so already-assembled flows finish featurizing;
	// mid-flow packets still admit within the MaxWait bound.
	OverloadShedding
)

// String names the state the way telemetry labels it.
func (s OverloadState) String() string {
	if int(s) < len(telemetry.OverloadStateNames) {
		return telemetry.OverloadStateNames[s]
	}
	return "unknown"
}

// Overload policy defaults, exported so flags and docs quote one source.
const (
	// DefaultMaxWait bounds one packet's admission wait in bounded mode.
	DefaultMaxWait = time.Millisecond
	// DefaultLatencyBound is the capture-seconds p99 verdict-latency
	// target that drives the state machine.
	DefaultLatencyBound = 1.0
	// DefaultPressureOccupancy is the ingress-buffer fill fraction that
	// enters the pressured state. The synchronous Engine has no ingress
	// buffer; its gate is driven by latency and tenant buckets alone.
	DefaultPressureOccupancy = 0.5
	// DefaultShedOccupancy is the ingress-buffer fill fraction that
	// enters the shedding state.
	DefaultShedOccupancy = 0.9
	// DefaultEvalEvery is the state-machine evaluation cadence in
	// offered packets.
	DefaultEvalEvery = 256
	// DefaultFlowIdle is how long (capture seconds) after its last
	// packet the gate remembers an admitted flow for shed preference —
	// the assembler's idle timeout, so the gate's notion of "already
	// assembled" tracks the engine's.
	DefaultFlowIdle = netflow.CICIdleTimeout
)

// OverloadPolicy configures the admission gate. The zero value is the
// lossless default (no gate); set Mode to OverloadBounded to opt in.
// Every other field has a working default, resolved at gate build; the
// occupancy thresholds and the flow memory are the constants
// DefaultPressureOccupancy, DefaultShedOccupancy and DefaultFlowIdle.
// Tenants are the /24 (IPv4) or /48 (IPv6) source prefixes of the
// canonical flow key (netflow.FlowKey.Tenant), so both directions of a
// flow bill one tenant.
type OverloadPolicy struct {
	// Mode selects lossless-blocking (default) or bounded-latency
	// admission.
	Mode OverloadMode
	// MaxWait bounds one packet's admission wait in bounded mode
	// (default DefaultMaxWait; negative admits non-blocking only).
	MaxWait time.Duration
	// LatencyBound is the capture-seconds p99 verdict-latency target:
	// when the histogram's p99 since the last evaluation exceeds it the
	// gate sheds, and above half of it the gate pressures (default
	// DefaultLatencyBound).
	LatencyBound float64
	// TenantRate caps each tenant at this many packets per capture
	// second through a token bucket of depth max(2×TenantRate, 8) — the
	// burst a tenant may spend ahead of its rate (0 disables tenant
	// policing). Refill follows the capture clock, so replays police
	// deterministically at any drain speed.
	TenantRate float64
	// EvalEvery is the state-machine evaluation cadence in offered
	// packets (default DefaultEvalEvery).
	EvalEvery int
}

// withDefaults resolves every unset policy field.
func (p OverloadPolicy) withDefaults() OverloadPolicy {
	if p.MaxWait == 0 {
		p.MaxWait = DefaultMaxWait
	}
	if p.LatencyBound <= 0 {
		p.LatencyBound = DefaultLatencyBound
	}
	if p.EvalEvery <= 0 {
		p.EvalEvery = DefaultEvalEvery
	}
	return p
}

// occupier is the queue-pressure probe the concurrent engines expose:
// current fill and capacity of the (fullest) ingress buffer.
type occupier interface{ occupancy() (int, int) }

// tokenBucket is one tenant's admission budget on the capture clock.
type tokenBucket struct {
	tokens float64 // whole-packet budget remaining
	last   float64 // capture time of the last refill
}

// take refills by capture time and spends one token if available.
func (b *tokenBucket) take(now, rate, burst float64) bool {
	if now > b.last {
		b.tokens = min(b.tokens+(now-b.last)*rate, burst)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Gate is the admission-controlled ingress of a Stream: it implements
// Stream itself, delegating everything but Feed/FeedWithin to
// the wrapped engine and applying the bounded-overload policy on the
// way in. Drops count into the wrapped engine's telemetry collector
// (cyberhd_packets_dropped_total{reason=...}), so one snapshot carries
// both sides of the accounting invariant offered = Packets + ΣDropped.
//
// Like the engines it wraps, a Gate expects packets from one goroutine
// in capture-time order; its internal state is nonetheless mutex-held,
// so a misbehaving second feeder corrupts nothing.
type Gate struct {
	inner  Stream
	pol    OverloadPolicy
	burst  float64 // tenant bucket depth: max(2×TenantRate, 8)
	tel    *telemetry.Collector
	ownTel bool     // tel is gate-private (wrapped stream exposes none)
	occ    occupier // nil when the wrapped stream has no ingress buffer

	mu      sync.Mutex
	state   OverloadState
	now     float64                     // newest capture timestamp seen
	flows   map[netflow.FlowKey]float64 // admitted flows → last-seen capture time
	buckets map[uint64]*tokenBucket     // tenant → budget
	offered int                         // packets since the last state evaluation
	evals   int                         // evaluations since the last idle sweep
	lastLat [telemetry.NumLatencyBuckets]int64
}

// NewGate wraps inner in a bounded-overload admission gate with the
// given policy (fields resolved to their defaults; Mode is forced to
// OverloadBounded — a lossless run simply does not install a gate).
// The gate shares inner's telemetry collector; when the wrapped stream
// exposes none (a cluster ingest client, say) the gate keeps a private
// collector so drops still count, and folds them into Stats. Per-tenant
// drops are labeled by their prefix in CIDR form (netflow.TenantLabel).
func NewGate(inner Stream, pol OverloadPolicy) *Gate {
	pol.Mode = OverloadBounded
	g := &Gate{
		inner:   inner,
		pol:     pol.withDefaults(),
		burst:   max(2*pol.TenantRate, 8),
		tel:     inner.Telemetry(),
		flows:   make(map[netflow.FlowKey]float64),
		buckets: make(map[uint64]*tokenBucket),
	}
	if g.tel == nil {
		g.tel = telemetry.New(nil)
		g.ownTel = true
	}
	g.tel.SetTenantLabeler(netflow.TenantLabel)
	if o, ok := inner.(occupier); ok {
		g.occ = o
	}
	g.tel.LatencyCountsInto(&g.lastLat)
	return g
}

// Feed offers one packet to the admission policy: it is either fed to
// the wrapped stream within the MaxWait bound or dropped and counted.
// Unlike the lossless engines' Feed, it never blocks past MaxWait.
func (g *Gate) Feed(p netflow.Packet) { g.admit(p, g.pol.MaxWait) }

// FeedWithin offers one packet with an explicit admission wait bound in
// place of the policy's MaxWait: policy applies, and a non-positive wait
// makes a full buffer refuse immediately.
func (g *Gate) FeedWithin(p netflow.Packet, wait time.Duration) bool { return g.admit(p, wait) }

// admit runs the admission policy for one packet: tenant bucket, state
// evaluation, flow-aware shedding, then bounded-wait delivery. Returns
// whether the packet reached the wrapped stream; every false return has
// been counted into telemetry.
func (g *Gate) admit(p netflow.Packet, wait time.Duration) bool {
	g.mu.Lock()
	at := p.Time // a NaN or ±Inf packet time reads as the gate's clock
	if !finite(at) {
		at = g.now
	}
	g.now = max(g.now, at)
	// Evaluate the state machine on its packet cadence before deciding
	// this packet, so the first packet past a threshold already sees the
	// tightened state.
	g.offered++
	if g.offered >= g.pol.EvalEvery {
		g.evaluate()
	}
	flowKey, _ := netflow.KeyOf(&p)
	tenant := flowKey.Tenant()
	if g.pol.TenantRate > 0 {
		b := g.buckets[tenant]
		if b == nil {
			b = &tokenBucket{tokens: g.burst, last: at}
			g.buckets[tenant] = b
		}
		if !b.take(at, g.pol.TenantRate, g.burst) {
			g.drop(tenant, telemetry.DropTenantRate)
			g.mu.Unlock()
			return false
		}
	}
	last, known := g.flows[flowKey]
	if known && g.now-last > DefaultFlowIdle {
		known = false // the engine's assembler will treat this as a new flow too
	}
	if g.state == OverloadShedding && !known {
		g.drop(tenant, telemetry.DropNewFlowShed)
		g.mu.Unlock()
		return false
	}
	g.mu.Unlock()

	// Deliver outside the gate lock: only the admission wait may block,
	// never another feeder's bookkeeping.
	ok := g.inner.FeedWithin(p, wait)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !ok {
		g.drop(tenant, telemetry.DropBackpressure)
		return false
	}
	g.flows[flowKey] = at
	return true
}

// drop counts one refused packet — the reason total plus the per-tenant
// attribution, so every shed packet is billable to the tenant that
// offered it. Caller holds the gate lock.
func (g *Gate) drop(tenant uint64, r telemetry.DropReason) {
	g.tel.AddDropped(r, 1)
	g.tel.AddDroppedTenant(tenant, 1)
}

// evaluate advances the state machine from its two signals — ingress
// occupancy and the verdict-latency histogram delta since the last
// evaluation — and sweeps idle flow/bucket state periodically. Onset is
// immediate (normal can jump straight to shedding); recovery relaxes
// one state per evaluation so admission reopens gradually instead of
// flapping. Caller holds the gate lock.
func (g *Gate) evaluate() {
	g.offered = 0
	occ := 0.0
	if g.occ != nil {
		if n, c := g.occ.occupancy(); c > 0 {
			occ = float64(n) / float64(c)
		}
	}
	var cur [telemetry.NumLatencyBuckets]int64
	g.tel.LatencyCountsInto(&cur)
	p99, observed := p99Since(&g.lastLat, &cur)
	g.lastLat = cur

	target := OverloadNormal
	switch {
	case occ >= DefaultShedOccupancy || (observed > 0 && p99 > g.pol.LatencyBound):
		target = OverloadShedding
	case occ >= DefaultPressureOccupancy || (observed > 0 && p99 > g.pol.LatencyBound/2):
		target = OverloadPressured
	}
	switch {
	case target > g.state:
		g.setState(target)
	case target < g.state:
		g.setState(g.state - 1)
	}

	g.evals++
	if g.evals >= 64 || len(g.flows) > 1<<16 {
		g.evals = 0
		for k, last := range g.flows {
			if g.now-last > DefaultFlowIdle {
				delete(g.flows, k)
			}
		}
		for k, b := range g.buckets {
			if g.now-b.last > DefaultFlowIdle {
				delete(g.buckets, k)
			}
		}
	}
}

// setState records a state change into telemetry: the gauge the scrape
// surfaces read live, plus the per-state transition counter
// (cyberhd_overload_transitions_total{state=...}) so brief shedding
// episodes stay observable after the gauge recovers. Caller holds the
// lock; setState is only called on an actual change, so transitions
// count state entries, not evaluations.
func (g *Gate) setState(s OverloadState) {
	g.state = s
	g.tel.SetOverloadState(int32(s))
	g.tel.OverloadTransition(int32(s))
}

// p99Since returns the 99th-percentile verdict latency (capture
// seconds) of the histogram observations between two cumulative bucket
// loads, and how many observations that window held. Observations in
// the +Inf bucket report as +Inf via math.Inf, which exceeds any bound.
func p99Since(prev, cur *[telemetry.NumLatencyBuckets]int64) (float64, int64) {
	var delta [telemetry.NumLatencyBuckets]int64
	var total int64
	for i := range cur {
		delta[i] = cur[i] - prev[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	target := (total*99 + 99) / 100 // ceil(0.99 × total)
	var cum int64
	for i, n := range delta {
		cum += n
		if cum >= target {
			if i < len(telemetry.LatencyBuckets) {
				return telemetry.LatencyBuckets[i], total
			}
			return math.Inf(1), total
		}
	}
	return math.Inf(1), total
}

// Tick forwards the idle-eviction tick and advances the gate's capture
// clock so flow shed preference expires with the engine's flows.
func (g *Gate) Tick(now float64) {
	g.mu.Lock()
	if now > g.now && finite(now) {
		g.now = now
	}
	g.mu.Unlock()
	g.inner.Tick(now)
}

// Flush forwards the end-of-capture flush.
func (g *Gate) Flush() { g.inner.Flush() }

// Close drains and retires the wrapped stream.
func (g *Gate) Close() { g.inner.Close() }

// Stats reads the wrapped stream's counters (drops included — gate and
// engine share one collector; a gate-private collector's drops are
// folded in).
func (g *Gate) Stats() Stats {
	st := g.inner.Stats()
	if g.ownTel {
		for i, v := range g.tel.Snapshot().Dropped {
			st.Dropped[i] += int(v)
		}
	}
	return st
}

// Telemetry returns the shared collector.
func (g *Gate) Telemetry() *telemetry.Collector { return g.tel }
