package pipeline

import (
	"fmt"
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
	// matching the assembler's CIC idle timeout, so the gate's notion of
	// "already assembled" tracks the engine's.
	DefaultFlowIdle = 120.0
	// DefaultTenantBits is the IPv4 subnet prefix length of the default
	// tenant key (netflow.Packet.TenantPrefixKey).
	DefaultTenantBits = 24
	// DefaultTenantBitsV6 is the IPv6 prefix length of the default
	// tenant key: /48, the conventional site-assignment boundary.
	DefaultTenantBitsV6 = 48
)

// OverloadPolicy configures the admission gate. The zero value is the
// lossless default (no gate); set Mode to OverloadBounded to opt in.
// Every other field has a working default, resolved at gate build; the
// occupancy thresholds and the flow memory are the constants
// DefaultPressureOccupancy, DefaultShedOccupancy and DefaultFlowIdle.
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
	// second through a token bucket (0 disables tenant policing).
	// Refill follows the capture clock, so replays police
	// deterministically at any drain speed.
	TenantRate float64
	// TenantBurst is the bucket depth in packets (default 2×TenantRate,
	// at least 8): the burst a tenant may spend ahead of its rate.
	TenantBurst float64
	// TenantKey maps a packet to its tenant bucket. The default keys by
	// the /DefaultTenantBits subnet of the canonical flow key
	// (netflow.Packet.TenantKey), so both directions of a flow bill the
	// same tenant.
	TenantKey func(*netflow.Packet) uint64
	// EvalEvery is the state-machine evaluation cadence in offered
	// packets (default DefaultEvalEvery).
	EvalEvery int
	// OnDrop, when set, observes every refused packet with its reason.
	// It runs on the feeding goroutine under the gate lock — keep it
	// fast, and never call back into the gate or its stream.
	OnDrop func(netflow.Packet, telemetry.DropReason)
}

// withDefaults resolves every unset policy field.
func (p OverloadPolicy) withDefaults() OverloadPolicy {
	if p.MaxWait == 0 {
		p.MaxWait = DefaultMaxWait
	}
	if p.LatencyBound <= 0 {
		p.LatencyBound = DefaultLatencyBound
	}
	if p.TenantBurst <= 0 {
		p.TenantBurst = 2 * p.TenantRate
		if p.TenantBurst < 8 {
			p.TenantBurst = 8
		}
	}
	if p.TenantKey == nil {
		p.TenantKey = func(pkt *netflow.Packet) uint64 {
			return pkt.TenantPrefixKey(DefaultTenantBits, DefaultTenantBitsV6)
		}
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
		b.tokens += (now - b.last) * rate
		if b.tokens > burst {
			b.tokens = burst
		}
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
	tel    *telemetry.Collector
	ownTel bool     // tel is gate-private (wrapped stream exposes none)
	occ    occupier // nil when the wrapped stream has no ingress buffer

	// labelMu guards labels, the bounded v6 tenant-key → CIDR registry
	// behind the default tenant labeler. The default v6 key is a prefix
	// hash (not invertible), so the drop path records each shedding
	// tenant's "2001:db8:aaaa::/48"-style label as it first appears.
	labelMu sync.RWMutex
	labels  map[uint64]string

	mu      sync.Mutex
	state   OverloadState
	now     float64                     // newest capture timestamp seen
	flows   map[netflow.FlowKey]float64 // admitted flows → last-seen capture time
	buckets map[uint64]*tokenBucket     // tenant → budget
	offered int                         // packets since the last state evaluation
	evals   int                         // evaluations since the last idle sweep
	lastLat [telemetry.NumLatencyBuckets]int64
}

// Gate implements the full Stream contract.
var _ Stream = (*Gate)(nil)

// NewGate wraps inner in a bounded-overload admission gate with the
// given policy (fields resolved to their defaults; Mode is forced to
// OverloadBounded — a lossless run simply does not install a gate).
// The gate shares inner's telemetry collector; when the wrapped stream
// exposes none (a cluster ingest client, say) the gate keeps a private
// collector so drops still count, and folds them into Stats.
func NewGate(inner Stream, pol OverloadPolicy) *Gate {
	pol.Mode = OverloadBounded
	defaultTenantKey := pol.TenantKey == nil
	pol = pol.withDefaults()
	g := &Gate{
		inner:   inner,
		pol:     pol,
		tel:     inner.Telemetry(),
		flows:   make(map[netflow.FlowKey]float64),
		buckets: make(map[uint64]*tokenBucket),
	}
	if g.tel == nil {
		g.tel = telemetry.New(nil)
		g.ownTel = true
	}
	if defaultTenantKey {
		// The default key is the /DefaultTenantBits (v4) or
		// /DefaultTenantBitsV6 (v6) source prefix of the canonical flow
		// endpoint — label the per-tenant drop metric in CIDR form
		// instead of a bare integer. IPv4 prefixes invert from the key
		// directly; IPv6 keys are prefix hashes, resolved through the
		// registry the drop path populates. Custom keys keep the decimal
		// default (or install their own via SetTenantLabeler).
		g.labels = make(map[uint64]string)
		g.tel.SetTenantLabeler(func(key uint64) string {
			if key < 1<<32 {
				ip := uint32(key) << (32 - DefaultTenantBits)
				return fmt.Sprintf("%d.%d.%d.%d/%d",
					byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip), DefaultTenantBits)
			}
			g.labelMu.RLock()
			label, ok := g.labels[key]
			g.labelMu.RUnlock()
			if ok {
				return label
			}
			return fmt.Sprintf("v6:%x", key)
		})
	}
	if o, ok := inner.(occupier); ok {
		g.occ = o
	}
	g.tel.LatencyCountsInto(&g.lastLat)
	return g
}

// maxTenantLabels bounds the gate's v6 tenant-label registry; tenants
// past the bound label by key hash (the drop counts stay exact).
const maxTenantLabels = 1024

// recordTenantLabel resolves and remembers the CIDR label of a dropped
// v6 packet's default tenant key.
func (g *Gate) recordTenantLabel(p *netflow.Packet, key uint64) {
	g.labelMu.RLock()
	_, ok := g.labels[key]
	full := len(g.labels) >= maxTenantLabels
	g.labelMu.RUnlock()
	if ok || full {
		return
	}
	k, _ := netflow.KeyOf(p)
	label := v6PrefixLabel(k.IPA, DefaultTenantBitsV6)
	g.labelMu.Lock()
	if len(g.labels) < maxTenantLabels {
		g.labels[key] = label
	}
	g.labelMu.Unlock()
}

// v6PrefixLabel renders the /bits prefix of a as a CIDR label.
func v6PrefixLabel(a netflow.Addr, bits int) string {
	masked := a
	full, rem := bits/8, bits%8
	for i := full; i < 16; i++ {
		if i == full && rem > 0 {
			masked[i] &= 0xff << (8 - rem)
			continue
		}
		masked[i] = 0
	}
	if masked == (netflow.Addr{}) {
		return fmt.Sprintf("::/%d", bits)
	}
	return fmt.Sprintf("%s/%d", masked.String(), bits)
}

// State returns the gate's current load-shedding state.
func (g *Gate) State() OverloadState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
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
	if p.Time > g.now {
		g.now = p.Time
	}
	// Evaluate the state machine on its packet cadence before deciding
	// this packet, so the first packet past a threshold already sees the
	// tightened state.
	g.offered++
	if g.offered >= g.pol.EvalEvery {
		g.evaluate()
	}
	if g.pol.TenantRate > 0 {
		key := g.pol.TenantKey(&p)
		b := g.buckets[key]
		if b == nil {
			b = &tokenBucket{tokens: g.pol.TenantBurst, last: p.Time}
			g.buckets[key] = b
		}
		if !b.take(p.Time, g.pol.TenantRate, g.pol.TenantBurst) {
			g.drop(p, telemetry.DropTenantRate)
			g.mu.Unlock()
			return false
		}
	}
	flowKey, _ := netflow.KeyOf(&p)
	last, known := g.flows[flowKey]
	if known && g.now-last > DefaultFlowIdle {
		known = false // the engine's assembler will treat this as a new flow too
	}
	if g.state == OverloadShedding && !known {
		g.drop(p, telemetry.DropNewFlowShed)
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
		g.drop(p, telemetry.DropBackpressure)
		return false
	}
	g.flows[flowKey] = p.Time
	return true
}

// drop counts one refused packet — the reason total plus the per-tenant
// attribution, so every shed packet is billable to the tenant that
// offered it. Caller holds the gate lock.
func (g *Gate) drop(p netflow.Packet, r telemetry.DropReason) {
	key := g.pol.TenantKey(&p)
	g.tel.AddDropped(r, 1)
	g.tel.AddDroppedTenant(key, 1)
	if g.labels != nil && key >= 1<<32 {
		g.recordTenantLabel(&p, key)
	}
	if g.pol.OnDrop != nil {
		g.pol.OnDrop(p, r)
	}
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
	if now > g.now {
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

// Feedback forwards one labeled flow to the wrapped stream's model.
func (g *Gate) Feedback(f *netflow.Flow, label int) bool { return g.inner.Feedback(f, label) }
