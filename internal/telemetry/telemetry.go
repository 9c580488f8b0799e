// Package telemetry is the observability layer of the serving runtime:
// lock-free atomic counters for everything the engines process (packets,
// completed flows, per-class verdicts, alerts, suppressed alerts) plus a
// fixed-bucket histogram of capture-time verdict latency
// — the delay between a flow completing and its verdict being issued,
// which is exactly the batch/tick delay the micro-batching engines trade
// for throughput.
//
// One Collector is shared by an engine and everything observing it: every
// write is a single atomic add, so the hot per-flow path costs a handful
// of uncontended atomics and zero allocations (pinned by
// TestCollectorHotPathAllocFree), and Snapshot may be called from any
// goroutine at any time, including while packets are being fed.
//
// Consistency contract: individual counters are exact and monotonic, but
// a mid-run Snapshot is not a cross-counter transaction — it may observe
// a flow that has completed (Flows) whose verdict has not landed yet
// (ByClass), so mid-run Flows − ΣByClass is the number of verdicts
// pending in micro-batch buffers. Once the engine has drained (Close),
// every counter is settled and a Snapshot equals the engine's final
// Stats bit for bit.
package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the verdict-latency histogram's upper bounds in
// capture seconds, chosen around the serving runtime's latency sources:
// sub-tick micro-batch waits at the low end (default TickInterval is
// 1 s), unanswered flows at the 5 s no-reply timeout, and idle-eviction
// sweeps up to the CIC 120 s idle timeout at the top.
// An implicit +Inf bucket catches everything beyond the last bound.
var LatencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 15, 60, 120}

// NumLatencyBuckets is the number of histogram counters, including the
// implicit +Inf overflow bucket.
const NumLatencyBuckets = len(LatencyBuckets) + 1

// DropReason classifies one packet refused by the admission gate in
// bounded overload mode. Every drop is counted — the serving invariant
// is offered = admitted (Packets) + ΣDropped, pinned by the saturation
// tests — and each reason is a separate label of the
// cyberhd_packets_dropped_total counter.
type DropReason uint8

// Drop reasons, in telemetry counter order.
const (
	// DropBackpressure counts packets refused because the engine's
	// ingress buffer stayed full past the admission wait bound.
	DropBackpressure DropReason = iota
	// DropNewFlowShed counts packets refused in the shedding state
	// because they would have started a new flow — mid-flow packets of
	// already-admitted flows are always preferred.
	DropNewFlowShed
	// DropTenantRate counts packets refused by a per-tenant token
	// bucket, so one noisy source degrades alone.
	DropTenantRate
	// NumDropReasons is the number of distinct drop counters.
	NumDropReasons = iota
)

// DropReasonNames are the cyberhd_packets_dropped_total reason labels,
// indexed by DropReason.
var DropReasonNames = [NumDropReasons]string{"backpressure", "new_flow_shed", "tenant_rate"}

// String returns the counter label of the reason.
func (r DropReason) String() string {
	if int(r) < len(DropReasonNames) {
		return DropReasonNames[r]
	}
	return "unknown"
}

// OverloadStateNames label the overload-state gauge values: 0 normal,
// 1 pressured, 2 shedding (see pipeline.OverloadState).
var OverloadStateNames = [...]string{"normal", "pressured", "shedding"}

// Collector accumulates serving counters with lock-free atomics. Build
// one with New; the zero value is not usable (per-class counters are
// sized to the class list). All methods are safe from any goroutine.
type Collector struct {
	packets    atomic.Int64
	flows      atomic.Int64
	alerts     atomic.Int64
	suppressed atomic.Int64
	byClass    []atomic.Int64
	classes    []string

	// latency histogram: per-bucket counts (not cumulative), plus the
	// observation sum in capture microseconds so it can be an integer add.
	// The sum saturates at math.MaxInt64 instead of wrapping.
	latCounts   [NumLatencyBuckets]atomic.Int64
	latSumMicro atomic.Int64

	// overload admission counters: shed packets by reason, the gate's
	// current state (0 normal, 1 pressured, 2 shedding), and how many
	// times each state was entered (state transitions, so a brief
	// shedding episode is observable even after the gauge recovers).
	dropped             [NumDropReasons]atomic.Int64
	overloadState       atomic.Int32
	overloadTransitions [len(OverloadStateNames)]atomic.Int64

	// model control plane counters: where a snapshot reads the serving
	// model's COW publication version, shadow-scored flows and per-class
	// verdict divergence (indexed by the primary model's verdict class).
	modelVersion   atomic.Pointer[func() uint64]
	shadowFlows    atomic.Int64
	shadowDiverged []atomic.Int64

	// kernels is the dispatch report attached by the engine (atomic so a
	// late SetKernels cannot race a concurrent scrape).
	kernels atomic.Pointer[Kernels]

	// tenant drop attribution: a bounded-cardinality map from tenant key
	// to shed-packet count. Mutex-guarded rather than atomic — only the
	// drop path pays the lock, and dropping is already the slow path.
	tenantMu    sync.Mutex
	tenantDrops map[uint64]int64
	tenantOther int64 // drops beyond the MaxTenantDropKeys tracked keys
	tenantLabel func(uint64) string
}

// Kernels identifies which kernel implementations the running build+CPU
// selected — one path name per domain (e.g. "avx2", "popcnt-swar",
// "generic") — so benchmark numbers and live scrapes can always be
// attributed to a code path. Engines attach it via SetKernels; it rides
// along in every Snapshot and on the /stats and /metrics surfaces.
type Kernels struct {
	// Float is the float kernel path (hdc: encode and class panels).
	Float string `json:"float"`
	// Packed is the quantized kernel path (bitpack: packed dots,
	// quantization).
	Packed string `json:"packed"`
}

// SetKernels attaches the kernel dispatch report to the collector. Safe
// from any goroutine; last write wins.
func (c *Collector) SetKernels(k Kernels) { c.kernels.Store(&k) }

// New builds a collector for the given class names (the engine's verdict
// labels, copied).
func New(classes []string) *Collector {
	return &Collector{
		byClass:        make([]atomic.Int64, len(classes)),
		shadowDiverged: make([]atomic.Int64, len(classes)),
		classes:        append([]string(nil), classes...),
	}
}

// NumClasses returns the number of per-class verdict counters.
func (c *Collector) NumClasses() int { return len(c.byClass) }

// AddPackets counts n ingested packets.
func (c *Collector) AddPackets(n int) { c.packets.Add(int64(n)) }

// FlowCompleted counts one completed flow (handed to classification; its
// verdict may land later in batch mode).
func (c *Collector) FlowCompleted() { c.flows.Add(1) }

// Verdict records one classification: the per-class counter, the alert
// counter when the verdict is non-benign, and the capture-time latency
// between flow completion and this verdict. Out-of-range classes and
// non-finite latencies are ignored defensively; negative latencies clamp
// to zero (a tick timestamp may trail a packet already fed).
func (c *Collector) Verdict(class int, alert bool, latencySeconds float64) {
	if class >= 0 && class < len(c.byClass) {
		c.byClass[class].Add(1)
	}
	if alert {
		c.alerts.Add(1)
	}
	c.ObserveLatency(latencySeconds)
}

// ObserveLatency records one verdict-latency observation in capture
// seconds. NaN/Inf are dropped; negatives clamp to zero. The sum
// saturates: an observation or a total past math.MaxInt64 microseconds
// (capture timestamps are any float64) pins it there.
func (c *Collector) ObserveLatency(seconds float64) {
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	i := 0
	for i < len(LatencyBuckets) && seconds > LatencyBuckets[i] {
		i++
	}
	c.latCounts[i].Add(1)
	us := int64(math.MaxInt64)
	if v := seconds * 1e6; v < 1<<63 {
		us = int64(v)
	}
	if c.latSumMicro.Add(us) < 0 { // every term is non-negative: it wrapped
		c.latSumMicro.Store(math.MaxInt64)
	}
}

// AddDropped counts n packets refused by the admission gate for the
// given reason. Out-of-range reasons are ignored defensively.
func (c *Collector) AddDropped(r DropReason, n int) {
	if int(r) < NumDropReasons {
		c.dropped[r].Add(int64(n))
	}
}

// MaxTenantDropKeys caps how many distinct tenant keys the per-tenant
// drop breakdown tracks exactly; drops by keys beyond the cap accumulate
// into the "other" bucket so a key-churning flood cannot grow the map
// without bound.
const MaxTenantDropKeys = 1024

// TopTenantDrops is how many tenants a Snapshot (and with it /metrics and
// /stats) breaks out individually — the top-K by drop count; the rest
// fold into "other". Bounded cardinality is the contract: the exported
// label set never exceeds TopTenantDrops+1 series.
const TopTenantDrops = 16

// AddDroppedTenant attributes n admission-gate drops to the given tenant
// key (the same key the gate's per-tenant token buckets use). Call it
// alongside AddDropped — the reason counters stay the totals of record,
// this is the per-tenant breakdown of the same events.
func (c *Collector) AddDroppedTenant(key uint64, n int) {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	if c.tenantDrops == nil {
		c.tenantDrops = make(map[uint64]int64)
	}
	if _, ok := c.tenantDrops[key]; !ok && len(c.tenantDrops) >= MaxTenantDropKeys {
		c.tenantOther += int64(n)
		return
	}
	c.tenantDrops[key] += int64(n)
}

// SetTenantLabeler installs the function that renders a tenant key as its
// exported metric label (e.g. "10.1.2.0/24" for the default source-subnet
// keys). Without one, keys are labeled by their decimal value. Safe to
// call before serving starts; last write wins.
func (c *Collector) SetTenantLabeler(fn func(uint64) string) {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	c.tenantLabel = fn
}

// SetOverloadState publishes the admission gate's current state (an
// OverloadStateNames index). Safe from any goroutine; last write wins.
func (c *Collector) SetOverloadState(s int32) { c.overloadState.Store(s) }

// OverloadTransition counts one entry into the given admission-gate
// state (an OverloadStateNames index) — the event-level record behind
// the state gauge, so a shedding episode stays observable after
// recovery. Out-of-range states are ignored defensively.
func (c *Collector) OverloadTransition(s int32) {
	if s >= 0 && int(s) < len(c.overloadTransitions) {
		c.overloadTransitions[s].Add(1)
	}
}

// SetVersionSource registers where snapshots read the serving model's
// COW publication version: every Snapshot calls fn. Engines register
// their COWModel's Version at build, so hot reloads and shadow
// promotions move the gauge, and every collector on a shared model
// reports the live version. Safe from any goroutine; last write wins.
func (c *Collector) SetVersionSource(fn func() uint64) { c.modelVersion.Store(&fn) }

// ShadowVerdict records one shadow-model scoring of a flow: the
// shadow-flow counter, plus the per-class divergence counter (indexed by
// the primary model's verdict) when the two models disagreed.
// Out-of-range primary classes still count the flow, just not a class
// bucket — mirroring Verdict's defensive stance.
func (c *Collector) ShadowVerdict(primaryClass int, diverged bool) {
	if diverged && primaryClass >= 0 && primaryClass < len(c.shadowDiverged) {
		c.shadowDiverged[primaryClass].Add(1)
	}
	c.shadowFlows.Add(1)
}

// LatencyCountsInto loads the per-bucket verdict-latency counts into
// dst without allocating — the admission gate's state machine polls
// this on its evaluation cadence and diffs against the previous load.
func (c *Collector) LatencyCountsInto(dst *[NumLatencyBuckets]int64) {
	for i := range c.latCounts {
		dst[i] = c.latCounts[i].Load()
	}
}

// AddSuppressed counts n alerts dropped by rate limiting before reaching
// their sink.
func (c *Collector) AddSuppressed(n int) { c.suppressed.Add(int64(n)) }

// Snapshot is one point-in-time read of a Collector — see the package
// consistency contract for what a mid-run snapshot guarantees.
type Snapshot struct {
	// Packets counts packets fed to the engine.
	Packets int64
	// Flows counts completed flows handed to classification.
	Flows int64
	// Alerts counts non-benign verdicts.
	Alerts int64
	// Suppressed counts alerts dropped by rate limiting.
	Suppressed int64
	// Dropped counts packets refused by the admission gate, by reason
	// (indexed by DropReason). All zero in lossless mode.
	Dropped [NumDropReasons]int64
	// DroppedByTenant is the per-tenant breakdown of Dropped: the top
	// TopTenantDrops tenants by shed packets, most-dropped first (ties by
	// key). Empty in lossless mode.
	DroppedByTenant []TenantDrops
	// DroppedByTenantOther counts drops not broken out in
	// DroppedByTenant — tenants beyond the top-K plus everything past the
	// MaxTenantDropKeys tracking cap. The invariant is
	// ΣDroppedByTenant + DroppedByTenantOther = ΣDropped once drops are
	// attributed (the gate attributes every drop it counts).
	DroppedByTenantOther int64
	// OverloadState is the admission gate's state at snapshot time (an
	// OverloadStateNames index); 0 (normal) when no gate is attached.
	OverloadState int32
	// OverloadTransitions counts entries into each gate state (indexed
	// like OverloadStateNames). All zero when no gate ever tightened.
	OverloadTransitions [len(OverloadStateNames)]int64
	// ModelVersion is the serving model's COW publication version; 0 when
	// the engine serves an unversioned (plain) model.
	ModelVersion uint64
	// ShadowFlows counts flows also scored by a shadow model; 0 when no
	// shadow is attached.
	ShadowFlows int64
	// ShadowDiverged counts shadow verdicts that disagreed with the
	// primary, per primary verdict class (same indexing as ByClass).
	ShadowDiverged []int64
	// Classes are the verdict labels for ByClass (shared, do not modify).
	Classes []string
	// ByClass counts verdicts per class index.
	ByClass []int64
	// Latency is the verdict-latency histogram.
	Latency LatencySnapshot
	// Kernels is the dispatch report, zero until SetKernels is called.
	Kernels Kernels
}

// TenantDrops is one tenant's entry in the per-tenant drop breakdown.
type TenantDrops struct {
	// Key is the tenant key the admission gate bucketed by.
	Key uint64 `json:"key"`
	// Label is the exported metric label for the key (see
	// SetTenantLabeler); decimal of Key when no labeler is installed.
	Label string `json:"label"`
	// Dropped counts packets shed from this tenant.
	Dropped int64 `json:"dropped"`
}

// LatencySnapshot is the verdict-latency histogram at snapshot time.
type LatencySnapshot struct {
	// Bounds are the bucket upper limits in capture seconds (shared, do
	// not modify); Counts has one extra entry for the +Inf bucket.
	Bounds []float64
	// Counts are per-bucket observation counts (not cumulative).
	Counts []int64
	// Sum is the total of all observations in capture seconds.
	Sum float64
	// Count is the total number of observations.
	Count int64
}

// DroppedTotal returns the packets refused by the admission gate summed
// over every drop reason.
func (s Snapshot) DroppedTotal() int64 {
	var v int64
	for _, n := range s.Dropped {
		v += n
	}
	return v
}

// OverloadStateName returns the human label of OverloadState.
func (s Snapshot) OverloadStateName() string {
	if int(s.OverloadState) < len(OverloadStateNames) {
		return OverloadStateNames[s.OverloadState]
	}
	return "unknown"
}

// ShadowDivergedTotal returns shadow/primary verdict disagreements
// summed over every class.
func (s Snapshot) ShadowDivergedTotal() int64 {
	var v int64
	for _, n := range s.ShadowDiverged {
		v += n
	}
	return v
}

// Pending returns how many completed flows await a verdict (mid-run this
// is the micro-batch fill; after a drain it is zero).
func (s Snapshot) Pending() int64 {
	var v int64
	for _, n := range s.ByClass {
		v += n
	}
	if p := s.Flows - v; p > 0 {
		return p
	}
	return 0
}

// Snapshot reads every counter. Safe from any goroutine at any time;
// allocates the slices it returns, so it belongs on scrape/progress
// cadence, not per packet.
//
// Counters are loaded in dependency order — derived counters before the
// counters that precede them on the write path (alerts before per-class
// verdicts, verdicts before flows, flows before packets) — so the
// mid-run invariants hold in every snapshot: Alerts ≤ ΣByClass ≤ Flows,
// even while writers are mid-flight between two adds.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Suppressed:     c.suppressed.Load(),
		OverloadState:  c.overloadState.Load(),
		Alerts:         c.alerts.Load(),
		Classes:        c.classes,
		ByClass:        make([]int64, len(c.byClass)),
		ShadowDiverged: make([]int64, len(c.shadowDiverged)),
	}
	if fn := c.modelVersion.Load(); fn != nil {
		s.ModelVersion = (*fn)()
	}
	// Tenant attribution before the reason totals (the gate counts the
	// reason first, then attributes), so a mid-run snapshot never shows
	// more attributed drops than counted ones.
	s.DroppedByTenant, s.DroppedByTenantOther = c.tenantSnapshot()
	for i := range c.dropped {
		s.Dropped[i] = c.dropped[i].Load()
	}
	for i := range c.overloadTransitions {
		s.OverloadTransitions[i] = c.overloadTransitions[i].Load()
	}
	// Divergence before the shadow-flow total, so the mid-run invariant
	// ΣShadowDiverged ≤ ShadowFlows holds in every snapshot.
	for i := range c.shadowDiverged {
		s.ShadowDiverged[i] = c.shadowDiverged[i].Load()
	}
	s.ShadowFlows = c.shadowFlows.Load()
	for i := range c.byClass {
		s.ByClass[i] = c.byClass[i].Load()
	}
	s.Latency.Bounds = LatencyBuckets[:]
	s.Latency.Counts = make([]int64, NumLatencyBuckets)
	for i := range c.latCounts {
		n := c.latCounts[i].Load()
		s.Latency.Counts[i] = n
		s.Latency.Count += n
	}
	sum := c.latSumMicro.Load()
	if sum < 0 { // an Add wrapped and its Store is still to come
		sum = math.MaxInt64
	}
	s.Latency.Sum = float64(sum) / 1e6
	s.Flows = c.flows.Load()
	s.Packets = c.packets.Load()
	if k := c.kernels.Load(); k != nil {
		s.Kernels = *k
	}
	return s
}

// tenantSnapshot renders the bounded per-tenant drop map as the top-K
// breakdown plus the folded remainder.
func (c *Collector) tenantSnapshot() ([]TenantDrops, int64) {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	if len(c.tenantDrops) == 0 {
		return nil, c.tenantOther
	}
	all := make([]TenantDrops, 0, len(c.tenantDrops))
	for k, n := range c.tenantDrops {
		all = append(all, TenantDrops{Key: k, Dropped: n})
	}
	all, folded := topTenants(all)
	other := c.tenantOther + folded
	label := c.tenantLabel
	for i := range all {
		if label != nil {
			all[i].Label = label(all[i].Key)
		} else {
			all[i].Label = strconv.FormatUint(all[i].Key, 10)
		}
	}
	return all, other
}

// Merge folds worker snapshots into one cluster-level rollup: counters
// and histograms sum, gauges take the conservative reading. Class labels
// (and with them ByClass/ShadowDiverged widths) come from the first
// snapshot that has any — a cluster runs one class list, so the per-class
// sums are positional. Specifically:
//
//   - ModelVersion is the minimum nonzero version across workers — "what
//     version is the fleet serving" answered pessimistically, so a worker
//     lagging a snapshot push is visible on the rollup gauge.
//   - OverloadState is the maximum (most-degraded worker).
//   - Kernels come from the first snapshot that reports any (workers of
//     one cluster run the same build; heterogeneous fleets will see the
//     first worker's report).
//   - DroppedByTenant entries merge by key across workers and the
//     merged breakdown is re-ranked to the top TopTenantDrops.
func Merge(snaps ...Snapshot) Snapshot {
	var m Snapshot
	tenants := make(map[uint64]TenantDrops)
	for _, s := range snaps {
		m.Packets += s.Packets
		m.Flows += s.Flows
		m.Alerts += s.Alerts
		m.Suppressed += s.Suppressed
		m.ShadowFlows += s.ShadowFlows
		for i := range s.Dropped {
			m.Dropped[i] += s.Dropped[i]
		}
		for i := range s.OverloadTransitions {
			m.OverloadTransitions[i] += s.OverloadTransitions[i]
		}
		if s.OverloadState > m.OverloadState {
			m.OverloadState = s.OverloadState
		}
		if s.ModelVersion != 0 && (m.ModelVersion == 0 || s.ModelVersion < m.ModelVersion) {
			m.ModelVersion = s.ModelVersion
		}
		if m.Classes == nil && len(s.Classes) > 0 {
			m.Classes = s.Classes
			m.ByClass = make([]int64, len(s.Classes))
			m.ShadowDiverged = make([]int64, len(s.Classes))
		}
		for i := 0; i < len(s.ByClass) && i < len(m.ByClass); i++ {
			m.ByClass[i] += s.ByClass[i]
		}
		for i := 0; i < len(s.ShadowDiverged) && i < len(m.ShadowDiverged); i++ {
			m.ShadowDiverged[i] += s.ShadowDiverged[i]
		}
		if m.Latency.Bounds == nil {
			m.Latency.Bounds = LatencyBuckets[:]
			m.Latency.Counts = make([]int64, NumLatencyBuckets)
		}
		for i := 0; i < len(s.Latency.Counts) && i < len(m.Latency.Counts); i++ {
			m.Latency.Counts[i] += s.Latency.Counts[i]
		}
		m.Latency.Sum += s.Latency.Sum
		m.Latency.Count += s.Latency.Count
		if m.Kernels == (Kernels{}) {
			m.Kernels = s.Kernels
		}
		m.DroppedByTenantOther += s.DroppedByTenantOther
		for _, t := range s.DroppedByTenant {
			e := tenants[t.Key]
			e.Key, e.Label = t.Key, t.Label
			e.Dropped += t.Dropped
			tenants[t.Key] = e
		}
	}
	if len(tenants) > 0 {
		all := make([]TenantDrops, 0, len(tenants))
		for _, t := range tenants {
			all = append(all, t)
		}
		var folded int64
		m.DroppedByTenant, folded = topTenants(all)
		m.DroppedByTenantOther += folded
	}
	return m
}

// topTenants ranks tenants most-dropped first (ties by key) and keeps the
// top TopTenantDrops, returning the drops of the rest to fold into
// "other".
func topTenants(all []TenantDrops) ([]TenantDrops, int64) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dropped != all[j].Dropped {
			return all[i].Dropped > all[j].Dropped
		}
		return all[i].Key < all[j].Key
	})
	var folded int64
	if len(all) > TopTenantDrops {
		for _, t := range all[TopTenantDrops:] {
			folded += t.Dropped
		}
		all = all[:TopTenantDrops]
	}
	return all, folded
}
