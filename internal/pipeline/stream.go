package pipeline

import (
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// Stream is the uniform serving contract of the detection engines: one
// packet-in/alert-out surface implemented identically by Engine (single
// core, synchronous) and Sharded (flow-hash partitioned across N
// channel-fronted workers; one worker via NewConcurrent). Sources
// (netflow.PacketSource) feed a Stream and sinks (AlertSink) consume from
// it, usually through a Runner rather than by hand.
//
// Lifecycle and ordering guarantees, uniform across implementations:
//
//   - Feed ingests one packet. Packets must arrive in capture-time order
//     (per flow for Sharded). Ingestion is lossless: a concurrent
//     implementation blocks when its buffers fill, it never drops.
//     Engine, Sharded and the cluster Client also ingest a run of
//     packets in one FeedRun call, exactly as one Feed per packet would;
//     the FeedRun function uses it wherever a stream has it.
//   - FeedWithin is the admission-controlled variant: it never blocks
//     past its wait (a non-positive wait does not block at all) and
//     reports whether the packet was admitted. A false return means the
//     packet was NOT ingested — the caller owns the drop (the overload
//     Gate counts it into telemetry). On the synchronous Engine admission
//     always succeeds (there is no ingress buffer to fill); on Sharded it
//     fails when the shard's buffer stays full for the whole wait. A wait
//     bounds one feeder: a second goroutine feeding the same shard or
//     Gate waits its turn, behind the first one's wait.
//   - Post-Close, FeedWithin returns false — unlike Feed, whose
//     post-Close no-op is silent, the admission variant makes the refusal
//     observable so a gate never miscounts a packet fed to a retired
//     stream as admitted.
//   - Tick and Flush are ordered with packets: their effects apply after
//     every previously fed packet and before any later one (per shard for
//     Sharded). On Engine they act synchronously; on Sharded they enqueue
//     and return. Packets cross every boundary in batches: the Runner
//     hands a stream runs of packets, Sharded hands its shards chunks and
//     the cluster Client its workers multi-record frames. A tick always
//     closes each of them — the Runner cuts its run before the tick, and
//     the other two send their open batch with every Tick, Flush and
//     Close — so batching never reorders a packet against a control call
//     and never holds one back for longer than one tick. With no ticks,
//     the Runner feeds each packet as it reads it, while a chunk or frame
//     waits until it fills or a Flush or Close sends it.
//   - Close stops ingestion, completes all in-progress flows, drains every
//     pending micro-batch and buffered packet, and waits until all of it
//     has classified — Close ≡ drain, deterministically, on every
//     implementation. Close is idempotent, and Feed/Tick/Flush after Close
//     are defined no-ops (they drop silently — never a panic).
//   - Stats is safe from any goroutine at any time: engines count
//     through lock-free telemetry collectors, so a mid-run read never
//     races (pinned by TestSnapshotDuringLiveFeedRaceFree). A mid-run
//     read is eventually consistent across counters (see the telemetry
//     package's consistency contract); after Close it is exact.
type Stream interface {
	// Feed ingests one packet in capture-time order. No-op after Close.
	Feed(p netflow.Packet)
	// FeedWithin ingests one packet, waiting at most wait for ingress
	// buffer space, reporting whether it was admitted. A non-positive
	// wait admits only when that cannot block. False after Close.
	FeedWithin(p netflow.Packet, wait time.Duration) bool
	// Tick evicts flows idle at capture time now and drains partial
	// micro-batches, bounding verdict latency across quiet stretches.
	// No-op after Close.
	Tick(now float64)
	// Flush completes all in-progress flows (end of capture) and
	// classifies everything pending. No-op after Close.
	Flush()
	// Close stops ingestion and drains deterministically; idempotent.
	Close()
	// Stats snapshots the engine counters — safe from any goroutine at
	// any time, exact after Close.
	Stats() Stats
	// Telemetry returns the engine's collector — the richer live surface
	// (latency histogram, suppression totals, Prometheus export).
	Telemetry() *telemetry.Collector
}

// Both engines, and the Gate in front of either, implement Stream; the
// engines take runs too.
var (
	_ Stream    = (*Engine)(nil)
	_ Stream    = (*Sharded)(nil)
	_ Stream    = (*Gate)(nil)
	_ runFeeder = (*Engine)(nil)
	_ runFeeder = (*Sharded)(nil)
)

// runFeeder is a Stream that ingests a run of packets in one call:
// Engine, Sharded and the cluster Client.
type runFeeder interface {
	FeedRun(pkts []netflow.Packet)
}

// FeedRun feeds pkts to s in order: in one FeedRun call when s has one,
// else one Feed per packet (the Gate, a caller's own Stream).
func FeedRun(s Stream, pkts []netflow.Packet) {
	if rf, ok := s.(runFeeder); ok {
		rf.FeedRun(pkts)
		return
	}
	for i := range pkts {
		s.Feed(pkts[i])
	}
}

// NewStream builds the stream cfg describes — the one place the serving
// path chooses an engine, behind NewRunner. (A cluster worker serves one
// synchronous Engine, built with New.)
// Sharding is an explicit choice, not a default: cfg.Shards > 1 builds
// the flow-sharded multi-core engine with that many shards (stats stay
// bit-identical, but alert interleaving across shards is
// scheduling-dependent); any other count builds the synchronous
// single-core Engine, whose alert order is deterministic run to run. For
// one shard per core pass runtime.GOMAXPROCS(0), as `cyberhd detect
// -shards 0` does. A bounded cfg.Overload wraps
// either engine in the admission Gate; the lossless default installs
// nothing, keeping the no-gate path bit-identical to every release before
// overload control.
func NewStream(cfg Config) (Stream, error) {
	var s Stream
	var err error
	if cfg.Shards > 1 {
		s, err = NewSharded(cfg)
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Overload.Mode == OverloadBounded {
		s = NewGate(s, cfg.Overload)
	}
	return s, nil
}

// streamMsg is one ingress item for the channel-fed Sharded engine: a run
// of packets in feed order (possibly empty) followed by one control effect
// — nothing, a tick at capture time, or a flush. The control effect applies
// after the message's own packets, and messages keep their order within a
// channel, so eviction and batch draining stay deterministic per worker.
type streamMsg struct {
	pkts []netflow.Packet
	tick float64
	kind msgKind
}

// msgKind names the control effect that follows a streamMsg's packets.
type msgKind uint8

const (
	msgPackets msgKind = iota // packets only
	msgTick
	msgFlush
	msgClose // only an alert callback's, queued on Engine
)

// dispatch applies one ingress message to an engine.
func (e *Engine) dispatch(m streamMsg) {
	e.FeedRun(m.pkts)
	switch m.kind {
	case msgTick:
		e.Tick(m.tick)
	case msgFlush:
		e.Flush()
	case msgClose:
		e.Close()
	}
}
