package pipeline

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// Sharded is the multi-core streaming engine: packets are hash-partitioned
// by their bidirectional flow 5-tuple (netflow.Packet.ShardKey) across N
// per-core Engine shards, each with its own assembler, micro-batch buffer
// and pooled scratch, running on its own goroutine behind a bounded
// lossless ingress channel.
//
// The unit of handoff is a chunk of packets, not a packet. Feed appends to
// its shard's open chunk (FeedRun appends a run's packets, taking each
// shard's mutex once per run) and the chunk crosses the channel when it
// fills (maxChunk packets, fewer under a small buffer); Tick, Flush and Close
// hand every shard's open chunk off together with their own effect, so a
// packet waits in an open chunk for at most one tick and the order of
// packets and control effects per shard is exactly the order they were
// issued in. A caller that feeds by hand and never ticks sees the tail of
// its packets classified at Flush or Close. The per-shard buffer stays a
// bound in packets: open chunk plus channel never hold more than that.
//
// Because every packet of a flow hashes to the same shard, flow assembly,
// feature extraction and classification are per-flow identical to a single
// Engine: the merged Stats of a capture are bit-identical to feeding the
// same capture through one Engine (pinned by the root's TestContractMatrix).
//
// Delivery guarantees:
//
//   - Ingress is lossless: Feed blocks when a shard's buffer is full, it
//     never drops. Packets of one flow are processed in feed order.
//   - A waiting feeder keeps its shard's mutex: a wait bounds one feeder,
//     and a second goroutine feeding the same shard waits its turn. That
//     costs concurrent feeders nothing else (no data race, no send on a
//     closed channel, lossless Feed, exact counts).
//   - OnAlert callbacks and sinks are serialized (never concurrent) and
//     arrive in verdict order within a shard — i.e. per flow key.
//     Interleaving across shards is unspecified. Callbacks and sinks must
//     not call Feed, Tick, Flush or Close (they run on shard goroutines).
//   - Close is deterministic: it stops ingress, drains every shard's
//     channel, flushes all in-progress flows and pending micro-batches,
//     and waits for every worker to exit. Feed/Tick/Flush after Close are
//     defined no-ops. Stats is safe from any goroutine at any time (all
//     shards count into one atomic collector); after Close it is exact.
type Sharded struct {
	shards []shardWorker
	once   sync.Once

	chunk int // packets per full chunk

	// tel is the one collector every shard records into, so Stats is a
	// single read with no per-shard merge.
	tel *telemetry.Collector

	// alertMu serializes OnAlert and sink delivery across shard goroutines.
	alertMu sync.Mutex

	// closeMu keeps Tick and Flush whole against Close: broadcast holds
	// the read side across every shard, Close takes the write side, so a
	// control effect reaches every shard or none and post-Close broadcasts
	// are defined no-ops. Packet admission never takes it — each shard has
	// its own close gate under its mutex (shardWorker.closing).
	closeMu sync.RWMutex
	closed  bool
}

// shardWorker is one per-core engine behind its bounded ingress channel.
type shardWorker struct {
	eng  *Engine
	in   chan streamMsg
	done chan struct{}

	// taken counts the packets the worker has received off the channel.
	taken atomic.Int64
	// free returns drained chunks from the worker to the feeders. The
	// shard owns slots+2 chunks — one open, one per channel slot, one in
	// dispatch — and free has room for all of them, so neither side ever
	// waits on it: a handoff leaves at most slots+1 chunks elsewhere.
	free chan []netflow.Packet

	// mu guards open, sent and closing, and is held across a handoff's
	// wait for a channel slot: the worker never takes it, so the wait ends
	// when the worker takes a message or the wait runs out.
	mu   sync.Mutex
	open []netflow.Packet // packets admitted but not yet handed off; never full between calls
	sent int64            // packets handed off to the channel
	// closing is the shard's close gate: once Close sets it, admit and
	// FeedRun refuse. Close sets it under mu, so a sender mid-handoff is
	// waited out, never sent onto a closed channel.
	closing bool
}

// maxChunk is the largest run of packets one channel send carries: big
// enough that the send, the receive and the goroutine wake-up they cost
// vanish per packet, small enough (18 KiB of packets) to stay in L1/L2
// between the feeder that fills it and the shard that drains it.
const maxChunk = 256

// defaultShardBuffer is the per-shard ingress buffer of NewSharded, in
// packets: 15 channel slots of maxChunk-packet chunks plus the open chunk
// (17 chunks counting the one in dispatch, about 300 KiB per shard). On a
// 2-vCPU guest a goroutine parked on a channel can take 60–80 µs to run
// after it is woken, and at 1024 packets one such late wake-up behind a
// micro-batch flush filled the buffer and parked the feeder too. On the
// pcap_sharded benchmark 2048–8192 measured alike; 4096 is the smallest
// that beat 1024 in every paired group.
const defaultShardBuffer = 4096

// NewSharded builds and starts a sharded engine: cfg.Shards workers
// (0 selects runtime.GOMAXPROCS), each a full Engine over a copy of cfg
// with the alert callback wrapped for serialized delivery, each behind a
// bounded ingress buffer of defaultShardBuffer (4096) packets.
func NewSharded(cfg Config) (*Sharded, error) { return newSharded(cfg, defaultShardBuffer) }

// NewConcurrent builds the one-worker form of the sharded engine — packet
// ingestion decoupled from classification by a single bounded channel of
// the given size (<= 0 selects defaultShardBuffer), with no flow hashing on
// the way in.
func NewConcurrent(cfg Config, buffer int) (*Sharded, error) {
	cfg.Shards = 1
	return newSharded(cfg, buffer)
}

// newSharded is NewSharded with the per-shard ingress buffer in packets
// (<= 0 selects defaultShardBuffer): open chunk plus channel never hold
// more per shard, and it also sizes the handoff chunk (a quarter of it, at
// most maxChunk).
func newSharded(cfg Config, buffer int) (*Sharded, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if buffer <= 0 {
		buffer = defaultShardBuffer
	}
	// Chunks are a quarter of the buffer (so feeder and shard overlap) up
	// to maxChunk, and the channel gets the slots that keep open chunk
	// (at most chunk-1 packets between calls) plus channel within buffer.
	chunk := min(max(buffer/4, 1), maxChunk)
	slots := (buffer+1)/chunk - 1
	s := &Sharded{tel: resolveTelemetry(&cfg), chunk: chunk}
	shardCfg := cfg
	if cfg.OnAlert != nil || len(cfg.Sinks) > 0 {
		// One serialized delivery path wraps both the callback and the
		// sinks, so the whole alert contract (never concurrent, verdict
		// order per shard) holds for every consumer.
		user, sinks := cfg.OnAlert, cfg.Sinks
		shardCfg.Sinks = nil
		shardCfg.OnAlert = func(a Alert) {
			s.alertMu.Lock()
			defer s.alertMu.Unlock()
			if user != nil {
				user(a)
			}
			for _, snk := range sinks {
				snk.Consume(a)
			}
		}
	}
	// Build every engine before starting any worker, so a config error
	// never leaves already-started goroutines behind.
	s.shards = make([]shardWorker, n)
	for i := range s.shards {
		eng, err := New(shardCfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = shardWorker{
			eng:  eng,
			in:   make(chan streamMsg, slots), // slots*chunk packets: buffer less the open chunk
			done: make(chan struct{}),
			free: make(chan []netflow.Packet, slots+2),
			open: make([]netflow.Packet, 0, chunk),
		}
		for range slots + 1 {
			s.shards[i].free <- make([]netflow.Packet, 0, chunk)
		}
	}
	for i := range s.shards {
		w := &s.shards[i]
		go func() {
			defer close(w.done)
			for m := range w.in {
				w.taken.Add(int64(len(m.pkts)))
				w.eng.dispatch(m)
				if m.pkts != nil {
					w.free <- m.pkts[:0]
				}
			}
			w.eng.Flush()
		}()
	}
	return s, nil
}

// Feed routes one packet to its flow's shard. It blocks when that shard's
// ingress buffer is full (lossless by design: an IDS that silently drops
// packets hides exactly the traffic an attacker would send). Packets must
// arrive in time order per flow. After Close it is a defined no-op.
func (s *Sharded) Feed(p netflow.Packet) { s.admit(&p, blockUntilAdmitted) }

// FeedWithin routes one packet to its flow's shard, waiting at most wait
// for buffer space (not at all when wait <= 0), reporting whether it was
// admitted. The wait holds the shard's mutex, so a concurrent Close waits
// out at most one admission bound, and another feeder of the shard waits
// behind it. False when the shard's buffer stayed full, or after Close.
func (s *Sharded) FeedWithin(p netflow.Packet, wait time.Duration) bool {
	return s.admit(&p, max(wait, 0))
}

// FeedRun routes pkts to their flows' shards in order, exactly as one
// Feed per packet would, but takes each shard's mutex once for all of its
// packets among every maxRun of the run (RunRouter), not once per packet.
// Lossless and blocking like Feed. After Close it is a defined no-op.
func (s *Sharded) FeedRun(pkts []netflow.Packet) {
	r := RouteRun(pkts, len(s.shards))
	for j, win, sel := r.Next(); sel != nil; j, win, sel = r.Next() {
		w := &s.shards[j]
		w.mu.Lock()
		if !w.closing {
			for _, i := range sel {
				w.push(&win[i], blockUntilAdmitted)
			}
		}
		w.mu.Unlock()
	}
}

// blockUntilAdmitted is admit's wait value for the lossless Feed path.
const blockUntilAdmitted time.Duration = -1

// admit is the one-packet ingress path: it picks the packet's shard — by
// flow hash, or shard 0 outright when there is only one to pick — and
// under that shard's mutex checks its close gate and pushes the packet.
// False means the packet was not ingested: the engine is closed or the
// shard's buffer stayed full.
func (s *Sharded) admit(p *netflow.Packet, wait time.Duration) bool {
	w := &s.shards[0]
	if n := uint64(len(s.shards)); n > 1 {
		w = &s.shards[p.ShardKey()%n]
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.closing && w.push(p, wait)
}

// push is the one admission step of admit and FeedRun: it appends p to
// the open chunk, and the packet that fills the chunk is admitted only
// with the chunk handed off, waiting for a channel slot forever
// (blockUntilAdmitted), not at all (0) or for at most wait. Caller holds
// w.mu and has checked the close gate.
func (w *shardWorker) push(p *netflow.Packet, wait time.Duration) bool {
	if len(w.open)+1 < cap(w.open) {
		w.open = append(w.open, *p)
		return true
	}
	return w.handoff(p, streamMsg{}, wait)
}

// maxRun is the most packets the Runner hands a stream in one call, and
// the window RunRouter partitions at a time.
const maxRun = 64

// RunRouter partitions a run of packets among n shards by flow hash —
// Packet.ShardKey % n, the modulus contract the sharded engine and the
// cluster client share — so that a caller takes each shard's lock once
// per group of its packets rather than once per packet. It works through
// the run maxRun packets at a time; within each window, Next returns every
// shard with packets there once, with the indices of its packets in feed
// order. Build one with RouteRun.
type RunRouter struct {
	rest  []netflow.Packet // the packets after the window
	win   []netflow.Packet // the window, at most maxRun packets
	n     uint64
	left  uint64         // bit i: window packet i not yet returned
	shard [maxRun]uint16 // each window packet's shard
	sel   [maxRun]uint8  // the group Next returns
}

// RouteRun returns a router over pkts for n shards.
func RouteRun(pkts []netflow.Packet, n int) RunRouter {
	return RunRouter{rest: pkts, n: uint64(n)}
}

// Next returns the next shard with packets in the run, the window they
// are in and their indices in it, in feed order; sel is valid until the
// next call, and a nil sel ends the run.
func (r *RunRouter) Next() (shard int, win []netflow.Packet, sel []uint8) {
	if r.left == 0 {
		if len(r.rest) == 0 {
			return 0, nil, nil
		}
		m := min(len(r.rest), maxRun)
		r.win, r.rest = r.rest[:m], r.rest[m:]
		r.left = ^uint64(0) >> (64 - m)
		if r.n == 1 {
			clear(r.shard[:m]) // one shard: no hash to take, as in admit
		} else {
			for i := range r.win {
				r.shard[i] = uint16(r.win[i].ShardKey() % r.n)
			}
		}
	}
	// Every packet of this shard is still to be returned: each shard's
	// group takes all of its packets in the window at once.
	first := bits.TrailingZeros64(r.left)
	// The scan is branch-free: on two shards a branch would be a coin toss.
	j, k, taken := r.shard[first], 0, uint64(0)
	for i := first; i < len(r.win); i++ {
		hit := uint64(0)
		if r.shard[i] == j {
			hit = 1
		}
		r.sel[k] = uint8(i)
		k += int(hit)
		taken |= hit << i
	}
	r.left &^= taken
	return int(j), r.win, r.sel[:k]
}

// handoff sends the shard's open chunk — completed by p when p is non-nil
// — and m's control effect to the worker as one message, then opens a
// fresh chunk. It waits for a channel slot as admit's wait says, forever
// (blockUntilAdmitted), not at all (0) or for at most wait, and holds w.mu
// while it waits: the worker never takes it, and any other sender of the
// shard, Close included, waits its turn. On false nothing was sent and the
// open chunk is as it was. Caller holds w.mu.
func (w *shardWorker) handoff(p *netflow.Packet, m streamMsg, wait time.Duration) bool {
	if p != nil {
		m.pkts = append(w.open, *p) // w.open itself stays one short of full
	} else if len(w.open) > 0 {
		m.pkts = w.open
	}
	select {
	case w.in <- m:
	default:
		switch {
		case wait == 0:
			return false
		case wait < 0:
			w.in <- m
		default:
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case w.in <- m:
			case <-t.C:
				return false
			}
		}
	}
	if m.pkts != nil {
		w.sent += int64(len(m.pkts))
		w.open = <-w.free
	}
	return true
}

// occupancy reports the packets waiting on the fullest shard — open chunk
// plus channel — and the per-shard capacity in packets: the queue-pressure
// signal the overload gate's state machine polls (the hottest shard stalls
// ingress first, so the max is the signal that matters).
func (s *Sharded) occupancy() (int, int) {
	maxFill := 0
	for i := range s.shards {
		w := &s.shards[i]
		w.mu.Lock()
		n := int(w.sent-w.taken.Load()) + len(w.open)
		w.mu.Unlock()
		if n > maxFill {
			maxFill = n
		}
	}
	return maxFill, cap(s.shards[0].in)*s.chunk + s.chunk - 1
}

// Tick broadcasts an idle-eviction tick at capture time now to every
// shard, handing off each shard's open chunk with it. Each shard processes
// the tick in order with its packets, so eviction and micro-batch draining
// stay deterministic per shard. After Close it is a defined no-op.
func (s *Sharded) Tick(now float64) {
	s.broadcast(streamMsg{tick: now, kind: msgTick})
}

// Flush broadcasts an end-of-capture flush, ordered with the packets
// around it per shard (open chunks go with it): all flows in progress at
// this point in the feed order complete and classify. It does not wait —
// Close does. After Close it is a defined no-op.
func (s *Sharded) Flush() {
	s.broadcast(streamMsg{kind: msgFlush})
}

// broadcast hands every shard its open chunk and m's control effect as
// one message, unless closed. Lossless like Feed: it waits for a slot.
func (s *Sharded) broadcast(m streamMsg) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	for i := range s.shards {
		w := &s.shards[i]
		w.mu.Lock()
		w.handoff(nil, m, blockUntilAdmitted)
		w.mu.Unlock()
	}
}

// Close stops ingestion, drains every shard, flushes all in-progress
// flows and pending micro-batches, and waits for every worker to exit.
// A feeder waiting for a slot holds its shard's mutex, so Close waits it
// out: until its shard takes a chunk, or its FeedWithin wait runs out.
// Idempotent; every call waits for the full drain.
func (s *Sharded) Close() {
	s.once.Do(func() {
		// The write side waits out any broadcast in flight and keeps the
		// next one from starting.
		s.closeMu.Lock()
		defer s.closeMu.Unlock()
		s.closed = true
		for i := range s.shards {
			w := &s.shards[i]
			// Taking the mutex waits out a sender mid-handoff; with the
			// gate shut the open chunk is final, so hand it off and end
			// the channel.
			w.mu.Lock()
			w.closing = true
			if len(w.open) > 0 {
				w.handoff(nil, streamMsg{}, blockUntilAdmitted)
			}
			close(w.in)
			w.mu.Unlock()
		}
	})
	for i := range s.shards {
		<-s.shards[i].done
	}
}

// Stats returns the engine counters. Every shard records into one shared
// telemetry collector, so this is a single atomic read, safe from any
// goroutine at any time; exact after Close.
func (s *Sharded) Stats() Stats { return StatsOf(s.tel.Snapshot()) }

// Telemetry returns the collector shared by every shard, for richer
// observation (latency histogram, suppression totals, Prometheus export).
func (s *Sharded) Telemetry() *telemetry.Collector { return s.tel }
