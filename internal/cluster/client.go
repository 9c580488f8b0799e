package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// DefaultDialTimeout bounds each worker connection attempt of Dial.
const DefaultDialTimeout = 10 * time.Second

// ackTimeout bounds the wait for a worker's snapshot-push ack. Generous:
// validation runs a sanity batch, never the capture.
var ackTimeout = 60 * time.Second

// ClientConfig assembles a cluster ingest client. Workers, Model,
// Normalizer and ClassNames are required; everything else mirrors the
// matching pipeline.Config field and is forwarded to every worker so the
// cluster serves exactly the configuration a single-process engine would.
// Each connection attempt is bounded by DefaultDialTimeout.
type ClientConfig struct {
	// Workers are the detector node addresses (host:port). The partition
	// function is FlowKey.Hash % len(Workers) — the sharded engine's
	// modulus contract — so worker order is part of the replay identity.
	Workers []string
	// Model is the serving authority: its snapshot is replicated to every
	// worker at dial and on every PushSnapshot. Required.
	Model *core.COWModel
	// Normalizer carries the feature statistics every worker must apply
	// (pipeline.Config.Normalizer). Required.
	Normalizer *datasets.Normalizer
	// ClassNames label verdict classes on every worker. Required.
	ClassNames []string
	// BatchSize is each worker's micro-batch size (pipeline.Config.BatchSize).
	BatchSize int
	// Width is each worker's serving width: 0 (float32) or 1; workers
	// refuse any other at the hello. Each worker packs the model it
	// restores from the opening snapshot at this width (quantize.AttachLive
	// at W1), so Model itself may be float.
	Width bitpack.Width
	// WorkerShards is each worker's internal shard count
	// (pipeline.Config.Shards; 0/1 = single-core engine per worker).
	WorkerShards int
	// OnAlert, when set, observes every merged alert. Calls are
	// serialized across workers (the sharded engine's callback contract);
	// interleaving between workers is unspecified, per-worker order is
	// preserved.
	OnAlert func(pipeline.Alert)
	// Sinks receive every merged alert after OnAlert, serialized the same
	// way.
	Sinks []pipeline.AlertSink
}

// PushResult is one worker's outcome of a snapshot replication.
type PushResult struct {
	// Worker is the worker's configured address.
	Worker string
	// OK reports whether the worker's control plane accepted the swap.
	OK bool
	// Version is the worker's serving model version after the push —
	// unchanged when the snapshot was rejected.
	Version uint64
	// Err is the rejection reason or transport error, empty on success.
	Err string
}

// workerConn is the ingest side of one worker session.
type workerConn struct {
	addr string
	out  *writeHalf // packets run and control frames; its error latch is the session's
	sent int64      // packets routed here; under out.mu
	fr   *frameReader

	acks chan ackState // the ack of the push in flight, and no other
	done chan struct{} // closed when the read loop exits

	telDec *telemetryDecoder // the session's telemetry stream; read loop only

	mu       sync.Mutex // guards the fields below
	lastSnap telemetry.Snapshot
	haveSnap bool
	version  uint64
	pushed   uint64 // snapshot frames pushed, answered or not
}

// Client is a cluster ingest node's handle on its worker fleet. It
// implements pipeline.Stream, so the standard Runner (or any caller of
// the Stream contract) drives a multi-node cluster exactly like a local
// engine: Feed partitions by flow hash, Tick/Flush broadcast in stream
// order, Close drains every worker and settles their telemetry, and
// PushSnapshot replicates the serving model to every worker.
//
// Ingestion is lossless-blocking like the in-process engines: a slow
// worker exerts TCP backpressure on Feed rather than dropping. FeedWithin
// therefore admits whenever the client is open — bounded admission
// belongs on a Gate in front of the client, exactly as with local
// engines.
type Client struct {
	cfg   ClientConfig
	conns []*workerConn

	alertMu sync.Mutex   // serializes OnAlert/sink delivery across workers
	flow    netflow.Flow // deliver's alert flow, under alertMu

	pushMu sync.Mutex // one snapshot replication in flight at a time

	closed    atomic.Bool
	closeOnce sync.Once
}

// Client implements the full Stream contract.
var _ pipeline.Stream = (*Client)(nil)

// Dial connects to every worker, performs the session handshake (wire
// magic, configuration hello, initial model snapshot — each acked), and
// returns a serving-ready client. Any single failure closes every
// connection and fails the dial: a cluster with a missing worker would
// silently misroute flows.
func Dial(cfg ClientConfig) (*Client, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("cluster: nil model")
	}
	if cfg.Normalizer == nil || len(cfg.Normalizer.Mean) != netflow.NumFeatures ||
		len(cfg.Normalizer.InvStd) != netflow.NumFeatures {
		return nil, fmt.Errorf("cluster: normalizer must carry %d features", netflow.NumFeatures)
	}
	if len(cfg.ClassNames) == 0 {
		return nil, fmt.Errorf("cluster: no class names")
	}
	hello, err := encodeHello(helloState{
		ClassNames: cfg.ClassNames,
		NormMean:   cfg.Normalizer.Mean, NormInvStd: cfg.Normalizer.InvStd,
		BatchSize: cfg.BatchSize, Width: int(cfg.Width), Shards: cfg.WorkerShards,
	})
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := core.SaveSnapshot(&snap, cfg.Model); err != nil {
		return nil, fmt.Errorf("cluster: snapshotting model: %w", err)
	}
	c := &Client{cfg: cfg}
	for _, addr := range cfg.Workers {
		wc, err := dialWorker(addr, hello, snap.Bytes())
		if err != nil {
			for _, open := range c.conns {
				_ = open.out.conn.Close()
			}
			return nil, err
		}
		c.conns = append(c.conns, wc)
	}
	for _, wc := range c.conns {
		go c.readLoop(wc)
	}
	return c, nil
}

// dialWorker runs one session handshake synchronously (the read loop
// starts only after both acks, so handshake frames never race it).
func dialWorker(addr string, hello, snap []byte) (*workerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing worker %s: %w", addr, err)
	}
	wc := &workerConn{
		addr: addr, out: newWriteHalf(conn, framePackets, maxRunPayload), fr: newFrameReader(conn), telDec: newTelemetryDecoder(),
		acks: make(chan ackState, 1), done: make(chan struct{}),
	}
	// exchange sends one handshake frame and waits for its ack; the
	// snapshot's ack carries the version the worker serves.
	exchange := func(t frameType, payload []byte) error {
		if err := wc.out.control(t, payload); err != nil {
			return err
		}
		got, reply, err := wc.fr.next()
		if err != nil {
			return err
		}
		if got != frameAck {
			return fmt.Errorf("frame type %d, want ack", got)
		}
		a, err := decodeAck(reply)
		if err == nil && !a.OK {
			err = fmt.Errorf("worker rejected: %s", a.Msg)
		}
		wc.version = a.Version
		return err
	}
	err = writeWireMagic(conn)
	if err == nil {
		err = readWireMagic(conn)
	}
	if err == nil {
		err = exchange(frameHello, hello)
	}
	if err == nil {
		err = exchange(frameSnapshot, snap)
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: worker %s handshake: %w", addr, err)
	}
	return wc, nil
}

// readLoop drains one worker's return stream: alerts into the serialized
// delivery path, telemetry into the per-worker latest snapshot, acks to
// the waiting push. It exits on the worker's bye or any transport error.
func (c *Client) readLoop(wc *workerConn) {
	defer close(wc.done)
	var alerts []wireAlert // the decoded run, reused frame to frame
	var acked uint64
	for {
		t, payload, err := wc.fr.next()
		if err != nil {
			wc.out.fail(fmt.Errorf("cluster: worker %s: %w", wc.addr, err))
			return
		}
		switch t {
		case frameAlerts:
			if alerts, err = decodeAlerts(payload, alerts); err == nil {
				for i := range alerts {
					c.deliver(&alerts[i])
				}
			}
		case frameTelemetry:
			var s telemetry.Snapshot
			if s, err = wc.telDec.decode(payload); err == nil {
				wc.mu.Lock()
				wc.lastSnap, wc.haveSnap = s, true
				if s.ModelVersion != 0 {
					wc.version = s.ModelVersion
				}
				wc.mu.Unlock()
			}
		case frameAck:
			// Acks answer pushes in order. Only the latest push's ack is
			// parked for it: a late one answers a push that timed out.
			var a ackState
			if a, err = decodeAck(payload); err == nil {
				acked++
				wc.mu.Lock()
				if acked == wc.pushed {
					select {
					case wc.acks <- a:
					default: // never block the read loop
					}
				}
				wc.mu.Unlock()
			}
		case frameBye:
			return
		default:
			err = fmt.Errorf("cluster: worker %s sent frame type %d", wc.addr, t)
		}
		if err != nil {
			wc.out.fail(err)
			return
		}
	}
}

// deliver reconstructs one engine alert from its wire record and hands it
// to the callback and sinks under the merge lock — per-worker order
// preserved, cross-worker interleaving serialized (the sharded engine's
// delivery contract, carried over the wire).
//
// The Flow is a summary, rebuilt in the client's one scratch Flow under
// the lock, so like an engine's it is valid only during delivery: key,
// initiator, first/last times and both-direction packet/byte totals —
// exactly the fields the alert record shape (pipeline.AlertRecord)
// renders. Per-direction statistics beyond the totals stay on the worker.
func (c *Client) deliver(wa *wireAlert) {
	class := int(wa.Class)
	var name string
	if class < len(c.cfg.ClassNames) {
		name = c.cfg.ClassNames[class]
	} else {
		name = fmt.Sprintf("class%d", class)
	}
	c.alertMu.Lock()
	defer c.alertMu.Unlock()
	c.flow = netflow.Flow{
		Key:       wa.Key,
		InitSrcIP: wa.InitSrcIP, InitSrcPort: wa.InitSrcPort,
		FirstTime: wa.FirstTime, LastTime: wa.Time,
		FwdLen: netflow.Stats{N: int(wa.Packets), Sum: wa.Bytes},
	}
	a := pipeline.Alert{Flow: &c.flow, Class: class, ClassName: name, Time: wa.Time}
	if c.cfg.OnAlert != nil {
		c.cfg.OnAlert(a)
	}
	for _, s := range c.cfg.Sinks {
		s.Consume(a)
	}
}

// route returns the worker owning p's flow: FlowKey.Hash % N, the sharded
// engine's modulus contract — both directions of a flow land on one
// worker, so flow assembly there sees exactly its per-flow subsequence.
func (c *Client) route(p *netflow.Packet) *workerConn {
	return c.conns[int(p.ShardKey()%uint64(len(c.conns)))]
}

// Feed routes one packet to its flow's worker: the packet joins that
// worker's open packets frame, and the frame goes out when it is full or
// at the next Tick, Flush, Close or snapshot push. Lossless: a slow worker
// blocks the feed (TCP backpressure), it never drops. No-op after Close;
// after the worker's connection failed, packets are discarded frame by
// frame (the error surfaces on Err and Close).
func (c *Client) Feed(p netflow.Packet) {
	if c.closed.Load() {
		return
	}
	wc := c.route(&p)
	wc.out.mu.Lock()
	wc.out.room(maxTaggedPacket)
	wc.out.open = appendPacket(wc.out.open, &p)
	wc.sent++
	wc.out.mu.Unlock()
}

// FeedWithin feeds p, reporting admission. The network client is
// lossless-blocking like the local engines' Feed, so admission succeeds
// whenever the client is open and the wait bound is not needed; false
// after Close.
func (c *Client) FeedWithin(p netflow.Packet, _ time.Duration) bool {
	if c.closed.Load() {
		return false
	}
	c.Feed(p)
	return true
}

// Tick broadcasts the capture-clock tick to every worker, ordered with
// packets: each worker receives it after every previously routed packet
// and before any later one — the Runner's tick-before-crossing-packet
// semantics hold per worker, which is what verdict determinism needs.
// Ticks also send the open packets frames, so a replay's wire batching
// never exceeds one capture tick. No-op after Close.
func (c *Client) Tick(now float64) { c.broadcast(frameTick, encodeTick(now)) }

// Flush broadcasts an end-of-capture flush to every worker (ordered with
// packets, like Tick). No-op after Close.
func (c *Client) Flush() { c.broadcast(frameFlush, nil) }

// broadcast sends one control frame to every worker unless closed.
func (c *Client) broadcast(t frameType, payload []byte) {
	if c.closed.Load() {
		return
	}
	for _, wc := range c.conns {
		_ = wc.out.control(t, payload) // latched on the connection; Err reports it
	}
}

// Close sends bye to every worker, then waits for each to drain its
// engine, deliver every remaining alert, report settled telemetry and
// close the session. After Close, Stats holds exact cluster-wide
// totals. Idempotent; Feed/Tick/Flush after Close are defined no-ops.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		for _, wc := range c.conns {
			_ = wc.out.control(frameBye, nil) // latched on the connection; Err reports it
		}
		for _, wc := range c.conns {
			<-wc.done // read loop exits on the worker's bye (or error)
			_ = wc.out.conn.Close()
		}
	})
}

// Err returns the first transport or protocol error any worker
// connection latched, or nil. A non-nil Err means the cluster lost
// packets or alerts — callers treating the replay as authoritative must
// check it after Close.
func (c *Client) Err() error {
	for _, wc := range c.conns {
		if err := wc.out.failed(); err != nil {
			return err
		}
	}
	return nil
}

// MergedSnapshot folds every worker's latest telemetry report into one
// cluster-level snapshot (telemetry.Merge). Mid-run it is at most 100 ms
// of wall time stale (a worker reports on a tick at most that often, and
// on every Flush); after Close it is exact (every report is settled).
func (c *Client) MergedSnapshot() telemetry.Snapshot {
	snaps := make([]telemetry.Snapshot, 0, len(c.conns))
	for _, wc := range c.conns {
		wc.mu.Lock()
		if wc.haveSnap {
			snaps = append(snaps, wc.lastSnap)
		}
		wc.mu.Unlock()
	}
	m := telemetry.Merge(snaps...)
	if len(m.Classes) == 0 {
		m.Classes = c.cfg.ClassNames
		m.ByClass = make([]int64, len(c.cfg.ClassNames))
		m.ShadowDiverged = make([]int64, len(c.cfg.ClassNames))
	}
	return m
}

// Stats snapshots the merged cluster counters (see MergedSnapshot for
// freshness; exact after Close).
func (c *Client) Stats() pipeline.Stats {
	return pipeline.StatsOf(c.MergedSnapshot())
}

// Telemetry returns nil: the cluster's telemetry is the merge of remote
// collectors, served via MergedSnapshot (telemetry.Handler), not one
// local collector. Runner and the admin surface nil-check this.
func (c *Client) Telemetry() *telemetry.Collector { return nil }

// PushSnapshot serializes the current serving model and replicates it to
// every worker. Each worker validates through its control plane (decode,
// geometry, sanity) and answers with an ack; on acceptance the swap is
// one atomic COW publication per worker. Returns per-worker outcomes and
// the first error encountered (nil when every worker accepted).
func (c *Client) PushSnapshot() ([]PushResult, error) {
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, c.cfg.Model); err != nil {
		return nil, fmt.Errorf("cluster: snapshotting model: %w", err)
	}
	return c.PushSnapshotBytes(buf.Bytes())
}

// PushSnapshotBytes replicates raw snapshot bytes to every worker (see
// PushSnapshot). The bytes are pushed as-is — a rejected snapshot
// (corrupt, wrong geometry, failing sanity) leaves every worker's serving
// version untouched, each rejection carried in its PushResult.
func (c *Client) PushSnapshotBytes(snap []byte) ([]PushResult, error) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	results := make([]PushResult, len(c.conns))
	var wg sync.WaitGroup
	for i, wc := range c.conns {
		wg.Add(1)
		go func(i int, wc *workerConn) {
			defer wg.Done()
			results[i] = wc.push(snap)
		}(i, wc)
	}
	wg.Wait()
	var firstErr error
	for _, r := range results {
		if !r.OK && firstErr == nil {
			firstErr = fmt.Errorf("cluster: worker %s rejected snapshot: %s", r.Worker, r.Err)
		}
	}
	return results, firstErr
}

// push replicates one snapshot to one worker and waits for its ack.
func (wc *workerConn) push(snap []byte) PushResult {
	res := PushResult{Worker: wc.addr}
	wc.mu.Lock()
	res.Version = wc.version
	select {
	case <-wc.acks: // the late ack of an earlier push that timed out
	default:
	}
	wc.pushed++
	wc.mu.Unlock()
	if err := wc.out.control(frameSnapshot, snap); err != nil {
		res.Err = err.Error()
		return res
	}
	select {
	case a := <-wc.acks:
		res.OK, res.Err = a.OK, a.Msg
		res.Version = a.Version
		wc.mu.Lock()
		wc.version = a.Version
		wc.mu.Unlock()
	case <-wc.done:
		res.Err = "connection closed before ack"
	case <-time.After(ackTimeout):
		res.Err = "timed out waiting for snapshot ack"
	}
	return res
}

// WorkerAddrs returns the configured worker addresses in partition order.
func (c *Client) WorkerAddrs() []string {
	return append([]string(nil), c.cfg.Workers...)
}

// SentPerWorker returns how many packets Feed routed to each worker, in
// partition order — the ingest half of the packet-conservation invariant
// (each worker's settled Packets equals its sent count on a clean run).
func (c *Client) SentPerWorker() []int64 {
	out := make([]int64, len(c.conns))
	for i, wc := range c.conns {
		wc.out.mu.Lock()
		out[i] = wc.sent
		wc.out.mu.Unlock()
	}
	return out
}

// WorkerSnapshots returns each worker's latest telemetry report, in
// partition order (zero snapshots for workers that have not reported
// yet). After Close every entry is settled.
func (c *Client) WorkerSnapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(c.conns))
	for i, wc := range c.conns {
		wc.mu.Lock()
		out[i] = wc.lastSnap
		wc.mu.Unlock()
	}
	return out
}

// WorkerVersions returns each worker's last known serving model version,
// in partition order — acked pushes and telemetry reports both update it.
func (c *Client) WorkerVersions() []uint64 {
	out := make([]uint64, len(c.conns))
	for i, wc := range c.conns {
		wc.mu.Lock()
		out[i] = wc.version
		wc.mu.Unlock()
	}
	return out
}

// Runner returns a pipeline.Runner that replays src into the cluster:
// the standard replay loop (collapsed tick boundaries, final drain)
// driving remote workers instead of a local engine. tickInterval follows
// pipeline.Runner.TickInterval semantics (0 selects 1 s).
func (c *Client) Runner(src netflow.PacketSource, tickInterval float64) *pipeline.Runner {
	return &pipeline.Runner{Stream: c, Source: src, TickInterval: tickInterval}
}
