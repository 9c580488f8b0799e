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
const ackTimeout = 60 * time.Second

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
	// worker at dial and after each Feedback that changes it. Required.
	Model *core.COWModel
	// Normalizer carries the feature statistics every worker must apply
	// (pipeline.Config.Normalizer). Required.
	Normalizer *datasets.Normalizer
	// ClassNames label verdict classes on every worker. Required.
	ClassNames []string
	// BatchSize is each worker's micro-batch size (pipeline.Config.BatchSize).
	BatchSize int
	// Width is each worker's serving quantization width (pipeline.Config.Quantize).
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
	conn net.Conn
	fw   *frameWriter
	fr   *frameReader

	writeMu sync.Mutex // serializes frame writes (feed path vs pushes); guards open and sent
	open    []byte     // the open packets frame's payload: records fed since the last frame went out
	sent    int64      // packets routed here

	acks chan ackState
	done chan struct{} // closed when the read loop exits

	telDec *telemetryDecoder // the session's telemetry stream; read loop only

	mu       sync.Mutex // guards the fields below
	err      error      // first transport/decode error, latched
	lastSnap telemetry.Snapshot
	haveSnap bool
	settled  bool
	version  uint64
}

// fail latches the first error and tears the connection down (unblocking
// any writer stuck in a send).
func (wc *workerConn) fail(err error) {
	wc.mu.Lock()
	if wc.err == nil {
		wc.err = err
	}
	wc.mu.Unlock()
	_ = wc.conn.Close()
}

// Client is a cluster ingest node's handle on its worker fleet. It
// implements pipeline.Stream, so the standard Runner (or any caller of
// the Stream contract) drives a multi-node cluster exactly like a local
// engine: Feed partitions by flow hash, Tick/Flush broadcast in stream
// order, Close drains every worker and settles their telemetry, Feedback
// updates the local serving model and replicates the new snapshot.
//
// Ingestion is lossless-blocking like the in-process engines: a slow
// worker exerts TCP backpressure on Feed rather than dropping. FeedWithin
// therefore admits whenever the client is open — bounded admission
// belongs on a Gate in front of the client, exactly as with local
// engines.
type Client struct {
	cfg   ClientConfig
	conns []*workerConn

	alertMu sync.Mutex // serializes OnAlert/sink delivery across workers

	fbMu  sync.Mutex // serializes Feedback's featurize+update
	fbBuf []float32
	fbOK  atomic.Int64

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
				_ = open.conn.Close()
			}
			return nil, err
		}
		wc.version = cfg.Model.Version()
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
		addr: addr, conn: conn,
		fw: newFrameWriter(conn), fr: newFrameReader(conn),
		open: make([]byte, 0, maxPacketsPayload), telDec: newTelemetryDecoder(),
		acks: make(chan ackState, 1), done: make(chan struct{}),
	}
	fail := func(err error) (*workerConn, error) {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: worker %s handshake: %w", addr, err)
	}
	if err := writeWireMagic(conn); err != nil {
		return fail(err)
	}
	if err := readWireMagic(conn); err != nil {
		return fail(err)
	}
	expectAck := func() error {
		t, payload, err := wc.fr.next()
		if err != nil {
			return err
		}
		if t != frameAck {
			return fmt.Errorf("frame type %d, want ack", t)
		}
		a, err := decodeAck(payload)
		if err != nil {
			return err
		}
		if !a.OK {
			return fmt.Errorf("worker rejected: %s", a.Msg)
		}
		return nil
	}
	if err := wc.fw.writeFrame(frameHello, hello); err != nil {
		return fail(err)
	}
	if err := wc.fw.flush(); err != nil {
		return fail(err)
	}
	if err := expectAck(); err != nil {
		return fail(err)
	}
	if err := wc.fw.writeFrame(frameSnapshot, snap); err != nil {
		return fail(err)
	}
	if err := wc.fw.flush(); err != nil {
		return fail(err)
	}
	if err := expectAck(); err != nil {
		return fail(err)
	}
	return wc, nil
}

// readLoop drains one worker's return stream: alerts into the serialized
// delivery path, telemetry into the per-worker latest snapshot, acks to
// the waiting push. It exits on the worker's bye or any transport error.
func (c *Client) readLoop(wc *workerConn) {
	defer close(wc.done)
	var wa wireAlert
	for {
		t, payload, err := wc.fr.next()
		if err != nil {
			wc.fail(fmt.Errorf("cluster: worker %s: %w", wc.addr, err))
			return
		}
		switch t {
		case frameAlert, frameAlert2:
			if err := decodeAlert(t, payload, &wa); err != nil {
				wc.fail(err)
				return
			}
			c.deliver(&wa)
		case frameTelemetry:
			s, settled, err := wc.telDec.decode(payload)
			if err != nil {
				wc.fail(err)
				return
			}
			wc.mu.Lock()
			wc.lastSnap, wc.haveSnap = s, true
			if settled {
				wc.settled = true
			}
			if s.ModelVersion != 0 {
				wc.version = s.ModelVersion
			}
			wc.mu.Unlock()
		case frameAck:
			a, err := decodeAck(payload)
			if err != nil {
				wc.fail(err)
				return
			}
			select {
			case wc.acks <- a:
			default: // no push waiting; never block the read loop
			}
		case frameBye:
			return
		default:
			wc.fail(fmt.Errorf("cluster: worker %s sent frame type %d", wc.addr, t))
			return
		}
	}
}

// deliver reconstructs one engine alert from its wire record and hands it
// to the callback and sinks under the merge lock — per-worker order
// preserved, cross-worker interleaving serialized (the sharded engine's
// delivery contract, carried over the wire).
//
// The reconstructed Flow is a summary: key, initiator, first/last times
// and both-direction packet/byte totals — exactly the fields the alert
// record shape (pipeline.AlertRecord) renders. Per-direction statistics
// beyond the totals stay on the worker.
func (c *Client) deliver(wa *wireAlert) {
	f := &netflow.Flow{
		Key:       wa.Key,
		InitSrcIP: wa.InitSrcIP, InitSrcPort: wa.InitSrcPort,
		FirstTime: wa.FirstTime, LastTime: wa.Time,
	}
	f.FwdLen.N = int(wa.Packets)
	f.FwdLen.Sum = wa.Bytes
	class := int(wa.Class)
	var name string
	if class < len(c.cfg.ClassNames) {
		name = c.cfg.ClassNames[class]
	} else {
		name = fmt.Sprintf("class%d", class)
	}
	a := pipeline.Alert{Flow: f, Class: class, ClassName: name, Time: wa.Time}
	c.alertMu.Lock()
	defer c.alertMu.Unlock()
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
	wc.writeMu.Lock()
	defer wc.writeMu.Unlock()
	if len(wc.open)+maxTaggedRecord > maxPacketsPayload {
		wc.closeFrame()
	}
	wc.open = appendPacket(wc.open, &p)
	wc.sent++
}

// closeFrame writes the open packets frame, if it holds anything, into
// the connection's write buffer. Caller holds writeMu.
func (wc *workerConn) closeFrame() {
	if len(wc.open) == 0 {
		return
	}
	if !wc.broken() {
		if err := wc.fw.writeFrame(framePackets, wc.open); err != nil {
			wc.fail(err)
		}
	}
	wc.open = wc.open[:0]
}

// control closes the open packets frame, then writes one more frame and
// flushes the connection — the shape of every tick, flush, bye and
// snapshot push, which is what keeps them ordered with the packets fed
// before them. It returns the write error, already latched.
func (wc *workerConn) control(t frameType, payload []byte) error {
	wc.writeMu.Lock()
	defer wc.writeMu.Unlock()
	wc.closeFrame()
	if wc.broken() {
		return fmt.Errorf("connection failed")
	}
	err := wc.fw.writeFrame(t, payload)
	if err == nil {
		err = wc.fw.flush()
	}
	if err != nil {
		wc.fail(err)
	}
	return err
}

// broken reports whether the connection has latched an error.
func (wc *workerConn) broken() bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.err != nil
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
		_ = wc.control(t, payload) // latched on the connection; Err reports it
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
			_ = wc.control(frameBye, nil) // latched on the connection; Err reports it
		}
		for _, wc := range c.conns {
			<-wc.done // read loop exits on the worker's bye (or error)
			_ = wc.conn.Close()
		}
	})
}

// Err returns the first transport or protocol error any worker
// connection latched, or nil. A non-nil Err means the cluster lost
// packets or alerts — callers treating the replay as authoritative must
// check it after Close.
func (c *Client) Err() error {
	for _, wc := range c.conns {
		wc.mu.Lock()
		err := wc.err
		wc.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// MergedSnapshot folds every worker's latest telemetry report into one
// cluster-level snapshot (telemetry.Merge), plus the ingest node's own
// feedback accounting. Mid-run it is fresh to the last tick; after Close
// it is exact (every worker's report is settled).
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
	m.FeedbackOK += c.fbOK.Load()
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

// Feedback applies one labeled flow to the ingest node's serving model
// and, when the model changed, replicates the new snapshot to every
// worker through their control-plane gates — the cluster form of online
// learning: one authority, atomic per-worker swaps. Returns whether the
// model changed. Push outcomes are per-worker; a worker that rejects
// keeps serving its previous version (see PushSnapshot).
func (c *Client) Feedback(f *netflow.Flow, label int) bool {
	u, ok := any(c.cfg.Model).(pipeline.Updater)
	if !ok {
		return false
	}
	c.fbMu.Lock()
	c.fbBuf = f.AppendFeatures(c.fbBuf[:0])
	c.cfg.Normalizer.ApplyVec(c.fbBuf)
	changed := u.Update(c.fbBuf, label)
	c.fbMu.Unlock()
	if !changed {
		c.fbOK.Add(1)
		return false
	}
	_, _ = c.PushSnapshot()
	return true
}

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
	wc.mu.Unlock()
	if err := wc.control(frameSnapshot, snap); err != nil {
		res.Err = err.Error()
		return res
	}
	timeout := time.NewTimer(ackTimeout)
	defer timeout.Stop()
	select {
	case a := <-wc.acks:
		res.OK, res.Err = a.OK, a.Msg
		res.Version = a.Version
		wc.mu.Lock()
		wc.version = a.Version
		wc.mu.Unlock()
	case <-wc.done:
		res.Err = "connection closed before ack"
	case <-timeout.C:
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
		wc.writeMu.Lock()
		out[i] = wc.sent
		wc.writeMu.Unlock()
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
