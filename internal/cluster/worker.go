package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/control"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/telemetry"
)

// WorkerConfig tunes a detector worker. The zero value serves. Every
// snapshot a session receives clears control.Admit, the gate an HTTP
// upload clears, and is capped at control.DefaultMaxUploadBytes.
type WorkerConfig struct {
	// Logf, when set, receives session lifecycle lines (accept, model
	// swaps, session summaries). Keep it cheap; it runs on session
	// goroutines.
	Logf func(format string, args ...any)
}

// Worker is a cluster detector node: it accepts ingest connections and
// serves one detection session per connection — session configuration and
// model arrive over the wire, packets stream in, alerts and telemetry
// stream out, and replicated snapshots hot-swap the serving model through
// the control-plane gates. Sessions are independent: each builds its own
// engine, so one worker process can serve several ingest nodes.
type Worker struct {
	ln  net.Listener
	cfg WorkerConfig

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewWorker binds addr (host:port; port 0 works the usual net way) and
// returns a worker ready to Serve. The listener is bound when this
// returns — read the resolved address from Addr.
func NewWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Worker{ln: ln, cfg: cfg}, nil
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts ingest connections until Close, running one session per
// connection concurrently. It returns nil after Close; any other accept
// error is returned as-is.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		w.logf("cluster worker: session from %s", conn.RemoteAddr())
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer conn.Close()
			if err := w.serveConn(conn); err != nil {
				w.logf("cluster worker: session %s ended: %v", conn.RemoteAddr(), err)
			} else {
				w.logf("cluster worker: session %s complete", conn.RemoteAddr())
			}
		}()
	}
}

// Close stops accepting and waits for in-flight sessions to end their
// engines. Idempotent.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// session is one ingest connection being served: the write half,
// through which the frame loop sends acks, telemetry and bye and the
// engine's alert callback (called on the frame loop) the alerts run, and
// the loop's telemetry stream.
type session struct {
	out      *writeHalf
	telEnc   *telemetryEncoder // the session's telemetry stream; frame loop only
	lastLive time.Time         // when the last report went out; frame loop only
}

// newSession starts a session's write half with an empty alerts run: a
// frame's alerts are few, and the run grows to what they need.
func newSession(conn net.Conn) *session {
	return &session{out: newWriteHalf(conn, frameAlerts, 0), telEnc: newTelemetryEncoder()}
}

// liveReportEvery is the least wall time between two tick-driven live
// telemetry reports. A replay ticks thousands of capture seconds a wall
// second; no rollup scrape tells a report this old from a fresh one.
const liveReportEvery = 100 * time.Millisecond

// sendAck frames one ack.
func (s *session) sendAck(a ackState) error {
	payload, err := encodeAck(a)
	if err != nil {
		return err
	}
	return s.out.control(frameAck, payload)
}

// sendTelemetry frames one telemetry snapshot.
func (s *session) sendTelemetry(tel *telemetry.Collector) error {
	payload, err := s.telEnc.encode(tel.Snapshot())
	if err != nil {
		return err
	}
	s.lastLive = time.Now()
	return s.out.control(frameTelemetry, payload)
}

// serveConn runs one detection session: magic exchange, hello, initial
// snapshot, then the frame loop until bye or a transport error. The
// engine drains (Close) on every exit path.
func (w *Worker) serveConn(conn net.Conn) error {
	if err := writeWireMagic(conn); err != nil {
		return err
	}
	if err := readWireMagic(conn); err != nil {
		return err
	}
	fr, s := newFrameReader(conn), newSession(conn)
	refuse := func(err error) error { _ = s.sendAck(ackState{Msg: err.Error()}); return err }

	// Session configuration first: everything but the model.
	t, payload, err := fr.next()
	if err != nil {
		return err
	}
	if t != frameHello {
		return fmt.Errorf("cluster: first frame is type %d, want hello", t)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return refuse(err)
	}
	if err := s.sendAck(ackState{OK: true}); err != nil {
		return err
	}

	// Then the initial model snapshot, which fixes the serving dimension.
	t, payload, err = fr.next()
	if err != nil {
		return err
	}
	if t != frameSnapshot {
		return fmt.Errorf("cluster: second frame is type %d, want snapshot", t)
	}
	// It clears the gate every later snapshot (plane.Apply) and every HTTP
	// upload clears; with nothing serving yet, the geometry it must fit is
	// what the session will feed it and index its verdicts into: flow
	// features in, the hello's class names out.
	m, info, err := control.Admit(bytes.NewReader(payload), control.Geometry{
		Classes: len(h.ClassNames), Inputs: netflow.NumFeatures, Width: bitpack.Width(h.Width),
	})
	if err != nil {
		return refuse(fmt.Errorf("cluster: initial snapshot: %w", err))
	}
	// The hello's width is the model's: chosen here, once, before the
	// engine reads it, at the version the snapshot carried.
	cow := core.RestoreSnapshot(m, info)
	if h.Width == int(bitpack.W1) {
		quantize.AttachLive(cow)
	}
	plane, err := control.New(control.Config{Model: cow, Width: bitpack.Width(h.Width)})
	if err != nil {
		return refuse(err)
	}

	// One synchronous engine: every alert is raised inside a frame, while
	// the frame loop holds the write half, so it leaves with the frame.
	tel := telemetry.New(h.ClassNames)
	eng, err := pipeline.New(pipeline.Config{
		Model:      cow,
		Normalizer: &datasets.Normalizer{Mean: h.NormMean, InvStd: h.NormInvStd},
		ClassNames: h.ClassNames,
		BatchSize:  h.BatchSize,
		Telemetry:  tel,
		OnAlert: func(a pipeline.Alert) { // joins the open alerts run
			wa := wireAlertOf(&a)
			s.out.mu.Lock()
			defer s.out.mu.Unlock()
			s.out.room(maxTaggedAlert)
			s.out.open = appendAlert(s.out.open, &wa)
		},
	})
	if err != nil {
		return refuse(err)
	}
	defer eng.Close()
	if err := s.sendAck(ackState{OK: true, Version: cow.Version()}); err != nil {
		return err
	}

	// The frame loop: the session's single clock. Packets, ticks and
	// flushes apply in arrival order — the same total order the ingest
	// Runner issued them in — so verdicts are deterministic. Everything a
	// frame writes (alerts, ack, telemetry) leaves in one flush at its end.
	var pkts []netflow.Packet
	for {
		t, payload, err := fr.next()
		if err != nil {
			return err
		}
		_ = s.out.hold(true) // a latched write error surfaces at the frame's end
		switch t {
		case framePackets:
			if pkts, err = decodePackets(payload, pkts); err != nil {
				return err
			}
			eng.FeedRun(pkts)
		case frameTick:
			now, err := decodeTick(payload)
			if err != nil {
				return err
			}
			eng.Tick(now)
			// A live report keeps the ingest rollup at most
			// liveReportEvery stale.
			if time.Since(s.lastLive) >= liveReportEvery {
				if err := s.sendTelemetry(tel); err != nil {
					return err
				}
			}
		case frameFlush:
			eng.Flush()
			if err := s.sendTelemetry(tel); err != nil {
				return err
			}
		case frameSnapshot:
			version, aerr := plane.Apply(bytes.NewReader(payload))
			ack := ackState{OK: aerr == nil, Version: version}
			if aerr != nil {
				ack.Msg = aerr.Error()
				w.logf("cluster worker: snapshot rejected (serving v%d): %v", version, aerr)
			} else {
				w.logf("cluster worker: snapshot applied, serving v%d", version)
			}
			if err := s.sendAck(ack); err != nil {
				return err
			}
		case frameBye:
			// Deterministic drain, then the settled telemetry the ingest
			// side folds into its final stats, then our own bye.
			eng.Close()
			if err := s.sendTelemetry(tel); err != nil {
				return err
			}
			_ = s.out.control(frameBye, nil)
			return s.out.hold(false) // the settled report and bye go out, or the latched write error
		default:
			return fmt.Errorf("cluster: unexpected frame type %d mid-session", t)
		}
		if err := s.out.hold(false); err != nil {
			return err
		}
	}
}

// wireAlertOf flattens an engine alert to its wire record. A packet
// count past the 32-bit field saturates at math.MaxUint32.
func wireAlertOf(a *pipeline.Alert) wireAlert {
	f := a.Flow
	return wireAlert{
		Time: a.Time, FirstTime: f.FirstTime, Key: f.Key,
		Class:     uint16(a.Class),
		InitSrcIP: f.InitSrcIP, InitSrcPort: f.InitSrcPort,
		Packets: uint32(min(f.TotalPackets(), math.MaxUint32)), Bytes: f.TotalBytes(),
	}
}
