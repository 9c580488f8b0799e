package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/control"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// WorkerConfig tunes a detector worker. The zero value serves. A
// replicated snapshot clears the control plane's built-in sanity batch and
// is capped at control.DefaultMaxUploadBytes, like an HTTP upload.
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

// session is one ingest connection being served: the engine driven by the
// frame loop, and the write half shared between the loop (acks,
// telemetry) and the engine's alert callbacks.
type session struct {
	fw      *frameWriter
	writeMu sync.Mutex
	wErr    error // first write error, latched under writeMu

	telEnc *telemetryEncoder // the session's telemetry stream; frame loop only
}

// write runs one framing call under the write lock and flushes it to the
// peer, latching the first write error (after which the session loop
// tears down — the peer is gone, alerts have nowhere to go).
func (s *session) write(frame func(*frameWriter) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.wErr != nil {
		return s.wErr
	}
	if err := frame(s.fw); err == nil {
		s.wErr = s.fw.flush()
	} else {
		s.wErr = err
	}
	return s.wErr
}

// send frames one payload.
func (s *session) send(t frameType, payload []byte) error {
	return s.write(func(fw *frameWriter) error { return fw.writeFrame(t, payload) })
}

// sendAlert frames one alert record.
func (s *session) sendAlert(a *wireAlert) error {
	return s.write(func(fw *frameWriter) error { return fw.writeAlert(a) })
}

// sendAck frames one ack.
func (s *session) sendAck(a ackState) error {
	payload, err := encodeAck(a)
	if err != nil {
		return err
	}
	return s.send(frameAck, payload)
}

// sendTelemetry frames one telemetry snapshot.
func (s *session) sendTelemetry(tel *telemetry.Collector, settled bool) error {
	payload, err := s.telEnc.encode(tel.Snapshot(), settled)
	if err != nil {
		return err
	}
	return s.send(frameTelemetry, payload)
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
	fr := newFrameReader(conn)
	s := &session{fw: newFrameWriter(conn), telEnc: newTelemetryEncoder()}

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
		_ = s.sendAck(ackState{Msg: err.Error()})
		return err
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
	}, control.SanityBatch{})
	if err != nil {
		err = fmt.Errorf("cluster: initial snapshot: %w", err)
		_ = s.sendAck(ackState{Msg: err.Error()})
		return err
	}
	cow := core.RestoreSnapshot(m, info)
	plane, err := control.New(control.Config{Model: cow, Width: bitpack.Width(h.Width)})
	if err != nil {
		_ = s.sendAck(ackState{Msg: err.Error()})
		return err
	}

	tel := telemetry.New(h.ClassNames)
	cfg := pipeline.Config{
		Model:      cow,
		Normalizer: &datasets.Normalizer{Mean: h.NormMean, InvStd: h.NormInvStd},
		ClassNames: h.ClassNames,
		BatchSize:  h.BatchSize, Quantize: bitpack.Width(h.Width),
		Shards:    h.Shards,
		Telemetry: tel,
		OnAlert: func(a pipeline.Alert) {
			wa := wireAlertOf(&a)
			_ = s.sendAlert(&wa)
		},
	}
	eng, err := pipeline.NewStream(cfg)
	if err != nil {
		_ = s.sendAck(ackState{Msg: err.Error()})
		return err
	}
	defer eng.Close()
	if err := s.sendAck(ackState{OK: true, Version: cow.Version()}); err != nil {
		return err
	}

	// The frame loop: the session's single clock. Packets, ticks and
	// flushes apply in arrival order — the same total order the ingest
	// Runner issued them in — so verdicts are deterministic.
	var pkts []netflow.Packet
	for {
		t, payload, err := fr.next()
		if err != nil {
			return err
		}
		switch t {
		case framePackets:
			if pkts, err = decodePackets(payload, pkts); err != nil {
				return err
			}
			for i := range pkts {
				eng.Feed(pkts[i])
			}
		case frameTick:
			now, err := decodeTick(payload)
			if err != nil {
				return err
			}
			eng.Tick(now)
			// A live (unsettled) telemetry report per tick keeps the
			// ingest rollup fresh at capture-second granularity.
			if err := s.sendTelemetry(tel, false); err != nil {
				return err
			}
		case frameFlush:
			eng.Flush()
			if err := s.sendTelemetry(tel, false); err != nil {
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
			if err := s.sendTelemetry(tel, true); err != nil {
				return err
			}
			return s.send(frameBye, nil)
		default:
			return fmt.Errorf("cluster: unexpected frame type %d mid-session", t)
		}
	}
}

// wireAlertOf flattens an engine alert to its wire record.
func wireAlertOf(a *pipeline.Alert) wireAlert {
	f := a.Flow
	return wireAlert{
		Time: a.Time, FirstTime: f.FirstTime, Key: f.Key,
		Class:     uint16(a.Class),
		InitSrcIP: f.InitSrcIP, InitSrcPort: f.InitSrcPort,
		Packets: uint32(f.TotalPackets()), Bytes: f.TotalBytes(),
	}
}
